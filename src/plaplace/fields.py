"""Score field conventions and small field combinators.

A score field is any callable mapping a batch of points, shape ``(n, d)``,
to a batch of score vectors of the same shape.  Fields that depend on a
noise level (learned models) are bound to a fixed level when the callable
is constructed, so every consumer downstream sees the same interface.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

ScoreField = Callable[[np.ndarray], np.ndarray]

# Gradient floor: below this score norm, p < 2 operators are treated as singular.
EPS_GRAD = 1e-8


def p_weight(s: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p-Laplace integrand weight of score values, one entry per row.

    Returns ``(norm, weight, singular)``: the score norm floored at 1e-300,
    the weight |s|^(p-2) taken from that norm, and the mask of rows where a
    p < 2 integrand is undefined (norm below ``EPS_GRAD``).  For p >= 2 no
    row is singular.  Every estimator, reference and bound skips and counts
    exactly the rows this mask marks.
    """
    norm = np.linalg.norm(s, axis=-1)
    singular = norm < EPS_GRAD if p < 2 else np.zeros(norm.shape, dtype=bool)
    norm = np.maximum(norm, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = norm ** (p - 2.0)
    return norm, weight, singular


def scale_field(field: ScoreField, a: float) -> ScoreField:
    """Score field of the scaled potential a*u, i.e. x -> a * field(x)."""

    def scaled(x: np.ndarray) -> np.ndarray:
        return a * field(x)

    return scaled


def shift_field(field: ScoreField, offset: np.ndarray) -> ScoreField:
    """Field with a constant vector added to every score value."""
    offset = np.asarray(offset, dtype=float)

    def shifted(x: np.ndarray) -> np.ndarray:
        return field(x) + offset

    return shifted


def constant_field(value: np.ndarray) -> ScoreField:
    """Field that returns the same vector at every point."""
    value = np.asarray(value, dtype=float)

    def const(x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(value, x.shape).copy()

    return const
