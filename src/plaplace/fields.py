"""Score field conventions and the p-Laplace integrand weight.

A score field is any callable mapping a batch of points, shape ``(n, d)``,
to a batch of score vectors of the same shape.  Fields that depend on a
noise level (learned models) are bound to a fixed level when the callable
is constructed, so every consumer downstream sees the same interface.
``p_weight`` decides the integrand weight and the p < 2 singular rows for
every estimator, the dense reference and the bound check.
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
