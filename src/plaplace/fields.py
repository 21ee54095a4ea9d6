"""Score field conventions and the p-Laplace integrand weight.

A score field is any callable mapping a batch of points, shape ``(n, d)``,
to a batch of score vectors of the same shape.  Fields that depend on a
noise level (learned models) are bound to a fixed level when the callable
is constructed, so every consumer downstream sees the same interface.
``p_weight`` gives the integrand weight for every estimator and the dense
reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

ScoreField = Callable[[np.ndarray], np.ndarray]


def p_weight(s: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The p-Laplace integrand weight of score values, one entry per row.

    Returns ``(norm, weight)``: the score norm floored at 1e-150 and the
    weight |s|^(p-2) taken from that norm.  For p >= 1 the flux
    |s|^(p-2) s is then bounded near s = 0 and is 0 at s = 0, so no flux or
    divergence sample is undefined.  The floor also keeps ``norm**2`` a
    positive normal float, so the exact operator's quad / |s|^2 at a
    critical point (s = 0) is 0 / 1e-300 = 0, not 0 / 0.
    """
    norm = np.sqrt(np.add.reduce(s * s, axis=-1))  # np.linalg.norm's arithmetic, without its conjugate copy of s
    norm = np.maximum(norm, 1e-150)
    return norm, norm ** (p - 2.0)
