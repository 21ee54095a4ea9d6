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

# Score norms below this floor are taken as the floor where the exact operator divides by |s|^2.
NORM_FLOOR = 1e-150
# Exact power of two: a row under the floor (every component below about 2**-498) times it
# neither overflows nor rounds, and its square neither underflows nor loses bits.
_RESCALE = 2.0**600
_SMALLEST_NORMAL = np.finfo(float).tiny


def p_weight(s: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The p-Laplace integrand weight of score values, one entry per row.

    Returns ``(norm, weight)``: the score norm floored at ``NORM_FLOOR``,
    and the weight |s|^(p-2).  The floor keeps ``norm**2`` a positive normal
    float, so the exact operator's quad / |s|^2 at a critical point (s = 0)
    is 0 / 1e-300 = 0, not 0 / 0.  Under the floor ``s * s`` loses bits or
    underflows, so those rows take their weight from the norm of s scaled
    up by a power of two (exact), floored at the smallest normal float; at
    s = 0 the weight is the floor's.  The flux |s|^(p-2) s is then bounded
    for p >= 1, 0 at s = 0, and at p = 1 the unit vector down to
    |s| ~ 1e-300.  Rows at or above the floor never take this path.
    """
    norm = np.sqrt(np.add.reduce(s * s, axis=-1))  # np.linalg.norm's arithmetic, without its conjugate copy of s
    under = norm < NORM_FLOOR
    norm = np.maximum(norm, NORM_FLOOR)
    weight = norm ** (p - 2.0)
    if under.any():
        weight = np.array(weight)  # writable, also when s is one (d,) row
        rows = s[under] * _RESCALE
        unfloored = np.sqrt(np.add.reduce(rows * rows, axis=-1)) / _RESCALE
        weight[under] = np.where(unfloored > 0, np.maximum(unfloored, _SMALLEST_NORMAL), NORM_FLOOR) ** (p - 2.0)
    return norm, weight
