"""Uniform sampling on and in d-balls, and the generators that drive it.

Randomness policy: every function that draws takes its ``numpy.random.Generator``;
integers become generators (``make_rng``) only in the study drivers and in
``config.build_gmm``.  Harnesses derive one child generator per estimation call
(a fidelity repeat, a grid node, a bound anchor) with ``Generator.spawn``, numpy's
SeedSequence spawning, so runs are reproducible however work is distributed.

Both samplers draw only standard normals: a sphere point is a row of them
over its norm, and a ball point in d dimensions is the first d coordinates of
a sphere point in d + 2 (Barthe, Guedon, Mendelson and Naor 2005; Voelker,
Gosmann and Stewart 2017).  A large draw therefore splits into consecutive
calls with no state to carry between them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_ball_uniform",
    "sample_sphere_uniform",
    "make_rng",
]


def make_rng(seed: int) -> np.random.Generator:
    """The PCG64 generator of an integer seed; there is no entropy-seeded default."""
    return np.random.default_rng(seed)


def _checked_center(center, radius: float, n: int) -> np.ndarray:
    """``center`` as a float vector, after checking it, the radius and the sample count."""
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or center.shape[0] < 1:
        raise ValueError(f"center must be a nonempty 1-d vector, got shape {center.shape}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return center


def _directions(v: np.ndarray) -> np.ndarray:
    """Uniform unit vectors: each row of standard Gaussians over its norm."""
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_sphere_uniform(
    center, radius: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points on the sphere of the given radius around ``center``.

    Returns ``(points, normals)`` where ``points`` has shape ``(n, dim)``
    and ``normals`` are the outward unit normals ``(points - center) / radius``.
    """
    center = _checked_center(center, radius, n)
    normals = _directions(rng.standard_normal((n, center.shape[0])))
    return center + radius * normals, normals


def sample_ball_uniform(center, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points inside the ball: the first dim coordinates of uniform points on the (dim + 1)-sphere.

    Each row is drawn from its own dim + 2 standard normals, which the
    generator fills in row order, so consecutive calls give, bit for bit,
    the rows of one call for their total n, and leave ``rng`` where it would.
    """
    center = _checked_center(center, radius, n)
    dim = center.shape[0]
    return center + radius * _directions(rng.standard_normal((n, dim + 2)))[:, :dim]
