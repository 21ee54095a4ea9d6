"""Error-bound machinery for the boundary-formulation estimator.

For two score fields s and s_hat whose values on a sphere stay delta-close,
with norms between m and M (including along the segment joining paired
values), the difference of the two normalized flux averages is bounded by

    c_p = (surface/volume) * delta * M^(p-2) * (p-1)   for p >= 2
    c_p = (surface/volume) * delta * m^(p-2) * (3-p)   for p < 2.

The constants are measured on the same finite sample set used for the two
estimates, which makes the dominance claim exactly checkable: per sample,
the flux difference obeys the mean-value bound, so the averaged error can
never exceed c_p built from sample-set extrema.  Every sample enters both
the constants and the error: the flux is bounded for every p >= 1, and a
vanishing score gives m = 0, which marks the anchor as not ok (c_p = inf).
"""

from __future__ import annotations

import numpy as np

from .estimators import EstimatorConfig, _flux_values, _sphere_blocks
from .fields import ScoreField
from .tables import write_table

__all__ = [
    "bound_constant",
    "validate_bound",
    "bound_summary",
    "bound_surface",
    "write_bound_reports_csv",
]


def bound_constant(
    p: float, delta: float | np.ndarray, m: float | np.ndarray, M: float | np.ndarray, dim: int, radius: float
) -> float | np.ndarray:
    """The flux-difference bound, surface/volume factor included.

    ``delta``, ``m`` and ``M`` broadcast against each other; scalar inputs
    give a float, with the bits of the same entry in an array call.
    Continuous in p at p = 2, where both branches reduce to (dim/radius) * delta.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    delta, m, M = (np.asarray(a, dtype=float) for a in (delta, m, M))
    if np.any(np.less(delta, 0)):
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not np.all(np.less(0, m) & np.less_equal(m, M)):
        raise ValueError(f"need 0 < m <= M, got m={m}, M={M}")
    factor = dim / radius
    if p >= 2:
        c_p = factor * delta * M ** (p - 2.0) * (p - 1.0)
    else:
        c_p = factor * delta * m ** (p - 2.0) * (3.0 - p)
    return float(c_p) if np.ndim(c_p) == 0 else c_p


def _segment_minima(sv: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Per-pair minimum of |t*s + (1-t)*s_hat| over t in [0, 1], for pairs along the last axis.

    The squared norm is quadratic in t, so the exact minimizer is closed-form.
    """
    dvec = sv - hv
    dsq = np.sum(dvec * dvec, axis=-1)
    # The floor keeps the quotient finite; where dsq = 0, dvec = 0 and every t gives the point hv.
    t_star = np.clip(-np.sum(hv * dvec, axis=-1) / np.maximum(dsq, 1e-300), 0.0, 1.0)
    return np.linalg.norm(hv + t_star[..., None] * dvec, axis=-1)


def _constants_from_values(sv: np.ndarray, hv: np.ndarray):
    """(delta, m, M, segment_min) measured on paired score values of shape (..., n, d).

    Each constant has the leading shape ``...``: one set per sample set.
    """
    sn = np.linalg.norm(sv, axis=-1)
    hn = np.linalg.norm(hv, axis=-1)
    # 1% inflation keeps the strict inequality of the closeness assumption.
    delta = 1.01 * np.max(np.linalg.norm(sv - hv, axis=-1), axis=-1)
    M = np.maximum(sn.max(axis=-1), hn.max(axis=-1))
    segment_min = _segment_minima(sv, hv).min(axis=-1)
    m = np.minimum(np.minimum(sn.min(axis=-1), hn.min(axis=-1)), segment_min)
    return delta, m, M, segment_min


def validate_bound(
    s: ScoreField,
    s_hat: ScoreField,
    anchors,
    cfgs: list[EstimatorConfig],
    rng: np.random.Generator,
) -> np.recarray:
    """One record per config and anchor, config-major; both flux averages on the same sample set.

    Sharing the samples makes the empirical error the Monte Carlo estimate of
    the integral difference the bound controls, so dominance is a theorem for
    the discretized quantities, not a statistical statement.  Each anchor draws
    one sphere from its own substream (``estimators._sphere_blocks``), and that
    draw serves every config, so the configs must share ``radius`` and ``n_samples``
    (``ValueError`` otherwise) and an anchor's reports at different p are
    correlated.  ``(delta, m, M, segment_min)`` is measured once per block of
    anchors and serves every p; ``bound_constant`` is called once per p.

    The result is a read-only ``numpy.recarray`` of ``len(cfgs) * len(anchors)``
    records with the fields ``anchor`` (shape ``(dim,)``), ``p``, ``delta``,
    ``m``, ``M``, ``segment_min``, ``c_p``, ``empirical_error`` and
    ``assumptions_ok`` (``m > 0``; otherwise ``c_p`` is inf), in that order;
    ``reshape(len(cfgs), -1)`` gives one table per p.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n, dim = anchors.shape
    delta, m, M, segment_min = np.empty((4, n))
    errors = np.empty((len(cfgs), n))
    for start, normals, (sv, hv) in _sphere_blocks([s, s_hat], anchors, cfgs, rng):
        block = slice(start, start + sv.shape[0])
        delta[block], m[block], M[block], segment_min[block] = _constants_from_values(sv, hv)
        for k, cfg in enumerate(cfgs):
            errors[k, block] = np.mean(_flux_values(sv, normals, cfg.p) - _flux_values(hv, normals, cfg.p), axis=1)
    ok = m > 0.0
    c_p = np.full(errors.shape, np.inf)
    for k, cfg in enumerate(cfgs):
        c_p[k, ok] = bound_constant(cfg.p, delta[ok], m[ok], M[ok], dim, cfg.radius)
        errors[k] = np.abs(dim / cfg.radius * errors[k])
    per_anchor = (np.tile(column, len(cfgs)) for column in (delta, m, M, segment_min))
    reports = np.rec.fromarrays(
        [np.tile(anchors, (len(cfgs), 1)), np.repeat([cfg.p for cfg in cfgs], n), *per_anchor,
         c_p.ravel(), errors.ravel(), np.tile(ok, len(cfgs))],
        dtype=[("anchor", float, (dim,))]
        + [(name, float) for name in ("p", "delta", "m", "M", "segment_min", "c_p", "empirical_error")]
        + [("assumptions_ok", bool)],
    )
    reports.setflags(write=False)
    return reports


def bound_summary(reports: np.recarray) -> dict:
    """Aggregate dominance statistics over a batch of ``validate_bound`` records."""
    ok = reports[reports.assumptions_ok]
    bounded = ok[ok.c_p > 0]  # identical fields give c_p = 0, with nothing to divide by
    return {
        "n_anchors": len(reports),
        "assumption_ok_fraction": len(ok) / len(reports) if len(reports) else 0.0,
        "max_error_bound_ratio": float(np.max(bounded.empirical_error / bounded.c_p, initial=0.0)),
        "violations": int(np.count_nonzero(ok.empirical_error > ok.c_p)),
    }


def bound_surface(
    p: float,
    dim: int,
    radius: float,
    delta_range: tuple[float, float],
    m_range: tuple[float, float],
    M: float,
    n: int = 40,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_p on a (delta, m) grid; rows index m, columns index delta."""
    deltas = np.linspace(delta_range[0], delta_range[1], n)
    ms = np.linspace(m_range[0], m_range[1], n)
    grid = bound_constant(p, deltas[None, :], ms[:, None], np.maximum(M, ms)[:, None], dim, radius)
    return deltas, ms, grid


def write_bound_reports_csv(path, reports: np.recarray, header_comment: str | None = None) -> None:
    """One CSV row per ``validate_bound`` record: anchor coordinates first, then its other fields in order."""
    if len(reports) == 0:
        raise ValueError("no reports to write")
    cols = [f"anchor_{i}" for i in range(reports.anchor.shape[1])] + list(reports.dtype.names[1:])
    columns = [reports[name].tolist() for name in reports.dtype.names]
    write_table(path, cols, ([*coords, *values] for coords, *values in zip(*columns)), header_comment)
