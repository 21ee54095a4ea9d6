"""Error-bound machinery for the boundary-formulation estimator.

For two score fields s and s_hat whose values on a sphere stay delta-close,
with norms between m and M (including along the segment joining paired
values), the difference of the two normalized flux averages is bounded by

    c_p = (surface/volume) * delta * M^(p-2) * (p-1)   for p >= 2
    c_p = (surface/volume) * delta * m^(p-2) * (3-p)   for p < 2.

The constants are measured on the same finite sample set used for the two
estimates, which makes the dominance claim exactly checkable: per sample,
the flux difference obeys the mean-value bound, so the averaged error can
never exceed c_p built from sample-set extrema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .estimators import EstimatorConfig, _shared_sphere, _sphere_blocks
from .fields import ScoreField
from .tables import write_table

__all__ = [
    "BoundReport",
    "bound_constant",
    "validate_bound",
    "bound_summary",
    "bound_surface",
    "write_bound_reports_csv",
]


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Per-anchor record of measured constants, bound, and observed error."""

    anchor: np.ndarray
    p: float
    delta: float
    m: float
    M: float
    c_p: float
    empirical_error: float
    segment_min: float

    @property
    def assumptions_ok(self) -> bool:
        """The norms stay bounded away from zero, so c_p is finite."""
        return self.m > 0.0


def bound_constant(
    p: float, delta: float | np.ndarray, m: float | np.ndarray, M: float | np.ndarray, dim: int, radius: float
) -> float | np.ndarray:
    """The flux-difference bound, surface/volume factor included.

    ``delta``, ``m`` and ``M`` broadcast against each other; scalar inputs
    give a float.  Continuous in p at p = 2, where both branches reduce to
    (dim/radius) * delta.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
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
    with np.errstate(invalid="ignore", divide="ignore"):
        t_star = np.where(dsq > 0, -np.sum(hv * dvec, axis=-1) / np.maximum(dsq, 1e-300), 0.0)
    t_star = np.clip(t_star, 0.0, 1.0)
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
) -> list[BoundReport]:
    """One BoundReport per config and anchor, config-major; both flux averages on the same sample set.

    Sharing the samples makes the empirical error the Monte Carlo estimate of
    the integral difference the bound controls, so dominance is a theorem for
    the discretized quantities, not a statistical statement.  Each anchor draws
    one sphere from its own substream (``estimators._sphere_blocks``), and that
    draw serves every config, so the configs must share ``radius`` and ``n_samples``
    (``ValueError`` otherwise) and an anchor's reports at different p are
    correlated.  ``(delta, m, M, segment_min)`` is measured once per anchor and
    again only for a p whose singular samples it must skip.
    """
    radius, n_samples, ps = _shared_sphere(cfgs)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    dim = anchors.shape[1]
    factor = dim / radius
    reports: list[list[BoundReport]] = [[] for _ in ps]
    for start, (sv, hv), (flux_s, flux_h) in _sphere_blocks([s, s_hat], anchors, radius, n_samples, ps, rng):
        all_samples = _constants_from_values(sv, hv)
        rows = list(anchors[start : start + sv.shape[0]])  # one view per anchor, shared by its reports at every p
        for p, (fs, sing_s), (fh, sing_h), out in zip(ps, flux_s, flux_h, reports):
            keep = ~(sing_s | sing_h)
            errors = np.mean(fs - fh, axis=1)
            for i, anchor in enumerate(rows):
                constants, error = [c[i] for c in all_samples], errors[i]
                if not keep[i].all():
                    kept = keep[i]
                    if not kept.any():
                        raise EstimationError("every shared sphere sample was singular")
                    constants = _constants_from_values(sv[i][kept], hv[i][kept])
                    error = np.mean(fs[i][kept] - fh[i][kept])
                delta, m, M, segment_min = map(float, constants)
                out.append(
                    BoundReport(
                        anchor=anchor,
                        p=p,
                        delta=delta,
                        m=m,
                        M=M,
                        c_p=bound_constant(p, delta, m, M, dim, radius) if m > 0.0 else np.inf,
                        empirical_error=abs(factor * float(error)),
                        segment_min=segment_min,
                    )
                )
    return [r for per_p in reports for r in per_p]


def bound_summary(reports: list[BoundReport]) -> dict:
    """Aggregate dominance statistics over a batch of reports."""
    ok = [r for r in reports if r.assumptions_ok]
    ratios = [r.empirical_error / r.c_p for r in ok if r.c_p > 0]
    return {
        "n_anchors": len(reports),
        "assumption_ok_fraction": len(ok) / len(reports) if reports else 0.0,
        "max_error_bound_ratio": max(ratios) if ratios else 0.0,
        "violations": sum(r.empirical_error > r.c_p for r in ok),
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


def write_bound_reports_csv(path, reports: list[BoundReport], header_comment: str | None = None) -> None:
    """One CSV row per anchor, coordinates first."""
    if not reports:
        raise ValueError("no reports to write")
    dim = reports[0].anchor.shape[0]
    cols = [f"anchor_{i}" for i in range(dim)] + [
        "p", "delta", "m", "M", "segment_min", "c_p", "empirical_error", "assumptions_ok",
    ]
    rows = (
        [*r.anchor, r.p, r.delta, r.m, r.M, r.segment_min, r.c_p, r.empirical_error, r.assumptions_ok]
        for r in reports
    )
    write_table(path, cols, rows, header_comment)
