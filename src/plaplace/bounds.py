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
from typing import NamedTuple

import numpy as np

from .errors import EstimationError
from .estimators import EstimatorConfig, _flux_values
from .fields import ScoreField
from .geometry import BallSpec, ball_volume, sample_sphere_uniform, sphere_area, split_rng
from .tables import write_table

__all__ = [
    "AssumptionConstants",
    "BoundReport",
    "bound_constant",
    "estimate_assumption_constants",
    "validate_bound",
    "bound_summary",
    "bound_surface",
    "write_bound_reports_csv",
]


class AssumptionConstants(NamedTuple):
    delta: float
    m: float
    M: float
    segment_min: float
    assumptions_ok: bool


@dataclass(frozen=True)
class BoundReport:
    """Per-anchor record of measured constants, bound, and observed error."""

    anchor: np.ndarray
    p: float
    delta: float
    m: float
    M: float
    c_p: float
    empirical_error: float
    assumptions_ok: bool
    segment_min: float


def bound_constant(
    p: float, delta: float | np.ndarray, m: float | np.ndarray, M: float | np.ndarray, dim: int, radius: float
) -> float | np.ndarray:
    """The flux-difference bound, surface/volume factor included.

    ``delta``, ``m`` and ``M`` broadcast against each other; scalar inputs
    give a float.  Continuous in p at p = 2, where both branches reduce to
    (dim/radius) * delta.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if np.any(np.less(delta, 0)):
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not np.all(np.less(0, m) & np.less_equal(m, M)):
        raise ValueError(f"need 0 < m <= M, got m={m}, M={M}")
    factor = sphere_area(dim, radius) / ball_volume(dim, radius)
    if p >= 2:
        c_p = factor * delta * M ** (p - 2.0) * (p - 1.0)
    else:
        c_p = factor * delta * m ** (p - 2.0) * (3.0 - p)
    return float(c_p) if np.ndim(c_p) == 0 else c_p


def _segment_minima(sv: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Per-pair minimum of |t*s + (1-t)*s_hat| over t in [0, 1].

    The squared norm is quadratic in t, so the exact minimizer is closed-form.
    """
    dvec = sv - hv
    dsq = np.sum(dvec * dvec, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_star = np.where(dsq > 0, -np.sum(hv * dvec, axis=1) / np.maximum(dsq, 1e-300), 0.0)
    t_star = np.clip(t_star, 0.0, 1.0)
    return np.linalg.norm(hv + t_star[:, None] * dvec, axis=1)


def _constants_from_values(sv: np.ndarray, hv: np.ndarray) -> AssumptionConstants:
    sn = np.linalg.norm(sv, axis=1)
    hn = np.linalg.norm(hv, axis=1)
    # 1% inflation keeps the strict inequality of the closeness assumption.
    delta = 1.01 * float(np.max(np.linalg.norm(sv - hv, axis=1)))
    M = float(max(sn.max(), hn.max()))
    segment_min = float(_segment_minima(sv, hv).min())
    m = float(min(sn.min(), hn.min(), segment_min))
    return AssumptionConstants(delta=delta, m=m, M=M, segment_min=segment_min, assumptions_ok=m > 0.0)


def estimate_assumption_constants(
    s: ScoreField,
    s_hat: ScoreField,
    anchor,
    radius: float,
    n_samples: int,
    rng: np.random.Generator,
) -> AssumptionConstants:
    """Measure (delta, m, M) for two fields over shared sphere samples.

    m is taken from the exact per-pair segment minimum, so it is a true lower
    bound for the mean-value argument.
    """
    anchor = np.asarray(anchor, dtype=float)
    ys, _ = sample_sphere_uniform(BallSpec.around(anchor, radius), n_samples, rng)
    return _constants_from_values(s(ys), s_hat(ys))


def validate_bound(
    s: ScoreField,
    s_hat: ScoreField,
    anchors,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> list[BoundReport]:
    """One BoundReport per anchor, both flux averages on the same sample set.

    Sharing the samples makes the empirical error the Monte Carlo estimate of
    the integral difference the bound controls, so dominance is a theorem for
    the discretized quantities, not a statistical statement.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    dim = anchors.shape[1]
    factor = sphere_area(dim, cfg.radius) / ball_volume(dim, cfg.radius)
    reports = []
    for anchor, sub in zip(anchors, split_rng(rng, anchors.shape[0])):
        ys, normals = sample_sphere_uniform(BallSpec.around(anchor, cfg.radius), cfg.n_samples, sub)
        sv, hv = s(ys), s_hat(ys)
        flux_s, sing_s = _flux_values(sv, normals, cfg.p)
        flux_h, sing_h = _flux_values(hv, normals, cfg.p)
        keep = ~(sing_s | sing_h)
        if not np.any(keep):
            raise EstimationError("every shared sphere sample was singular")
        consts = _constants_from_values(sv[keep], hv[keep])
        empirical_error = abs(factor * float(np.mean(flux_s[keep] - flux_h[keep])))
        if consts.assumptions_ok:
            c_p = bound_constant(cfg.p, consts.delta, consts.m, consts.M, dim, cfg.radius)
        else:
            c_p = np.inf
        reports.append(
            BoundReport(
                anchor=anchor,
                p=cfg.p,
                delta=consts.delta,
                m=consts.m,
                M=consts.M,
                c_p=c_p,
                empirical_error=empirical_error,
                assumptions_ok=consts.assumptions_ok,
                segment_min=consts.segment_min,
            )
        )
    return reports


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
