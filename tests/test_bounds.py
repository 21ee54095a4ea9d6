import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplace.bounds import (
    _segment_minima,
    bound_constant,
    bound_summary,
    bound_surface,
    estimate_assumption_constants,
    validate_bound,
    write_bound_reports_csv,
)
from plaplace.errors import EstimationError
from plaplace.estimators import EstimatorConfig
from plaplace.fields import constant_field, scale_field, shift_field
from plaplace.geometry import make_rng
from plaplace.gmm import score_field
from plaplace.score_model import reverse_sample
from plaplace.score_model import score_field as model_score_field


class TestBoundConstant:
    def test_p2_both_branches(self):
        # M^0 (p-1) = 1 and m^0 (3-p) = 1 at p = 2
        assert bound_constant(2.0, 0.1, 0.5, 2.0, 2, 1.0) == pytest.approx(0.2, rel=1e-12)

    def test_p3_direct_substitution(self):
        assert bound_constant(3.0, 0.1, 0.5, 2.0, 2, 1.0) == pytest.approx(2 * 0.1 * 2.0 * 2.0, rel=1e-12)

    def test_p1_direct_substitution(self):
        assert bound_constant(1.0, 0.1, 0.5, 2.0, 2, 1.0) == pytest.approx(2 * 0.1 * 2.0 * 2.0, rel=1e-12)

    def test_branch_continuity(self):
        for delta, m, M in [(0.1, 0.5, 2.0), (1.0, 0.01, 30.0)]:
            lo = bound_constant(2.0 - 1e-12, delta, m, M, 2, 1.0)
            hi = bound_constant(2.0 + 1e-12, delta, m, M, 2, 1.0)
            assert abs(hi - lo) <= 1e-10
            assert bound_constant(2.0, delta, m, M, 2, 1.0) == pytest.approx(2 * delta, rel=1e-12)

    def test_monotone_in_delta(self):
        vals = [bound_constant(1.5, d, 0.3, 2.0, 2, 1.0) for d in np.linspace(0.01, 1.0, 20)]
        assert np.all(np.diff(vals) >= 0)

    def test_monotone_in_M_for_large_p(self):
        vals = [bound_constant(3.0, 0.1, 0.3, M, 2, 1.0) for M in np.linspace(0.5, 5.0, 20)]
        assert np.all(np.diff(vals) >= 0)

    def test_antitone_in_m_for_small_p(self):
        vals = [bound_constant(1.0, 0.1, m, 5.0, 2, 1.0) for m in np.linspace(0.05, 2.0, 20)]
        assert np.all(np.diff(vals) <= 0)

    def test_broadcasts_over_constants(self):
        deltas = np.array([[0.1, 0.2, 0.4]])
        ms = np.array([[0.3], [0.5]])
        Ms = np.array([[2.0], [4.0]])
        for p in (1.0, 1.5, 3.0):
            grid = bound_constant(p, deltas, ms, Ms, 2, 1.0)
            assert grid.shape == (2, 3)
            for (i, j), value in np.ndenumerate(grid):
                assert value == bound_constant(p, float(deltas[0, j]), float(ms[i, 0]), float(Ms[i, 0]), 2, 1.0)
        assert isinstance(bound_constant(1.0, 0.1, 0.5, 2.0, 2, 1.0), float)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bound_constant(0.5, 0.1, 0.5, 2.0, 2, 1.0)
        with pytest.raises(ValueError):
            bound_constant(2.0, 0.1, 2.0, 0.5, 2, 1.0)
        with pytest.raises(ValueError):
            bound_constant(2.0, -0.1, 0.5, 2.0, 2, 1.0)
        with pytest.raises(ValueError):
            bound_constant(2.0, np.array([0.1, -0.1]), 0.5, 2.0, 2, 1.0)
        with pytest.raises(ValueError):
            bound_constant(2.0, 0.1, np.array([0.5, 0.0]), 2.0, 2, 1.0)


class TestAssumptionConstants:
    def test_identical_fields(self):
        field = constant_field(np.array([0.6, 0.8]))
        consts = estimate_assumption_constants(field, field, np.zeros(2), 1.0, 50, make_rng(0))
        assert consts.delta == 0.0
        assert consts.m == pytest.approx(1.0, rel=1e-12)
        assert consts.M == pytest.approx(1.0, rel=1e-12)
        assert consts.segment_min == pytest.approx(1.0, rel=1e-12)
        assert consts.assumptions_ok

    def test_colinear_double(self):
        s = constant_field(np.array([1.0, 0.0]))
        s_hat = scale_field(s, 2.0)
        consts = estimate_assumption_constants(s, s_hat, np.zeros(2), 1.0, 50, make_rng(1))
        assert consts.delta == pytest.approx(1.01, rel=1e-12)  # max gap 1, then 1% inflation
        assert consts.m == pytest.approx(1.0, rel=1e-12)
        assert consts.M == pytest.approx(2.0, rel=1e-12)
        assert consts.segment_min == pytest.approx(1.0, rel=1e-12)

    def test_antipodal_fields_violate(self):
        s = constant_field(np.array([1.0, 0.0]))
        s_hat = scale_field(s, -1.0)
        consts = estimate_assumption_constants(s, s_hat, np.zeros(2), 1.0, 50, make_rng(2))
        assert consts.segment_min == pytest.approx(0.0, abs=1e-12)
        assert not consts.assumptions_ok

    def test_grid_brackets_exact_minimum(self):
        rng = make_rng(3)
        sv = rng.standard_normal((200, 2))
        hv = rng.standard_normal((200, 2))
        exact = _segment_minima(sv, hv)
        # endpoints are on the segment, so the exact minimum can't exceed them
        assert np.all(exact <= np.linalg.norm(sv, axis=1) + 1e-12)
        assert np.all(exact <= np.linalg.norm(hv, axis=1) + 1e-12)


class TestValidateBound:
    def test_identical_fields_zero_error(self, default_gmm):
        field = score_field(default_gmm)
        cfg = EstimatorConfig(p=1.0)
        reports = validate_bound(field, field, [[0.0, 0.0], [1.0, 1.0]], cfg, make_rng(4))
        for r in reports:
            assert r.empirical_error == 0.0
            assert r.c_p == 0.0
            assert r.assumptions_ok

    def test_constructed_perturbation_p2(self, default_gmm):
        """Constant offset of norm 0.05: error bounded by (d/R) * inflated delta."""
        s = score_field(default_gmm)
        offset = 0.05 * np.array([0.6, 0.8])
        s_hat = shift_field(s, offset)
        cfg = EstimatorConfig(p=2.0)
        reports = validate_bound(s, s_hat, [[0.5, -0.5]], cfg, make_rng(5))
        (r,) = reports
        assert r.delta == pytest.approx(0.0505, rel=1e-9)
        assert r.empirical_error <= r.c_p
        assert r.c_p == pytest.approx(2.0 * 0.0505, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_oracle_vs_learned_dominance(self, default_gmm, schedule, trained_model, p):
        """The theorem holds exactly on the shared-sample discretization."""
        anchors = reverse_sample(trained_model, schedule, 10, make_rng(6))
        reports = validate_bound(
            score_field(default_gmm),
            model_score_field(trained_model, schedule, 0),
            anchors,
            EstimatorConfig(p=p),
            make_rng(7),
        )
        assert all(r.assumptions_ok for r in reports)
        assert all(r.empirical_error <= r.c_p for r in reports)

    def test_deterministic(self, default_gmm, schedule, trained_model):
        args = (
            score_field(default_gmm),
            model_score_field(trained_model, schedule, 0),
            [[0.0, 0.0], [2.0, 1.0]],
            EstimatorConfig(p=1.0),
        )
        r1 = validate_bound(*args, make_rng(9))
        r2 = validate_bound(*args, make_rng(9))
        assert [(r.delta, r.empirical_error, r.c_p) for r in r1] == [
            (r.delta, r.empirical_error, r.c_p) for r in r2
        ]


def _lattice(lo, hi, step):
    # lattice entries keep a nonzero perturbation well above rounding error
    return st.integers(lo, hi).map(lambda k: k * step)


def _affine(entries):
    """Field x -> A x + b with A and b read row-major from six lattice entries."""
    a = np.array(entries[:4]).reshape(2, 2)
    b = np.array(entries[4:])
    return lambda x: x @ a.T + b


class TestDominanceProperty:
    @given(
        base=st.lists(_lattice(-8, 8, 0.25), min_size=6, max_size=6),
        perturbation=st.lists(_lattice(-4, 4, 0.125), min_size=6, max_size=6),
        anchors=st.lists(_lattice(-8, 8, 0.25), min_size=4, max_size=4),
        p=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_pairs(self, base, perturbation, anchors, p, seed):
        """Zero tolerance: every report whose assumptions hold has error <= c_p."""
        s = _affine(base)
        s_hat = _affine([u + v for u, v in zip(base, perturbation)])
        cfg = EstimatorConfig(p=p, n_samples=32)
        try:
            reports = validate_bound(s, s_hat, np.reshape(anchors, (2, 2)), cfg, make_rng(seed))
        except EstimationError:
            assert p < 2  # a field vanishing on every shared sample leaves nothing to bound
            return
        for r in reports:
            if r.assumptions_ok:
                assert r.empirical_error <= r.c_p


class TestReportsAndSurface:
    def test_summary_and_csv(self, default_gmm, tmp_path):
        s = score_field(default_gmm)
        s_hat = shift_field(s, np.array([0.02, 0.0]))
        reports = validate_bound(s, s_hat, [[0.0, 0.0], [1.0, 2.0]], EstimatorConfig(p=1.0), make_rng(10))
        summary = bound_summary(reports)
        assert summary["n_anchors"] == 2
        assert summary["assumption_ok_fraction"] == 1.0
        assert summary["violations"] == 0
        assert 0.0 <= summary["max_error_bound_ratio"] <= 1.0
        path = tmp_path / "reports.csv"
        write_bound_reports_csv(path, reports, header_comment="test")
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # comment + header + 2 rows

    def test_surface_shape_and_values(self):
        deltas, ms, grid = bound_surface(1.0, 2, 1.0, (0.0, 1.0), (0.1, 1.0), M=2.0, n=8)
        assert grid.shape == (8, 8)
        assert grid[0, 0] == pytest.approx(bound_constant(1.0, deltas[0], ms[0], 2.0, 2, 1.0), rel=1e-12)
        for p in (1.0, 3.0):  # the per-node loop is the reference, exactly
            _, _, surface = bound_surface(p, 2, 1.0, (0.0, 1.0), (0.1, 3.0), M=2.0, n=8)
            loop = [[bound_constant(p, d, m, max(2.0, m), 2, 1.0) for d in deltas] for m in np.linspace(0.1, 3.0, 8)]
            np.testing.assert_array_equal(surface, loop)
        # nondecreasing along delta, nonincreasing along m for p < 2
        assert np.all(np.diff(grid, axis=1) >= 0)
        assert np.all(np.diff(grid, axis=0) <= 0)
