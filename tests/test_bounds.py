import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplace import bounds
from plaplace.bounds import (
    _constants_from_values,
    _segment_minima,
    bound_constant,
    bound_summary,
    bound_surface,
    validate_bound,
    write_bound_reports_csv,
)
from plaplace.estimators import SPHERE_BLOCK, EstimatorConfig, _flux_values
from plaplace.geometry import make_rng, sample_sphere_uniform, split_rng
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
        for p in (0.5, float("nan")):
            with pytest.raises(ValueError):
                bound_constant(p, 0.1, 0.5, 2.0, 2, 1.0)
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
        values = np.tile([0.6, 0.8], (50, 1))
        delta, m, M, segment_min = _constants_from_values(values, values)
        assert delta == 0.0
        assert m == pytest.approx(1.0, rel=1e-12)
        assert M == pytest.approx(1.0, rel=1e-12)
        assert segment_min == pytest.approx(1.0, rel=1e-12)

    def test_colinear_double(self):
        sv = np.tile([1.0, 0.0], (50, 1))
        delta, m, M, segment_min = _constants_from_values(sv, 2.0 * sv)
        assert delta == pytest.approx(1.01, rel=1e-12)  # max gap 1, then 1% inflation
        assert m == pytest.approx(1.0, rel=1e-12)
        assert M == pytest.approx(2.0, rel=1e-12)
        assert segment_min == pytest.approx(1.0, rel=1e-12)

    def test_antipodal_fields_violate(self):
        sv = np.tile([1.0, 0.0], (50, 1))
        _, m, _, segment_min = _constants_from_values(sv, -sv)
        assert segment_min == pytest.approx(0.0, abs=1e-12)
        assert m == 0.0
        # The segment through zero voids the assumptions: the report says so and bounds nothing.
        (r,) = validate_bound(
            lambda x: np.tile([1.0, 0.0], (len(x), 1)), lambda x: np.tile([-1.0, 0.0], (len(x), 1)),
            [[0.0, 0.0]], [EstimatorConfig(p=2.0)], make_rng(0),
        )
        assert not r.assumptions_ok
        assert r.c_p == np.inf

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
        reports = validate_bound(field, field, [[0.0, 0.0], [1.0, 1.0]], [cfg], make_rng(4))
        for r in reports:
            assert r.empirical_error == 0.0
            assert r.c_p == 0.0
            assert r.assumptions_ok

    def test_constructed_perturbation_p2(self, default_gmm):
        """Constant offset of norm 0.05: error bounded by (d/R) * inflated delta."""
        s = score_field(default_gmm)
        offset = 0.05 * np.array([0.6, 0.8])
        s_hat = lambda x: s(x) + offset
        cfg = EstimatorConfig(p=2.0)
        reports = validate_bound(s, s_hat, [[0.5, -0.5]], [cfg], make_rng(5))
        (r,) = reports
        assert r.delta == pytest.approx(0.0505, rel=1e-9)
        assert r.empirical_error <= r.c_p
        assert r.c_p == pytest.approx(2.0 * 0.0505, rel=1e-9)

    def test_high_dim_small_radius_finite(self):
        """At d = 64, R = 1e-5 the ball volume underflows, yet the bound and the error stay finite."""
        anchor = np.zeros(64)
        offset = 1e-7 * np.eye(64)[0]
        cfg = EstimatorConfig(p=2.0, radius=1e-5)
        (r,) = validate_bound(lambda x: x - anchor, lambda x: x - anchor + offset, [anchor], [cfg], make_rng(5))
        assert r.assumptions_ok and np.isfinite(r.empirical_error)
        assert r.c_p == (64 / 1e-5) * r.delta
        assert r.empirical_error <= r.c_p

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_oracle_vs_learned_dominance(self, default_gmm, schedule, trained_model, p):
        """The theorem holds exactly on the shared-sample discretization."""
        anchors = reverse_sample(trained_model, schedule, 10, make_rng(6))
        reports = validate_bound(
            score_field(default_gmm),
            model_score_field(trained_model, schedule, 0),
            anchors,
            [EstimatorConfig(p=p)],
            make_rng(7),
        )
        assert all(r.assumptions_ok for r in reports)
        assert all(r.empirical_error <= r.c_p for r in reports)

    def test_one_draw_serves_every_p(self, default_gmm, schedule, trained_model):
        """Bitwise the per-p loop it replaced, where every p redrew each sphere from the same substreams.

        The learned field vanishes on a strip that crosses some spheres.  Those samples enter the
        constants and the error at every p, so those anchors get m = 0 and c_p = inf.
        """
        oracle = score_field(default_gmm)
        learned = model_score_field(trained_model, schedule, 0)
        s_hat = lambda x: np.where((np.abs(x[:, :1] - 0.5) < 0.2), 0.0, learned(x))
        anchors = np.vstack([reverse_sample(trained_model, schedule, SPHERE_BLOCK + 7, make_rng(6)), [[0.5, 0.0]]])
        cfgs = [EstimatorConfig(p=p, n_samples=50) for p in (1.0, 1.5, 2.0, 3.0)]
        reports = validate_bound(oracle, s_hat, anchors, cfgs, make_rng(7))

        expected, vanishing = [], 0
        for cfg in cfgs:
            for anchor, sub in zip(anchors, split_rng(make_rng(7), anchors.shape[0])):
                ys, normals = sample_sphere_uniform(anchor, cfg.radius, cfg.n_samples, sub)
                sv, hv = oracle(ys), s_hat(ys)
                flux_s, flux_h = _flux_values(sv, normals, cfg.p), _flux_values(hv, normals, cfg.p)
                delta, m, M, segment_min = map(float, _constants_from_values(sv, hv))
                vanishing += m == 0.0
                c_p = bound_constant(cfg.p, delta, m, M, 2, cfg.radius) if m > 0.0 else np.inf
                error = abs(2 / cfg.radius * float(np.mean(flux_s - flux_h)))
                expected.append((*anchor, cfg.p, delta, m, M, c_p, error, segment_min))
        assert vanishing > 0
        assert [(*r.anchor, r.p, r.delta, r.m, r.M, r.c_p, r.empirical_error, r.segment_min) for r in reports] == expected

    def test_anchors_are_a_read_only_copy(self):
        anchors = np.zeros((2, 2))
        reports = validate_bound(lambda x: x, lambda x: x + 0.01, anchors, [EstimatorConfig(p=2.0)], make_rng(0))
        anchors[0, 0] = 5.0
        assert reports[0].anchor.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            reports[0].anchor[0] = 5.0

    def test_one_read_only_record_array(self, monkeypatch, tmp_path):
        """Config-major records in the CSV's column order, one ``bound_constant`` call per p."""
        calls = []
        constant = bounds.bound_constant
        monkeypatch.setattr(bounds, "bound_constant", lambda p, *args: calls.append(p) or constant(p, *args))
        n = SPHERE_BLOCK + 3
        anchors = make_rng(1).standard_normal((n, 2))
        cfgs = [EstimatorConfig(p=1.5, n_samples=20), EstimatorConfig(p=3.0, n_samples=20)]
        # s_hat vanishes right of x = 1, so the anchors near it get m = 0
        s_hat = lambda x: np.where(x[:, :1] > 1.0, 0.0, x + 0.3)
        reports = validate_bound(lambda x: x + 0.2, s_hat, anchors, cfgs, make_rng(2))

        assert isinstance(reports, np.recarray) and len(reports) == 2 * n
        write_bound_reports_csv(tmp_path / "reports.csv", reports)
        header = (tmp_path / "reports.csv").read_text().splitlines()[0].split(",")
        assert header == ["anchor_0", "anchor_1", *reports.dtype.names[1:]]
        assert reports.dtype.names == (
            "anchor", "p", "delta", "m", "M", "segment_min", "c_p", "empirical_error", "assumptions_ok",
        )
        for name in reports.dtype.names:
            with pytest.raises(ValueError):
                reports[name] = reports[name].copy()
            with pytest.raises(ValueError):
                setattr(reports[0], name, reports[1][name])
        np.testing.assert_array_equal(reports.assumptions_ok, reports.m > 0)
        assert 0 < np.count_nonzero(reports.assumptions_ok) < 2 * n
        for cfg, per_p in zip(cfgs, reports.reshape(2, -1)):
            assert np.all(per_p.p == cfg.p)
            np.testing.assert_array_equal(per_p.anchor, anchors)
        assert calls == [1.5, 3.0]

    def test_configs_must_share_the_sphere(self, default_gmm):
        field = score_field(default_gmm)
        for cfgs in ([], [EstimatorConfig(p=1.0), EstimatorConfig(p=2.0, radius=0.5)],
                     [EstimatorConfig(p=1.0), EstimatorConfig(p=2.0, n_samples=50)]):
            with pytest.raises(ValueError):
                validate_bound(field, field, [[0.0, 0.0]], cfgs, make_rng(0))

    def test_deterministic(self, default_gmm, schedule, trained_model):
        args = (
            score_field(default_gmm),
            model_score_field(trained_model, schedule, 0),
            [[0.0, 0.0], [2.0, 1.0]],
            [EstimatorConfig(p=1.0)],
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
        reports = validate_bound(s, s_hat, np.reshape(anchors, (2, 2)), [cfg], make_rng(seed))
        for r in reports:
            if r.assumptions_ok:
                assert r.empirical_error <= r.c_p


class TestReportsAndSurface:
    def test_summary_and_csv(self, default_gmm, tmp_path):
        s = score_field(default_gmm)
        s_hat = lambda x: s(x) + np.array([0.02, 0.0])
        reports = validate_bound(s, s_hat, [[0.0, 0.0], [1.0, 2.0]], [EstimatorConfig(p=1.0)], make_rng(10))
        summary = bound_summary(reports)
        assert summary["n_anchors"] == 2
        assert summary["assumption_ok_fraction"] == 1.0
        assert summary["violations"] == 0
        assert 0.0 <= summary["max_error_bound_ratio"] <= 1.0
        path = tmp_path / "reports.csv"
        write_bound_reports_csv(path, reports, header_comment="test")
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # comment + header + 2 rows

    def test_summary_of_antipodal_fields(self):
        """Every anchor fails the assumptions, so nothing is bounded and nothing is violated."""
        reports = validate_bound(
            lambda x: np.tile([1.0, 0.0], (len(x), 1)), lambda x: np.tile([-1.0, 0.0], (len(x), 1)),
            [[0.0, 0.0], [1.0, 2.0]], [EstimatorConfig(p=2.0)], make_rng(0),
        )
        assert bound_summary(reports) == {
            "n_anchors": 2, "assumption_ok_fraction": 0.0, "max_error_bound_ratio": 0.0, "violations": 0,
        }

    def test_summary_of_identical_fields(self, default_gmm):
        """c_p = 0 at every anchor: the ratio skips them, with no RuntimeWarning (the suite raises those)."""
        field = score_field(default_gmm)
        reports = validate_bound(field, field, [[0.0, 0.0], [1.0, 2.0]], [EstimatorConfig(p=1.5)], make_rng(1))
        assert np.all(reports.c_p == 0.0)
        summary = bound_summary(reports)
        assert summary["max_error_bound_ratio"] == 0.0
        assert summary["assumption_ok_fraction"] == 1.0 and summary["violations"] == 0

    def test_csv_of_no_reports_raises(self, tmp_path):
        reports = validate_bound(lambda x: x, lambda x: x + 0.01, [[0.0, 0.0]], [EstimatorConfig(p=2.0)], make_rng(0))
        with pytest.raises(ValueError, match="no reports to write"):
            write_bound_reports_csv(tmp_path / "reports.csv", reports[:0])

    def test_surface_shape_and_values(self):
        deltas, ms, grid = bound_surface(1.0, 2, 1.0, (0.0, 1.0), (0.1, 1.0), M=2.0, n=8)
        assert grid.shape == (8, 8)
        assert grid[0, 0] == pytest.approx(bound_constant(1.0, deltas[0], ms[0], 2.0, 2, 1.0), rel=1e-12)
        for p in (1.0, 1.5, 3.0):  # the per-node loop is the reference, exactly
            _, _, surface = bound_surface(p, 2, 1.0, (0.0, 1.0), (0.1, 3.0), M=2.0, n=8)
            loop = [[bound_constant(p, d, m, max(2.0, m), 2, 1.0) for d in deltas] for m in np.linspace(0.1, 3.0, 8)]
            np.testing.assert_array_equal(surface, loop)
        # nondecreasing along delta, nonincreasing along m for p < 2
        assert np.all(np.diff(grid, axis=1) >= 0)
        assert np.all(np.diff(grid, axis=0) <= 0)
