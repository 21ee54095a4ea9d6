import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from plaplace.estimators import SPHERE_BLOCK, EstimatorConfig, estimate_boundary
from plaplace.geometry import make_rng, sample_sphere_uniform
from plaplace.gmm import GmmParams, sample_gmm, score_field
from plaplace.memorization import (
    auc,
    boundary_at_points,
    build_scenario,
    grid_p_laplace,
    make_grid,
    percentile_rank,
    score_norm_criterion,
    write_grid_csv,
)
from plaplace.score_model import TrainConfig
from plaplace.score_model import score_field as model_score_field


class TestScenario:
    def test_default_sizes(self, default_gmm):
        training_set, _ = build_scenario(default_gmm, 1000, 250, make_rng(0))
        assert training_set.shape == (1250, 2)

    def test_zero_replicas_is_base(self, default_gmm):
        training_set, _ = build_scenario(default_gmm, 100, 0, make_rng(1))
        np.testing.assert_array_equal(training_set, sample_gmm(default_gmm, 100, make_rng(1)))

    def test_memorized_point_from_base(self, default_gmm):
        training_set, memorized = build_scenario(default_gmm, 100, 10, make_rng(2))
        assert any(np.array_equal(memorized, row) for row in training_set[:100])
        assert np.all(training_set[100:] == memorized)

    def test_seed_reproducible(self, default_gmm):
        s1, m1 = build_scenario(default_gmm, 50, 5, make_rng(3))
        s2, m2 = build_scenario(default_gmm, 50, 5, make_rng(3))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(m1, m2)

    @pytest.mark.parametrize("n_base, n_replicas", [(1, 0), (7, 3), (200, 50)])
    def test_draws_base_then_one_index_from_its_generator(self, default_gmm, n_base, n_replicas):
        """The base rows are sample_gmm's, the memorized row is the next integer draw, and nothing else is drawn."""
        rng, ref = make_rng(41), make_rng(41)
        training_set, memorized = build_scenario(default_gmm, n_base, n_replicas, rng)
        base = sample_gmm(default_gmm, n_base, ref)
        np.testing.assert_array_equal(training_set[:n_base], base)
        np.testing.assert_array_equal(memorized, base[ref.integers(n_base)])
        assert training_set.shape == (n_base + n_replicas, 2)
        assert np.all(training_set[n_base:] == memorized)
        assert rng.random() == ref.random()

    def test_rejects_empty_base(self, default_gmm):
        rng = make_rng(5)
        with pytest.raises(ValueError, match="n_base"):
            build_scenario(default_gmm, 0, 3, rng)
        assert rng.random() == make_rng(5).random()


class TestGrid:
    def test_make_grid_covers_inflated_box(self, default_gmm):
        grid = make_grid(default_gmm, 10, pad_sigma=2.0)
        pad = 2.0 * np.sqrt(default_gmm.sigma2)
        np.testing.assert_allclose(grid.xs[0], default_gmm.means[:, 0].min() - pad)
        np.testing.assert_allclose(grid.xs[-1], default_gmm.means[:, 0].max() + pad)
        assert grid.points.shape == (100, 2)
        assert grid.shape == (10, 10)

    def test_single_gaussian_p2_constant(self):
        """Pointwise 2-Laplace of one Gaussian is constant; grid values match it."""
        g = GmmParams(means=[[0.0, 0.0]], sigma2=1.0, weights=[1.0])
        grid = make_grid(g, 6, pad_sigma=1.0)
        cfg = EstimatorConfig(p=2.0, n_samples=400)
        [mat] = grid_p_laplace(score_field(g), grid, [cfg], make_rng(0))
        assert np.max(np.abs(mat + 2.0)) < 0.5  # -d/sigma2 up to MC noise

    def test_every_p_matrix_matches_estimate_boundary(self, default_gmm, schedule, trained_model):
        """Bitwise estimate_boundary at each node, for every p, from one draw per node.

        The field vanishes on a strip that crosses some spheres; those samples enter every mean,
        and no estimate skips any.
        """
        learned = model_score_field(trained_model, schedule, 0)
        field = lambda x: np.where(np.abs(x[:, :1] - 0.5) < 0.2, 0.0, learned(x))
        grid = make_grid(default_gmm, 7, 2.0)
        cfgs = [EstimatorConfig(p=p, n_samples=50) for p in (1.0, 2.0, 3.0)]
        mats = grid_p_laplace(field, grid, cfgs, make_rng(17))
        assert mats.shape == (3, 7, 7)
        vanishing = 0
        for cfg, mat in zip(cfgs, mats):
            for value, pt, sub, again in zip(mat.ravel(), grid.points, make_rng(17).spawn(49),
                                             make_rng(17).spawn(49)):
                expected = estimate_boundary(field, pt, cfg, sub)
                assert (expected.n_used, expected.singular_hits) == (cfg.n_samples, 0)
                assert value == expected.value
                ys, _ = sample_sphere_uniform(pt, cfg.radius, cfg.n_samples, again)
                vanishing += np.count_nonzero(np.abs(ys[:, 0] - 0.5) < 0.2)
        assert vanishing > 0

    def test_points_match_per_point_estimates(self):
        """One estimate_boundary per row and p, each row on its own spawned substream in row order, in any dimension."""
        points = make_rng(3).normal(size=(SPHERE_BLOCK + 5, 3))
        field = lambda x: -x
        cfgs = [EstimatorConfig(p=p, n_samples=20) for p in (1.5, 3.0)]
        values = boundary_at_points(field, points, cfgs, make_rng(18))
        assert values.shape == (2, SPHERE_BLOCK + 5)
        for cfg, row in zip(cfgs, values):
            subs = make_rng(18).spawn(SPHERE_BLOCK + 5)
            np.testing.assert_array_equal(row, [estimate_boundary(field, x, cfg, r).value for x, r in zip(points, subs)])

    def test_configs_must_share_the_sphere(self, default_gmm):
        grid = make_grid(default_gmm, 2)
        for cfgs in ([], [EstimatorConfig(p=1.0), EstimatorConfig(p=3.0, radius=2.0)],
                     [EstimatorConfig(p=1.0), EstimatorConfig(p=3.0, n_samples=10)]):
            with pytest.raises(ValueError):
                grid_p_laplace(score_field(default_gmm), grid, cfgs, make_rng(0))

    def test_learned_field_flags_memorized_point(self, default_gmm, schedule, train_once):
        """Replica injection drives the memorized point into the bottom decile.

        The grid minimum itself sits in the sharpest learned density peak,
        which need not be the memorized cell; the percentile is the stable
        detection readout.
        """
        grid = make_grid(default_gmm, 20, 2.0)
        hits = 0
        for seed in range(3):
            training_set, memorized = build_scenario(default_gmm, 1000, 250, make_rng(seed))
            model = train_once(training_set, schedule, TrainConfig(), seed)
            field = model_score_field(model, schedule, 0)
            cfg = EstimatorConfig(p=1.0)
            [mat] = grid_p_laplace(field, grid, [cfg], make_rng(seed + 100))
            mem_val = estimate_boundary(field, memorized, cfg, make_rng(seed + 200)).value
            hits += percentile_rank(mat, mem_val) < 10.0
        assert hits >= 2

    def test_requires_boundary_and_2d(self):
        with pytest.raises(ValueError):
            make_grid(GmmParams(means=[[0.0, 0.0, 0.0]], sigma2=1.0, weights=[1.0]), 4)


class TestPercentileRank:
    def test_below_all(self):
        assert percentile_rank(np.arange(1, 11, dtype=float), 0.0) == 0.0

    def test_median_of_101(self):
        vals = np.arange(101, dtype=float)
        assert percentile_rank(vals, 50.0) == pytest.approx(50.0)

    def test_above_all(self):
        assert percentile_rank(np.arange(10, dtype=float), 99.0) == 100.0

    def test_tie_half_weight(self):
        assert percentile_rank(np.array([1.0, 2.0, 2.0, 3.0]), 2.0) == pytest.approx(100 * (1 + 1.0) / 4)

    def test_uniform_distribution_of_ranks(self):
        """Rank of a same-distribution draw is uniform on [0, 100]."""
        rng = make_rng(23)
        pcts = []
        for _ in range(400):
            grid = rng.uniform(size=99)
            pcts.append(percentile_rank(grid, rng.uniform()) / 100.0)
        assert stats.kstest(pcts, "uniform").pvalue > 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_rank(np.array([]), 1.0)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1.0, 2.0], [3.0, 4.0]) == 1.0

    def test_identical_lists(self):
        assert auc([1.0, 2.0], [1.0, 2.0]) == 0.5

    def test_exhaustive_pair_count(self):
        # pairs: (1,3),(1,4),(2,3),(2,4) all ordered -> 4/4
        assert auc([1, 2], [3, 4]) == pytest.approx(1.0)

    def test_orientation_validation(self):
        with pytest.raises(ValueError):
            auc([], [1.0])

    # lattice values keep tanh injective in floats (subnormals would collapse to ties)
    _lattice = st.integers(-500, 500).map(lambda k: k / 10.0)

    @given(
        mem=st.lists(_lattice, min_size=1, max_size=12),
        bg=st.lists(_lattice, min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_transform_invariance(self, mem, bg):
        base = auc(mem, bg)
        squashed = auc(np.tanh(np.asarray(mem) / 60), np.tanh(np.asarray(bg) / 60))
        assert squashed == pytest.approx(base)


class TestScoreNorm:
    def test_zero_field(self):
        assert np.array_equal(score_norm_criterion(np.zeros_like, np.zeros((1, 2))), [0.0])

    def test_vanishes_at_mode(self):
        g = GmmParams(means=[[1.0, 1.0]], sigma2=2.0, weights=[1.0])
        [value] = score_norm_criterion(score_field(g), np.array([[1.0, 1.0]]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_at_distance(self):
        g = GmmParams(means=[[0.0, 0.0]], sigma2=0.5, weights=[1.0])
        x = np.array([[0.6, 0.8]])  # distance 1 from the mean
        [value] = score_norm_criterion(score_field(g), x)
        assert value == pytest.approx(1.0 / 0.5, rel=1e-12)

    def test_batch_shape(self, default_gmm):
        vals = score_norm_criterion(score_field(default_gmm), np.zeros((5, 2)))
        assert vals.shape == (5,)


def test_write_grid_csv(tmp_path, default_gmm):
    grid = make_grid(default_gmm, 3)
    matrix = np.arange(9, dtype=float).reshape(3, 3)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid, matrix, header_comment="hdr")
    lines = path.read_text().splitlines()
    assert lines[0] == "# hdr" and lines[1] == "x,y,value"
    assert len(lines) == 2 + 9
