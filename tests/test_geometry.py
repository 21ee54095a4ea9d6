import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from plaplace.bounds import bound_constant
from plaplace.estimators import EstimatorConfig, estimate_boundary
from plaplace.geometry import make_rng, sample_ball_uniform, sample_sphere_uniform
from plaplace.gmm import CHUNK, averaged_p_laplace_dense, draw_gmm


def _measure_ratio(dim, radius):
    """|dB_R| / |B_R| from the Gamma-function formulas, in log space."""
    log_area = math.log(2.0) + 0.5 * dim * math.log(math.pi) + (dim - 1) * math.log(radius) - math.lgamma(dim / 2.0)
    log_volume = 0.5 * dim * math.log(math.pi) + dim * math.log(radius) - math.lgamma(dim / 2.0 + 1.0)
    return math.exp(log_area - log_volume)


def _applied_factors(dim, radius):
    """The surface/volume factor as the boundary estimator and the bound apply it."""
    center = np.linspace(-1.0, 1.0, dim)
    # p = 2 and the unit outward field (x - center) / R: every flux sample is 1
    cfg = EstimatorConfig(p=2.0, radius=radius, n_samples=8)
    est = estimate_boundary(lambda x: (x - center) / radius, center, cfg, make_rng(dim))
    return est.value, bound_constant(2.0, 1.0, 1.0, 1.0, dim, radius)


class TestMeasures:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_ratio_identity_all_dims(self, radius):
        for dim in range(1, 65):
            for factor in _applied_factors(dim, radius):
                assert factor == pytest.approx(_measure_ratio(dim, radius), rel=1e-10)

    @given(dim=st.integers(1, 64), radius=st.floats(0.1, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_ratio_identity_property(self, dim, radius):
        for factor in _applied_factors(dim, radius):
            assert factor == pytest.approx(_measure_ratio(dim, radius), rel=1e-10)


def _dense_reference(center, radius, n, rng):
    return averaged_p_laplace_dense(draw_gmm(), center, [1.0, 2.0], radius, n, rng)


@pytest.mark.parametrize("sampler", [sample_sphere_uniform, sample_ball_uniform, _dense_reference])
@pytest.mark.parametrize("center,radius,n", [
    (np.zeros((1, 2)), 1.0, 5),
    (np.zeros(0), 1.0, 5),
    (np.zeros(2), -1.0, 5),
    (np.zeros(2), 0.0, 5),
    (np.zeros(2), 1.0, 0),
], ids=["2d_center", "empty_center", "negative_radius", "zero_radius", "zero_n"])
def test_samplers_reject_bad_ball(sampler, center, radius, n):
    """A bad center, radius or count raises before the generator draws anything."""
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sampler(center, radius, n, rng)
    assert rng.random() == make_rng(0).random()


def test_dense_reference_rejects_empty_p_values():
    """An empty list of p raises before the dense reference draws anything."""
    rng = make_rng(0)
    with pytest.raises(ValueError, match="p_values"):
        averaged_p_laplace_dense(draw_gmm(), [0.0, 0.0], [], 1.0, 200_000, rng)
    assert rng.random() == make_rng(0).random()


class TestSphereSampling:
    def test_points_on_sphere(self):
        center, radius = np.array([1.0, -2.0, 0.5]), 1.7
        points, normals = sample_sphere_uniform(center, radius, 500, make_rng(3))
        radii = np.linalg.norm(points - center, axis=1)
        np.testing.assert_allclose(radii / radius, 1.0, rtol=1e-12)
        # outward normal: unit length and aligned with (point - center) / radius
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=1e-12)
        dots = np.sum(normals * (points - center), axis=1) / radius
        np.testing.assert_allclose(dots, 1.0, rtol=1e-12)

    def test_mean_converges_to_center(self):
        points, _ = sample_sphere_uniform([0.0, 0.0], 1.0, 100_000, make_rng(11))
        # per-coordinate std of the mean is (1/sqrt(2)) / sqrt(n) ~ 0.0022
        assert np.all(np.abs(points.mean(axis=0)) < 0.02)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample_sphere_uniform([0.0], 1.0, 0, make_rng(0))
        with pytest.raises(ValueError):
            sample_ball_uniform([0.0], 1.0, 0, make_rng(0))


class TestBallSampling:
    def test_containment(self):
        xs = sample_ball_uniform([2.0, 2.0], 0.8, 2000, make_rng(5))
        assert np.all(np.linalg.norm(xs - [2.0, 2.0], axis=1) <= 0.8 * (1 + 1e-12))

    def test_disk_area_fraction(self):
        xs = sample_ball_uniform([0.0, 0.0], 1.0, 100_000, make_rng(7))
        frac = np.mean(np.linalg.norm(xs, axis=1) <= 0.5)
        assert frac == pytest.approx(0.25, abs=0.01)

    def test_1d_mean_abs(self):
        xs = sample_ball_uniform([0.0], 1.0, 100_000, make_rng(9))
        assert np.mean(np.abs(xs)) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_direction_law(self, dim):
        """x_1 / |x| is arcsine-distributed on the disk and uniform on [-1, 1] in the 3-ball; KS below 1% critical."""
        xs = sample_ball_uniform(np.zeros(dim), 1.5, 10_000, make_rng(31 + dim))
        cosines = xs[:, 0] / np.linalg.norm(xs, axis=1)
        cdf = stats.arcsine(loc=-1.0, scale=2.0).cdf if dim == 2 else stats.uniform(loc=-1.0, scale=2.0).cdf
        assert stats.kstest(cosines, cdf).statistic < 1.63 / np.sqrt(10_000)

    def test_direction_independent_of_radius(self):
        """Directions in the inner and outer equal-volume halves of the 3-ball share one law (two-sample KS)."""
        dim, radius = 3, 1.5
        xs = sample_ball_uniform(np.zeros(dim), radius, 20_000, make_rng(37))
        radii = np.linalg.norm(xs, axis=1)
        cosines = xs[:, 0] / radii
        inner = radii <= radius * 0.5 ** (1.0 / dim)
        assert stats.ks_2samp(cosines[inner], cosines[~inner]).pvalue > 0.01

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_second_moment(self, dim):
        """E[x_i^2] = R^2 / (d + 2) in every coordinate, within 4 R^2 / sqrt(n)."""
        radius, n = 1.5, 20_000
        xs = sample_ball_uniform(np.zeros(dim), radius, n, make_rng(41 + dim))
        np.testing.assert_allclose(np.mean(xs**2, axis=0), radius**2 / (dim + 2), rtol=0, atol=4 * radius**2 / np.sqrt(n))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_radial_cdf(self, dim):
        """Radius has CDF (r/R)^dim; KS statistic below the 1% critical value."""
        radius = 1.5
        xs = sample_ball_uniform(np.zeros(dim), radius, 10_000, make_rng(13 + dim))
        radii = np.linalg.norm(xs, axis=1)
        stat = stats.kstest(radii, lambda r: (r / radius) ** dim).statistic
        assert stat < 1.63 / np.sqrt(10_000)


class TestBallBlocks:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [2 * CHUNK + 17, 100], ids=["three_blocks", "one_block"])
    def test_blocks_are_the_one_piece_draw(self, dim, n):
        """Consecutive CHUNK-row calls are the one-piece sample bit for bit, and the generator ends in the same place."""
        center = np.linspace(-1.0, 2.0, dim)
        rng, one_rng = make_rng(23 + dim), make_rng(23 + dim)
        blocks = [sample_ball_uniform(center, 1.3, min(CHUNK, n - start), rng) for start in range(0, n, CHUNK)]
        np.testing.assert_array_equal(np.concatenate(blocks), sample_ball_uniform(center, 1.3, n, one_rng))
        assert rng.random() == one_rng.random()


class TestDeterminism:
    def test_identical_seeds_bitwise(self):
        center = [0.0, 1.0]
        a1, n1 = sample_sphere_uniform(center, 2.0, 64, make_rng(42))
        a2, n2 = sample_sphere_uniform(center, 2.0, 64, make_rng(42))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(n1, n2)
        b1 = sample_ball_uniform(center, 2.0, 64, make_rng(42))
        b2 = sample_ball_uniform(center, 2.0, 64, make_rng(42))
        np.testing.assert_array_equal(b1, b2)

    def test_substreams_independent_and_reproducible(self):
        streams1 = make_rng(0).spawn(3)
        streams2 = make_rng(0).spawn(3)
        draws1 = [s.standard_normal(4) for s in streams1]
        draws2 = [s.standard_normal(4) for s in streams2]
        for d1, d2 in zip(draws1, draws2):
            np.testing.assert_array_equal(d1, d2)
        assert not np.array_equal(draws1[0], draws1[1])

    def test_per_block_spawns_continue_one_split(self):
        """Successive spawns from one generator hand out consecutive keys, so spawning per block changes no stream."""
        rng = make_rng(0)
        per_block = rng.spawn(32) + rng.spawn(32) + rng.spawn(5)
        up_front = make_rng(0).spawn(69)
        for a, b in zip(per_block, up_front, strict=True):
            np.testing.assert_array_equal(a.standard_normal(4), b.standard_normal(4))
