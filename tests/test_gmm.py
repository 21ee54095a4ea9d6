import math

import numpy as np
import pytest

from plaplace.estimators import PLaplaceEstimate, _divergence_values, _reduce
from plaplace.geometry import make_rng, sample_ball_uniform
from plaplace.gmm import (
    CHUNK,
    GmmParams,
    averaged_p_laplace_dense,
    draw_gmm,
    log_density,
    perturb,
    sample_gmm,
    score,
    score_field,
    _p_laplace_parts,
    _p_laplace_values,
)


@pytest.fixture(scope="module")
def random_gmm():
    return draw_gmm(n_components=3, rng=make_rng(21))


def single(mean, sigma2=1.0):
    return GmmParams(means=[mean], sigma2=sigma2, weights=[1.0])


def block_merge(blocks):
    """The dense reference's estimate from its blocks' values.

    Every value is shifted by the mean of the first block.  Each block gives its count, shifted sum
    and sum of squared deviations about its own mean; the mean is the correctly rounded shifted total
    over N plus the shift, and the merged M2 adds each block's n_b * (mean_b - mean)^2 (Chan, Golub
    and LeVeque)."""
    shift = float(blocks[0].mean())
    sums = [float((b - shift).sum()) for b in blocks]
    m2s = [float(np.sum((b - shift - total / b.size) ** 2)) for b, total in zip(blocks, sums)]
    n_used = sum(b.size for b in blocks)
    mean = math.fsum(sums) / n_used
    m2 = math.fsum(m2s + [b.size * (total / b.size - mean) ** 2 for b, total in zip(blocks, sums)])
    return PLaplaceEstimate(shift + mean, math.sqrt(m2 / (n_used - 1)) / math.sqrt(n_used), n_used, 0)


def assert_block_merge_of_one_piece(g, x0, chunk, n):
    """The dense reference at p in {1, 1.5, 2, 3} against ``block_merge`` of the one-piece parts, sliced into
    ``chunk``-row blocks; returns the dense estimates."""
    p_values = [1.0, 1.5, 2.0, 3.0]
    dense = averaged_p_laplace_dense(g, x0, p_values, 1.0, n, make_rng(19))
    parts = _p_laplace_parts(g, sample_ball_uniform(x0, 1.0, n, make_rng(19)))
    assert len(dense) == len(p_values)
    for p, got in zip(p_values, dense):
        values = _p_laplace_values(*parts, p)
        assert got == block_merge([values[i : i + chunk] for i in range(0, n, chunk)])
    return dense


def fd_hessian(g, x, h=1e-5):
    """Central difference of the analytic score: entry [..., i, j] is d s_i / d x_j."""
    return np.stack([(score(g, x + e) - score(g, x - e)) / (2 * h) for e in h * np.eye(g.dim)], axis=-1)


def pointwise(g, x, p):
    """The exact pointwise p-Laplace: the kernel the dense reference averages."""
    values = _p_laplace_values(*_p_laplace_parts(g, np.asarray(x, dtype=float)), p)
    return float(values) if values.ndim == 0 else values


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmParams(means=[[0.0], [1.0]], sigma2=1.0, weights=[0.6, 0.6])

    def test_weights_positive(self):
        with pytest.raises(ValueError):
            GmmParams(means=[[0.0], [1.0]], sigma2=1.0, weights=[1.2, -0.2])

    @pytest.mark.parametrize("means", [[0.0, 1.0], 0.0, [[[0.0, 1.0]]]], ids=["(K,)", "scalar", "(1, 1, 2)"])
    def test_means_must_be_k_by_d(self, means):
        """(K,) means are not one K-dimensional component: means must be (K, d)."""
        with pytest.raises(ValueError, match=r"\(K, d\)"):
            GmmParams(means=means, sigma2=1.0, weights=[1.0])

    def test_sigma2_positive(self):
        for sigma2 in (0.0, float("nan")):
            with pytest.raises(ValueError):
                GmmParams(means=[[0.0]], sigma2=sigma2, weights=[1.0])

    def test_arrays_read_only(self):
        means = np.array([[0.0, 0.0], [1.0, 1.0]])
        weights = np.array([0.5, 0.5])
        g = GmmParams(means=means, sigma2=1.0, weights=weights)
        with pytest.raises(ValueError):
            g.means[0, 0] = 9.0
        with pytest.raises(ValueError):
            g.weights[0] = 0.9
        means[0, 0] = 9.0  # the caller's own array is copied, not frozen
        weights[0] = 0.9
        assert g.means[0, 0] == 0.0 and g.weights[0] == 0.5

    @pytest.mark.parametrize("shape", [(3, 1), (1,), (), (3, 3), (2, 2, 3)])
    def test_points_of_the_wrong_width_rejected(self, random_gmm, shape):
        """Points must be (..., d): a narrower or wider last axis, or a scalar, would broadcast against the means."""
        for fn in (score, log_density):
            with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
                fn(random_gmm, np.ones(shape))

    def test_batched_points_accepted(self, random_gmm):
        x = make_rng(3).standard_normal((4, 5, 2))
        assert score(random_gmm, x).shape == (4, 5, 2) and log_density(random_gmm, x).shape == (4, 5)
        np.testing.assert_array_equal(score(random_gmm, x)[1], score(random_gmm, x[1]))

    def test_perturbed_alpha_range(self):
        base = single([0.0, 0.0])
        with pytest.raises(ValueError):
            perturb(base, 1.0)
        assert perturb(base, 0.0).sigma2 == base.sigma2


class TestLogDensity:
    def test_mode_value_single_component(self):
        g = single([1.5, -2.0], sigma2=0.7)
        d = 2
        expected = -0.5 * d * np.log(2 * np.pi * 0.7)
        assert log_density(g, np.array([1.5, -2.0])) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_pair_at_origin(self):
        """Two mirrored components at the origin match one component at that distance."""
        mu = np.array([2.0, 1.0])
        pair = GmmParams(means=[mu, -mu], sigma2=1.3, weights=[0.5, 0.5])
        lone = single([np.linalg.norm(mu), 0.0], sigma2=1.3)
        at_origin = log_density(pair, np.zeros(2))
        assert at_origin == pytest.approx(log_density(lone, np.zeros(2)), rel=1e-12)

    def test_far_from_every_mean(self):
        """1e3 from the mean the max-shifted log-sum-exp holds; a shift-free one reads log(0) = -inf there."""
        g = single([1.5, -2.0], sigma2=0.7)
        x = np.array([1.5 + 600.0, -2.0 + 800.0])  # |x - mean| = 1e3 exactly
        expected = -np.log(2 * np.pi * 0.7) - 0.5 * 1e6 / 0.7
        assert log_density(g, x) == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(log_density(g, np.stack([x, x])), expected, rtol=1e-12)

    def test_matches_direct_summation(self, random_gmm):
        """Log-sum-exp path agrees with naive density summation."""
        rng = make_rng(2)
        xs = rng.uniform(-6, 6, size=(50, 2))
        d = random_gmm.dim
        norm = (2 * np.pi * random_gmm.sigma2) ** (-d / 2)
        for x in xs:
            dens = sum(
                w * norm * np.exp(-np.sum((x - mu) ** 2) / (2 * random_gmm.sigma2))
                for w, mu in zip(random_gmm.weights, random_gmm.means)
            )
            assert log_density(random_gmm, x) == pytest.approx(np.log(dens), abs=1e-10)

    def test_batched_matches_scalar(self, random_gmm):
        xs = make_rng(3).uniform(-5, 5, size=(10, 2))
        batch = log_density(random_gmm, xs)
        for x, v in zip(xs, batch):
            assert log_density(random_gmm, x) == pytest.approx(v, rel=1e-14)


class TestScore:
    def test_single_component_closed_form(self):
        g = single([1.0, -1.0], sigma2=0.5)
        x = np.array([0.2, 0.4])
        np.testing.assert_allclose(score(g, x), (np.array([1.0, -1.0]) - x) / 0.5, rtol=1e-14)

    def test_zero_at_symmetric_center(self):
        mu = np.array([3.0, 0.0])
        pair = GmmParams(means=[mu, -mu], sigma2=1.0, weights=[0.5, 0.5])
        np.testing.assert_allclose(score(pair, np.zeros(2)), 0.0, atol=1e-10)

    def test_matches_finite_difference(self, random_gmm):
        rng = make_rng(4)
        xs = rng.uniform(-6, 6, size=(100, 2))
        h = 1e-5
        eye = np.eye(2)
        for x in xs:
            fd = np.array(
                [(log_density(random_gmm, x + h * e) - log_density(random_gmm, x - h * e)) / (2 * h) for e in eye]
            )
            s = score(random_gmm, x)
            assert np.linalg.norm(s - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)

    @pytest.mark.parametrize("one_point", [False, True], ids=["batch", "point"])
    @pytest.mark.parametrize("sigma2", [1.0, 0.37])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_shared_kernel_score(self, d, k, sigma2, one_point):
        """score and the Hessian/p-Laplace kernel share one route, so their scores agree bit for bit."""
        g = draw_gmm(n_components=k, dim=d, sigma2=sigma2, rng=make_rng(d + 10 * k))
        xs = make_rng(8).uniform(-4, 4, size=(25, d))
        x = xs[0] if one_point else xs
        np.testing.assert_array_equal(score(g, x), _p_laplace_parts(g, x)[0])


class TestHessian:
    """The Laplacian and s^T H s parts against a central difference of the score, which shares none of their code."""

    def test_single_component_is_isotropic(self):
        g = single([0.0, 0.0], sigma2=2.0)
        x = np.array([0.7, -0.3])
        s, lap, quad = _p_laplace_parts(g, x)
        assert lap == pytest.approx(-2 / 2.0, rel=1e-14)
        assert quad == pytest.approx(-(s @ s) / 2.0, rel=1e-14)
        np.testing.assert_allclose(fd_hessian(g, x), -np.eye(2) / 2.0, atol=1e-9)

    def test_symmetric_and_trace(self):
        """Batched and at one point: the difference Hessian is symmetric, its trace is the Laplacian and its
        quadratic form in s is s^T H s."""
        for d in (1, 2, 3):
            for k in (1, 3):
                g = draw_gmm(n_components=k, dim=d, sigma2=0.7, rng=make_rng(d + 10 * k))
                xs = make_rng(7).uniform(-4, 4, size=(25, d))
                for x in (xs, xs[0]):
                    s, lap, quad = _p_laplace_parts(g, x)
                    h = fd_hessian(g, x)
                    np.testing.assert_allclose(h, np.swapaxes(h, -1, -2), rtol=1e-6, atol=1e-9)
                    np.testing.assert_allclose(lap, np.trace(h, axis1=-2, axis2=-1), rtol=1e-6)
                    np.testing.assert_allclose(quad, np.einsum("...i,...ij,...j->...", s, h, s), rtol=1e-6)


class TestPointwisePLaplace:
    def test_p2_single_gaussian(self):
        g = single([1.0, 2.0], sigma2=0.5)
        x = np.array([0.3, 0.4])
        assert pointwise(g, x, 2.0) == pytest.approx(-2 / 0.5, rel=1e-12)

    @pytest.mark.parametrize("p,expected", [(2.0, -1.0), (3.0, 0.0)])
    def test_critical_point_p_at_least_2(self, p, expected):
        """At a zero of the score, p = 2 gives the Laplacian and p > 2 gives 0: |s|^2 must not underflow to 0/0."""
        g = GmmParams(means=[[-1.0, 0.0], [1.0, 0.0]], sigma2=1.0, weights=[0.5, 0.5])
        assert np.array_equal(score(g, [0.0, 0.0]), [0.0, 0.0])
        [value] = pointwise(g, [[0.0, 0.0]], p)
        assert value == pytest.approx(expected, abs=1e-100)

    def test_p2_equals_hessian_trace(self, random_gmm):
        xs = make_rng(8).uniform(-5, 5, size=(30, 2))
        trace = np.trace(fd_hessian(random_gmm, xs), axis1=-2, axis2=-1)
        np.testing.assert_allclose(pointwise(random_gmm, xs, 2.0), trace, rtol=1e-6, atol=1e-8)

    def test_p1_single_gaussian_closed_form(self):
        """For one Gaussian the 1-Laplace is -(d-1)/distance; also agrees with FD divergence."""
        mu = np.array([1.0, -2.0])
        g = single(mu, sigma2=0.8)
        x = np.array([2.5, 0.5])
        r = np.linalg.norm(x - mu)
        val = pointwise(g, x, 1.0)
        assert val == pytest.approx(-1.0 / r, rel=1e-12)
        [fd] = _divergence_values(score_field(g), x[None, :], 1.0, 1e-3)
        assert val == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_matches_fd_divergence(self, random_gmm, p):
        rng = make_rng(10)
        field = score_field(random_gmm)
        count = 0
        while count < 20:
            x = rng.uniform(-6, 6, size=2)
            if np.linalg.norm(score(random_gmm, x)) <= 0.1:
                continue
            count += 1
            exact = pointwise(random_gmm, x, p)
            [fd] = _divergence_values(field, x[None, :], p, 1e-3)
            assert exact == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("a", [-2.0, 0.5, 3.0, 1e-12, -1e12])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_homogeneity(self, random_gmm, a, p):
        """The integrand of the potential a*u: score a*s, Laplacian a*lap, quadratic form a^3*quad."""
        xs = make_rng(12).uniform(-5, 5, size=(20, 2))
        base = pointwise(random_gmm, xs, p)
        s, lap, quad = _p_laplace_parts(random_gmm, xs)
        scaled = _p_laplace_values(a * s, a * lap, a**3 * quad, p)
        np.testing.assert_allclose(scaled, a * abs(a) ** (p - 2.0) * base, rtol=1e-8)

    def test_p_below_one_rejected(self, random_gmm):
        """The dense reference rejects a p below 1 or NaN anywhere in its list, as EstimatorConfig does, before any draw."""
        for p in (0.5, float("nan")):
            rng = make_rng(0)
            with pytest.raises(ValueError, match="p must be >= 1"):
                averaged_p_laplace_dense(random_gmm, np.ones(2), [2.0, p], 1.0, 1000, rng)
            assert rng.bit_generator.state == make_rng(0).bit_generator.state


class TestPerturbed:
    def test_perturbation_shrinks_means_and_mixes_variance(self):
        base = GmmParams(means=[[4.0, 0.0], [-4.0, 0.0]], sigma2=0.5, weights=[0.5, 0.5])
        pert = perturb(base, 0.36)
        np.testing.assert_allclose(pert.means, 0.8 * base.means, rtol=1e-14)
        assert pert.sigma2 == pytest.approx(0.64 * 0.5 + 0.36, rel=1e-14)

    def test_matches_corrupted_sample_moments(self):
        base = single([2.0, 2.0], sigma2=1.5)
        alpha = 0.3
        rng = make_rng(14)
        x0 = sample_gmm(base, 200_000, rng)
        xt = np.sqrt(1 - alpha) * x0 + np.sqrt(alpha) * rng.standard_normal(x0.shape)
        pert = perturb(base, alpha)
        np.testing.assert_allclose(xt.mean(axis=0), pert.means[0], atol=0.02)
        np.testing.assert_allclose(xt.var(axis=0), pert.sigma2, atol=0.03)


class TestSamplingAndSerialization:
    def test_sample_moments(self, random_gmm):
        xs = sample_gmm(random_gmm, 200_000, make_rng(16))
        expected_mean = np.sum(random_gmm.weights[:, None] * random_gmm.means, axis=0)
        np.testing.assert_allclose(xs.mean(axis=0), expected_mean, atol=0.03)

    def test_draw_gmm_deterministic(self):
        np.testing.assert_array_equal(draw_gmm(rng=make_rng(7)).means, draw_gmm(rng=make_rng(7)).means)


class TestDenseAverage:
    def test_constant_integrand_single_gaussian(self):
        g = single([0.0, 0.0], sigma2=0.5)
        [est] = averaged_p_laplace_dense(g, [3.0, 0.0], [2.0], 1.0, 5000, make_rng(18))
        assert est.value == pytest.approx(-4.0, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-10)
        assert est.n_used == 5000 and est.singular_hits == 0

    def test_chunks_and_shared_draw_match_one_piece(self, random_gmm):
        """Every p reduces the same draw, bit for bit as a block merge of the parts taken in one piece."""
        dense = assert_block_merge_of_one_piece(random_gmm, random_gmm.means[0], CHUNK, 2 * CHUNK + 17)
        assert all((est.n_used, est.singular_hits) == (2 * CHUNK + 17, 0) for est in dense)

    def test_matches_one_piece_reduce(self, random_gmm):
        """The block merge agrees with numpy's one-piece mean and standard deviation at every p.

        The two sum in different orders, so the test allows rtol 1e-14; on this draw the largest
        difference is 1.5e-16 relative (the std error at p = 1.5), a margin of 65x."""
        n, x0, p_values = 250_000, random_gmm.means[0], [1.0, 1.5, 2.0, 3.0]
        dense = averaged_p_laplace_dense(random_gmm, x0, p_values, 1.0, n, make_rng(23))
        parts = _p_laplace_parts(random_gmm, sample_ball_uniform(x0, 1.0, n, make_rng(23)))
        for p, got in zip(p_values, dense):
            ref = _reduce(_p_laplace_values(*parts, p), 1.0)
            assert (got.n_used, got.singular_hits) == (ref.n_used, ref.singular_hits)
            assert got.value == pytest.approx(ref.value, rel=1e-14, abs=0)
            assert got.std_error == pytest.approx(ref.std_error, rel=1e-14, abs=0)

    def test_std_error_of_tiny_values(self):
        """At a single Gaussian's mean, sigma2 = 1e100 scales the p = 3 values to about 1e-200, whose squares
        underflow.  Each block's deviations are scaled by a power of two before they are squared, so the value and
        the std error still match sigma2 = 1 once multiplied by sigma2^(p-1); unscaled, the std error read 0.0."""
        unit, tiny = (averaged_p_laplace_dense(single([0.0, 0.0], sigma2), np.zeros(2), [1.0, 3.0], 1.0, 20_000,
                                               make_rng(3)) for sigma2 in (1.0, 1e100))
        for p, expected, got in zip([1.0, 3.0], unit, tiny):
            factor = 1e100 ** (p - 1)
            assert got.value * factor == pytest.approx(expected.value, rel=1e-12, abs=0)
            assert got.std_error * factor == pytest.approx(expected.std_error, rel=1e-12, abs=0)
        assert tiny[1].std_error > 0

    def test_working_set_is_one_block(self, default_gmm, traced_peak):
        """Samples, parts and values live one block at a time, so the peak does not grow with n.

        With three p at d = 2 the tracemalloc peak is 1.91 MB at 100k points and 1.95 MB at 1M,
        so at most 3 MB at either (the per-point bound this replaces allowed 5 MB at 100k)."""
        for n in (100_000, 1_000_000):
            peak = traced_peak(averaged_p_laplace_dense, default_gmm, default_gmm.means[0], [1.0, 2.0, 3.0], 1.0, n,
                               make_rng(20))
            assert peak <= 3_000_000
