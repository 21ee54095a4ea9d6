import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplace.estimators import (
    EstimatorConfig,
    _divergence_values,
    _flux_values,
    estimate_boundary,
    estimate_volume,
    write_estimates_csv,
)
from plaplace.fields import NORM_FLOOR, p_weight
from plaplace.geometry import make_rng, sample_sphere_uniform
from plaplace.gmm import GmmParams, _p_laplace_values, averaged_p_laplace_dense, draw_gmm, score_field


@pytest.fixture(scope="module")
def oracle_field(default_gmm):
    return score_field(default_gmm)


def single_gaussian_field(mu, sigma2=1.0):
    return score_field(GmmParams(means=[mu], sigma2=sigma2, weights=[1.0]))


class TestConfig:
    def test_defaults_match_experiment_constants(self):
        cfg = EstimatorConfig(p=1.0)
        assert cfg.radius == 1.0 and cfg.n_samples == 100 and cfg.fd_step == 1e-3

    def test_validation(self):
        for p in (0.5, float("nan")):
            with pytest.raises(ValueError):
                EstimatorConfig(p=p)
        for bad in ({"radius": 0.0}, {"radius": float("nan")}, {"n_samples": 0}, {"fd_step": 0.0},
                    {"fd_step": float("nan")}):
            with pytest.raises(ValueError):
                EstimatorConfig(p=1.0, **bad)


def zero_field(x):
    return np.zeros_like(x)


def flux_at(s, normal, p):
    """Flux integrand of one score value."""
    [val] = _flux_values(np.atleast_2d(s), np.atleast_2d(normal), p)
    return val


def divergence_at(field, x, p, h=1e-3):
    """FD divergence of |s|^(p-2) s at one point."""
    [val] = _divergence_values(field, np.atleast_2d(x), p, h)
    return val


# Score norms at and below the old 1e-8 skip floor, down to 0 and past the 1e-150 norm floor.
TINY_NORMS = (0.0, 1e-300, 1e-160, 1e-12)


class TestFluxDensity:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_aligned_unit_score(self, p):
        normal = np.array([0.0, 1.0])
        assert flux_at(normal, normal, p) == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [0.1, 2.0, 57.0])
    def test_p1_magnitude_invariance(self, c):
        normal = np.array([1.0, 0.0])
        val = flux_at(c * normal, normal, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_p3(self):
        val = flux_at(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 3.0)
        assert val == pytest.approx(15.0, rel=1e-12)

    def test_singularity(self):
        """The flux is finite for every p at a vanishing score, 0 at s = 0, and the unit value at p = 1 and |s| = 1e-12.

        Any RuntimeWarning on the way fails the test (pyproject's filterwarnings)."""
        normal = np.array([1.0, 0.0])
        for p in (1.0, 1.5, 2.0, 3.0):
            for c in TINY_NORMS:
                assert np.isfinite(flux_at(c * normal, normal, p))
            assert flux_at(0.0 * normal, normal, p) == 0.0
        assert flux_at(1e-12 * normal, normal, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-149, 1e-160, 1e-200, 1e-300])
    def test_p1_unit_flux_under_the_norm_floor(self, c):
        """At p = 1 the flux of c n is |n|^2 = 1 however small c is, on and off the axes."""
        for normal in (np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.full(3, 1 / np.sqrt(3.0))):
            assert flux_at(c * normal, normal, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_p_weight_keeps_every_bit_at_or_above_the_floor(self):
        """Rows with a norm of at least NORM_FLOOR get the plain norm and norm**(p - 2), bit for bit."""
        rng = make_rng(3)
        s = rng.standard_normal((500, 2)) * 10.0 ** rng.uniform(-149, 3, size=(500, 1))
        s[0] = [NORM_FLOOR, 0.0]
        norm = np.sqrt(np.add.reduce(s * s, axis=-1))
        assert norm.min() >= NORM_FLOOR
        for p in (1.0, 1.5, 2.0, 3.0):
            got_norm, weight = p_weight(s, p)
            np.testing.assert_array_equal(got_norm, norm)
            np.testing.assert_array_equal(weight, norm ** (p - 2.0))

    def test_p_weight_under_the_floor(self):
        """Under the floor the norm stays floored, s = 0 keeps the floor's weight, and the exact operator's
        quad / |s|^2 stays finite (any RuntimeWarning fails the test).  Each row passed alone as a (d,) point
        gives its row's norm and weight."""
        s = np.array([[0.0, 0.0], [1e-160, 0.0], [0.0, -1e-300], [3e-200, 4e-200]])
        for p in (1.0, 1.5, 2.0, 3.0):
            norm, weight = p_weight(s, p)
            np.testing.assert_array_equal(norm, NORM_FLOOR)
            np.testing.assert_allclose(weight, np.array([NORM_FLOOR, 1e-160, 1e-300, 5e-200]) ** (p - 2.0), rtol=1e-12)
            assert np.all(np.isfinite(_p_laplace_values(s, np.full(4, -2.0), np.full(4, 1e-320), p)))
            for row, row_norm, row_weight in zip(s, norm, weight):
                assert p_weight(row, p) == (row_norm, row_weight)

    def test_p1_bit_stable_under_positive_rescale(self, oracle_field):
        """Pointwise rescaling by a positive function never moves p=1 flux values."""

        def rescaled(x):
            return (1.0 + np.sum(x * x, axis=1))[:, None] * oracle_field(x)

        rng = make_rng(0)
        ys = rng.uniform(-4, 4, size=(50, 2))
        normals = rng.standard_normal((50, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        for y, n in zip(ys, normals):
            a = flux_at(oracle_field(y[None, :]), n, 1.0)
            b = flux_at(rescaled(y[None, :]), n, 1.0)
            assert abs(a - b) <= 1e-12


class TestDivergenceFd:
    def test_linear_field_trace(self):
        a_mat = np.array([[2.0, 1.0], [0.5, -3.0]])

        def field(x):
            return x @ a_mat.T

        val = divergence_at(field, np.array([0.3, -0.7]), 2.0)
        assert val == pytest.approx(np.trace(a_mat), rel=1e-9)

    def test_single_gaussian_p1(self):
        mu = np.array([1.0, -1.0])
        field = single_gaussian_field(mu)
        x = np.array([2.0, 0.5])
        val = divergence_at(field, x, 1.0)
        assert val == pytest.approx(-1.0 / np.linalg.norm(x - mu), rel=1e-3)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_constant_field_zero(self, p):
        val = divergence_at(lambda x: np.broadcast_to([0.4, 0.9], x.shape), np.ones(2), p)
        assert abs(val) <= 1e-12

    def test_stencil_singularity(self):
        """Stencil scores at or near 0 give a finite divergence for every p."""
        field = single_gaussian_field([0.0, 0.0])
        h = 1e-3
        for p in (1.0, 1.5, 2.0, 3.0):
            # anchor one step away from the mode so a stencil point hits the zero score exactly
            assert np.isfinite(divergence_at(field, np.array([h, 0.0]), p, h))
            for c in TINY_NORMS:
                # at the origin every stencil score is +-c e_j exactly
                assert np.isfinite(divergence_at(lambda x: x / h * c, np.zeros(2), p, h))


class TestVolumeEstimator:
    def test_constant_integrand_exact(self):
        field = single_gaussian_field([5.0, 5.0], sigma2=0.5)
        cfg = EstimatorConfig(p=2.0)
        est = estimate_volume(field, np.zeros(2), cfg, make_rng(1))
        assert est.value == pytest.approx(-2 / 0.5, rel=1e-6)
        assert est.std_error == pytest.approx(0.0, abs=1e-6)
        assert est.n_used == 100 and est.singular_hits == 0

    def test_mode_center_matches_dense_oracle(self, default_gmm, oracle_field):
        anchor = default_gmm.means[0]
        cfg = EstimatorConfig(p=1.0)
        est = estimate_volume(oracle_field, anchor, cfg, make_rng(123))
        [dense] = averaged_p_laplace_dense(default_gmm, anchor, [1.0], 1.0, 1_000_000, make_rng(321))
        assert abs(est.value - dense.value) <= 3.0 * np.hypot(est.std_error, dense.std_error)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_zero_field(self, p):
        """The flux of a zero score is 0 for every p, so every sample enters the mean and none is skipped."""
        cfg = EstimatorConfig(p=p)
        est = estimate_volume(zero_field, np.zeros(2), cfg, make_rng(2))
        assert est.value == 0.0
        assert est.n_used == cfg.n_samples and est.singular_hits == 0


class TestAffineVolumeProperty:
    # entries on a 1/8 lattice keep every product away from the subnormal range
    _entry = st.integers(-32, 32).map(lambda k: k / 8)

    @given(
        dim=st.integers(1, 3),
        entries=st.lists(_entry, min_size=12, max_size=12),
        x0=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_p2_volume_is_trace(self, dim, entries, x0, seed):
        """For s(x) = A x + b at p = 2 the estimate is trace(A), up to rounding.

        At p = 2 the weight |s|^0 is exactly 1, and a central difference of a
        linear function has no truncation error, so every sample's divergence
        is trace(A) in exact arithmetic.  In floating point each field value
        carries a rounding error of a few ulps of its magnitude, at most
        ``scale`` = |A|_inf (|x0|_inf + R + h) + |b|_inf over the stencil;
        the difference quotient divides that by 2h.  The bound below allows
        8 ulps of ``scale`` per axis over 2h, summed over ``dim`` axes: at most
        2e-10 for the fields drawn here, against a trace of up to 12.  Over
        3000 random cases the worst error was 8% of this bound.
        """
        a = np.reshape(entries[: dim * dim], (dim, dim))
        b = np.array(entries[9 : 9 + dim])
        x0 = np.array(x0[:dim])
        cfg = EstimatorConfig(p=2.0, n_samples=32)
        est = estimate_volume(lambda x: x @ a.T + b, x0, cfg, make_rng(seed))
        scale = np.abs(a).sum(axis=1).max() * (np.abs(x0).max() + cfg.radius + cfg.fd_step) + np.abs(b).max()
        tol = dim * 8 * np.finfo(float).eps * scale / (2 * cfg.fd_step)
        assert est.n_used == cfg.n_samples and est.singular_hits == 0
        assert abs(est.value - np.trace(a)) <= tol


class TestAffineBoundaryProperty:
    _entry = TestAffineVolumeProperty._entry

    @given(
        dim=st.integers(1, 3),
        entries=st.lists(_entry, min_size=12, max_size=12),
        x0=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_p2_boundary_is_unbiased_for_trace(self, dim, entries, x0, seed):
        """For s(x) = A x + b at p = 2 the estimate is within 5 standard errors of trace(A).

        On the sphere y = x0 + R n the flux is (A x0 + b) . n + R n^T A n, whose mean over
        uniform n is R trace(A) / d; the factor d/R makes the estimate unbiased for
        trace(A), but not exact, so the check is statistical.  Where the flux is
        constant (A = c I with A x0 + b = 0, or d = 1) the standard error is rounding
        noise, so a rounding allowance is added: 16 d^2 ulps of the field scale
        |A|_inf (|x0|_inf + R) + |b|_inf, times d/R.  Over 20000 random cases, a quarter of
        them constant-flux, the worst error was 80% of this tolerance.
        """
        a = np.reshape(entries[: dim * dim], (dim, dim))
        b = np.array(entries[9 : 9 + dim])
        x0 = np.array(x0[:dim])
        cfg = EstimatorConfig(p=2.0)
        est = estimate_boundary(lambda x: x @ a.T + b, x0, cfg, make_rng(seed))
        scale = np.abs(a).sum(axis=1).max() * (np.abs(x0).max() + cfg.radius) + np.abs(b).max()
        rounding = 16 * dim**2 * np.finfo(float).eps * scale * dim / cfg.radius
        assert est.n_used == cfg.n_samples and est.singular_hits == 0
        assert abs(est.value - np.trace(a)) <= 5.0 * est.std_error + rounding


class TestBoundaryEstimator:
    def test_antiradial_score_zero_variance(self):
        """Score of a Gaussian centered at the anchor is exactly antiradial on the sphere."""
        x0 = np.array([0.5, -1.0])
        field = single_gaussian_field(x0)
        est = estimate_boundary(field, x0, EstimatorConfig(p=1.0), make_rng(4))
        assert est.value == pytest.approx(-2.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_outward_radial_identity_field(self):
        x0 = np.array([1.0, 1.0])

        def field(x):
            return x - x0

        est = estimate_boundary(field, x0, EstimatorConfig(p=2.0), make_rng(5))
        assert est.value == pytest.approx(2.0, rel=1e-12)

    def test_high_dim_small_radius_finite(self):
        """The factor d/R stays finite where the ball volume underflows (d = 64, R = 1e-5)."""
        x0 = np.zeros(64)
        est = estimate_boundary(lambda x: x - x0, x0, EstimatorConfig(p=2.0, radius=1e-5), make_rng(5))
        assert est.value == pytest.approx(64.0, rel=1e-12)

    def test_agrees_with_volume_on_smooth_field(self, oracle_field):
        """Divergence-theorem cross-check at six fixed anchors."""
        rng = make_rng(7)
        anchors = rng.uniform(-4, 4, size=(6, 2))
        for p in (1.0, 2.0, 3.0):
            for x0 in anchors:
                rb, rv = rng.spawn(2)
                eb = estimate_boundary(oracle_field, x0, EstimatorConfig(p=p), rb)
                ev = estimate_volume(oracle_field, x0, EstimatorConfig(p=p), rv)
                assert abs(eb.value - ev.value) <= 3.0 * np.hypot(eb.std_error, ev.std_error)

    def test_deterministic(self, oracle_field):
        e1 = estimate_boundary(oracle_field, np.zeros(2), EstimatorConfig(p=1.0), make_rng(8))
        e2 = estimate_boundary(oracle_field, np.zeros(2), EstimatorConfig(p=1.0), make_rng(8))
        assert e1 == e2

    def test_vanishing_samples_enter_the_mean(self):
        """Samples where the score vanishes contribute a flux of 0 at p = 1 instead of being skipped."""

        def half_field(x):
            out = np.zeros_like(x)
            out[x[:, 0] > 0] = [1.0, 0.0]
            return out

        cfg = EstimatorConfig(p=1.0)
        est = estimate_boundary(half_field, np.zeros(2), cfg, make_rng(9))
        ys, normals = sample_sphere_uniform(np.zeros(2), cfg.radius, cfg.n_samples, make_rng(9))
        assert 0 < np.count_nonzero(ys[:, 0] > 0) < cfg.n_samples
        assert (est.n_used, est.singular_hits) == (cfg.n_samples, 0)
        assert est.value == 2.0 / cfg.radius * float(np.where(ys[:, 0] > 0, normals[:, 0], 0.0).mean())


class TestHomogeneity:
    @pytest.mark.parametrize("a", [-2.0, 0.5, 3.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_estimates_scale_as_potential(self, oracle_field, a, p):
        """Same samples, scaled potential: estimates pick up the a|a|^(p-2) factor."""
        x0 = np.array([1.0, 2.0])
        factor = a * abs(a) ** (p - 2.0)
        for fn in (estimate_boundary, estimate_volume):
            cfg = EstimatorConfig(p=p)
            base = fn(oracle_field, x0, cfg, make_rng(10))
            scaled = fn(lambda x: a * oracle_field(x), x0, cfg, make_rng(10))
            assert scaled.value == pytest.approx(factor * base.value, rel=1e-9)


class TestTranslationEquivariance:
    _field = staticmethod(score_field(draw_gmm(rng=make_rng(7))))
    _coord = st.floats(-6.0, 6.0)

    @given(
        x0=st.tuples(_coord, _coord),
        c=st.tuples(_coord, _coord),
        p=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        formulation=st.sampled_from(["boundary", "volume"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shifted_field_at_shifted_anchor(self, x0, c, p, seed, formulation):
        """x -> field(x - c) estimated at x0 + c matches field at x0 under the same RNG."""
        x0, c = np.array(x0), np.array(c)
        cfg = EstimatorConfig(p=p, n_samples=32)
        fn = estimate_boundary if formulation == "boundary" else estimate_volume
        base = fn(self._field, x0, cfg, make_rng(seed))
        moved = fn(lambda x: self._field(x - c), x0 + c, cfg, make_rng(seed))
        assert (moved.n_used, moved.singular_hits) == (base.n_used, base.singular_hits)
        assert moved.value == pytest.approx(base.value, rel=1e-9)
        assert moved.std_error == pytest.approx(base.std_error, rel=1e-9)


def test_write_estimates_csv(tmp_path, oracle_field):
    est = estimate_boundary(oracle_field, np.zeros(2), EstimatorConfig(p=1.0), make_rng(13))
    rows = [[0.0, 0.0, 1.0, "boundary", 100, 1.0, 0, est.value, est.std_error]]
    path = tmp_path / "est.csv"
    write_estimates_csv(path, 2, rows, header_comment="unit test")
    lines = path.read_text().splitlines()
    assert lines[0] == "# unit test"
    assert lines[1].split(",") == ["x0_0", "x0_1", "p", "formulation", "n_samples", "radius", "seed", "value",
                                   "std_error"]
    assert len(lines) == 3
