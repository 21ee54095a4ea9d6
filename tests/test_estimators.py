import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplace.errors import EstimationError, SingularGradientError
from plaplace.estimators import (
    EstimatorConfig,
    dirichlet_energy_mc,
    divergence_fd,
    estimate_boundary,
    estimate_volume,
    flux_density,
    write_estimates_csv,
)
from plaplace.fields import constant_field, scale_field
from plaplace.geometry import BallSpec, make_rng, sample_ball_uniform, split_rng
from plaplace.gmm import GmmParams, averaged_p_laplace_dense, draw_gmm, score_field


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
        with pytest.raises(ValueError):
            EstimatorConfig(p=0.5)
        with pytest.raises(ValueError):
            EstimatorConfig(p=1.0, radius=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(p=1.0, n_samples=0)


class TestFluxDensity:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_aligned_unit_score(self, p):
        normal = np.array([0.0, 1.0])
        assert flux_density(constant_field(normal), np.zeros(2), normal, p) == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [0.1, 2.0, 57.0])
    def test_p1_magnitude_invariance(self, c):
        normal = np.array([1.0, 0.0])
        val = flux_density(constant_field(c * normal), np.zeros(2), normal, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_p3(self):
        field = constant_field(np.array([3.0, 4.0]))
        val = flux_density(field, np.zeros(2), np.array([1.0, 0.0]), 3.0)
        assert val == pytest.approx(15.0, rel=1e-12)

    def test_singularity(self):
        with pytest.raises(SingularGradientError):
            flux_density(constant_field(np.zeros(2)), np.zeros(2), np.array([1.0, 0.0]), 1.0)

    def test_p1_bit_stable_under_positive_rescale(self, oracle_field):
        """Pointwise rescaling by a positive function never moves p=1 flux values."""

        def rescaled(x):
            return (1.0 + np.sum(x * x, axis=1))[:, None] * oracle_field(x)

        rng = make_rng(0)
        ys = rng.uniform(-4, 4, size=(50, 2))
        normals = rng.standard_normal((50, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        for y, n in zip(ys, normals):
            a = flux_density(oracle_field, y, n, 1.0)
            b = flux_density(rescaled, y, n, 1.0)
            assert abs(a - b) <= 1e-12


class TestDivergenceFd:
    def test_linear_field_trace(self):
        a_mat = np.array([[2.0, 1.0], [0.5, -3.0]])

        def field(x):
            return x @ a_mat.T

        val = divergence_fd(field, np.array([0.3, -0.7]), 2.0, h=1e-3)
        assert val == pytest.approx(np.trace(a_mat), rel=1e-9)

    def test_single_gaussian_p1(self):
        mu = np.array([1.0, -1.0])
        field = single_gaussian_field(mu)
        x = np.array([2.0, 0.5])
        val = divergence_fd(field, x, 1.0, h=1e-3)
        assert val == pytest.approx(-1.0 / np.linalg.norm(x - mu), rel=1e-3)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_constant_field_zero(self, p):
        val = divergence_fd(constant_field(np.array([0.4, 0.9])), np.ones(2), p, h=1e-3)
        assert abs(val) <= 1e-12

    def test_stencil_singularity(self):
        # anchor one step away from the mode so a stencil point hits the zero score exactly
        field = single_gaussian_field([0.0, 0.0])
        with pytest.raises(SingularGradientError):
            divergence_fd(field, np.array([1e-3, 0.0]), 1.0, h=1e-3)


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
        [(dense_mean, dense_se, _, _)] = averaged_p_laplace_dense(
            default_gmm, anchor, [1.0], 1.0, 1_000_000, make_rng(321)
        )
        assert abs(est.value - dense_mean) <= 3.0 * np.hypot(est.std_error, dense_se)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_zero_field(self, p):
        cfg = EstimatorConfig(p=p)
        est = estimate_volume(constant_field(np.zeros(2)), np.zeros(2), cfg, make_rng(2))
        assert est.value == 0.0

    def test_all_singular(self):
        cfg = EstimatorConfig(p=1.0)
        with pytest.raises(EstimationError):
            estimate_volume(constant_field(np.zeros(2)), np.zeros(2), cfg, make_rng(3))


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

    def test_agrees_with_volume_on_smooth_field(self, oracle_field):
        """Divergence-theorem cross-check at six fixed anchors."""
        rng = make_rng(7)
        anchors = rng.uniform(-4, 4, size=(6, 2))
        for p in (1.0, 2.0, 3.0):
            for x0 in anchors:
                rb, rv = split_rng(rng, 2)
                eb = estimate_boundary(oracle_field, x0, EstimatorConfig(p=p), rb)
                ev = estimate_volume(oracle_field, x0, EstimatorConfig(p=p), rv)
                assert abs(eb.value - ev.value) <= 3.0 * np.hypot(eb.std_error, ev.std_error)

    def test_deterministic(self, oracle_field):
        e1 = estimate_boundary(oracle_field, np.zeros(2), EstimatorConfig(p=1.0), make_rng(8))
        e2 = estimate_boundary(oracle_field, np.zeros(2), EstimatorConfig(p=1.0), make_rng(8))
        assert e1 == e2

    def test_singular_samples_skipped_and_counted(self):
        def half_field(x):
            out = np.zeros_like(x)
            out[x[:, 0] > 0] = [1.0, 0.0]
            return out

        cfg = EstimatorConfig(p=1.0)
        est = estimate_boundary(half_field, np.zeros(2), cfg, make_rng(9))
        assert est.singular_hits > 0
        assert est.n_used + est.singular_hits == cfg.n_samples


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
            scaled = fn(scale_field(oracle_field, a), x0, cfg, make_rng(10))
            assert scaled.value == pytest.approx(factor * base.value, rel=1e-9)


class TestTranslationEquivariance:
    _field = staticmethod(score_field(draw_gmm(seed=7)))
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


class TestDirichletEnergy:
    def test_zero_field(self):
        assert dirichlet_energy_mc(constant_field(np.zeros(2)), np.zeros((10, 2)), 2.0) == 0.0

    def test_constant_unit_field_on_disk(self):
        samples = sample_ball_uniform(BallSpec.around([0.0, 0.0], 1.0), 20_000, make_rng(11))
        val = dirichlet_energy_mc(constant_field(np.array([1.0, 0.0])), samples, 2.0, region_volume=np.pi)
        assert val == pytest.approx(np.pi / 2.0, rel=1e-12)

    def test_two_homogeneity(self, oracle_field):
        samples = make_rng(12).uniform(-3, 3, size=(500, 2))
        base = dirichlet_energy_mc(oracle_field, samples, 2.0)
        doubled = dirichlet_energy_mc(scale_field(oracle_field, 2.0), samples, 2.0)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def test_write_estimates_csv(tmp_path, oracle_field):
    est = estimate_boundary(oracle_field, np.zeros(2), EstimatorConfig(p=1.0), make_rng(13))
    records = [
        {
            "x0": np.zeros(2), "p": 1.0, "formulation": "boundary", "n_samples": 100,
            "radius": 1.0, "seed": 0, "value": est.value, "std_error": est.std_error,
            "singular_hits": est.singular_hits,
        }
    ]
    path = tmp_path / "est.csv"
    write_estimates_csv(path, records, header_comment="unit test")
    lines = path.read_text().splitlines()
    assert lines[0] == "# unit test"
    assert lines[1].split(",")[:3] == ["x0_0", "x0_1", "p"]
    assert len(lines) == 3
