import tracemalloc

import numpy as np
import pytest

from plaplace import NoiseSchedule, TrainConfig, draw_gmm, make_rng, sample_gmm, train


@pytest.fixture(scope="session")
def default_gmm():
    """The standard experiment density: 3 equal-weight components, unit variance."""
    return draw_gmm(rng=make_rng(7))


@pytest.fixture(scope="session")
def schedule():
    return NoiseSchedule.linear()


@pytest.fixture(scope="session")
def train_once():
    """``train`` on ``make_rng(seed)``, memoized for the session: a model is immutable, so tests that fit the
    same data with the same betas, ``TrainConfig``, seed and widths share one fit."""
    models = {}

    def fit(data, schedule, cfg, seed, hidden_width=128, embed_dim=32):
        data = np.ascontiguousarray(data, dtype=float)
        key = (data.shape, data.tobytes(), schedule.betas.tobytes(), cfg, seed, hidden_width, embed_dim)
        if key not in models:
            models[key] = train(data, schedule, cfg, make_rng(seed), hidden_width, embed_dim)
        return models[key]

    return fit


@pytest.fixture(scope="session")
def trained_model(default_gmm, schedule, train_once):
    """Default-recipe model on 1000 mixture draws; shared across tests."""
    data = sample_gmm(default_gmm, 1000, make_rng(0))
    return train_once(data, schedule, TrainConfig(), 0)


@pytest.fixture
def traced_peak():
    """Peak bytes that Python allocators (numpy included) hold during one call: deterministic, unlike RSS."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
