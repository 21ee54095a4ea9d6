"""Experiment configuration: JSON files with strict schema validation.

Unknown keys are rejected everywhere so typos fail loudly instead of
silently falling back to defaults.  Missing keys take the documented
defaults; the fully resolved config is embedded in every artifact.
"""

from __future__ import annotations

import copy
import json

import jsonschema

from .errors import ConfigError
from .estimators import EstimatorConfig
from .gmm import GmmParams, draw_gmm, gmm_from_dict
from .score_model import NoiseSchedule

__all__ = ["DEFAULT_CONFIG", "load_config", "resolve_config", "validate_config",
           "build_gmm", "build_schedule", "build_estimator_config"]

DEFAULT_CONFIG = {
    "gmm": {
        "means": None,
        "weights": None,
        "sigma2": 1.0,
        "n_components": 3,
        "dim": 2,
        "low": -5.0,
        "high": 5.0,
        "seed": 7,
    },
    "schedule": {"t_steps": 100, "beta_min": 1e-4, "beta_max": 0.02},
    "training": {
        "epochs": 500,
        "learning_rate": 1e-3,
        "batch_size": 32,
        "n_train": 1000,
        "hidden_width": 128,
        "embed_dim": 32,
    },
    "estimator": {
        "radius": 1.0,
        "n_samples": 100,
        "fd_step": 1e-3,
        "p_values": [1.0, 2.0, 3.0],
    },
    "fidelity": {"n_repeats": 100, "n_dense": 1_000_000},
    "memorization": {
        "n_base": 1000,
        "n_replicas": 250,
        "grid_size": 40,
        "pad_sigma": 2.0,
        "n_background": 50,
    },
    "bounds": {"n_anchors": 50, "p_values": [1.0, 2.0, 3.0]},
    "seeds": [0, 1, 2, 3, 4],
    "output_dir": "out",
}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": ["fidelity", "memorization", "bounds"]},
        "gmm": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "means": {
                    "type": ["array", "null"],
                    "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    "minItems": 1,
                },
                "weights": {"type": ["array", "null"], "items": {"type": "number"}},
                "sigma2": {"type": "number", "exclusiveMinimum": 0},
                "n_components": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 1},
                "low": {"type": "number"},
                "high": {"type": "number"},
                "seed": {"type": "integer"},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_steps": {"type": "integer", "minimum": 1},
                "beta_min": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "beta_max": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "training": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "batch_size": {"type": ["integer", "null"], "minimum": 1},
                "n_train": {"type": "integer", "minimum": 1},
                "hidden_width": {"type": "integer", "minimum": 1},
                "embed_dim": {"type": "integer", "minimum": 2, "multipleOf": 2},
            },
        },
        "estimator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "n_samples": {"type": "integer", "minimum": 1},
                "fd_step": {"type": "number", "exclusiveMinimum": 0},
                "p_values": {
                    "type": "array", "items": {"type": "number", "minimum": 1}, "minItems": 1, "uniqueItems": True,
                },
            },
        },
        "fidelity": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_repeats": {"type": "integer", "minimum": 2},
                "n_dense": {"type": "integer", "minimum": 100},
            },
        },
        "memorization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_base": {"type": "integer", "minimum": 1},
                "n_replicas": {"type": "integer", "minimum": 0},
                "grid_size": {"type": "integer", "minimum": 1},
                "pad_sigma": {"type": "number", "minimum": 0},
                "n_background": {"type": "integer", "minimum": 1},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_anchors": {"type": "integer", "minimum": 1},
                "p_values": {
                    "type": "array", "items": {"type": "number", "minimum": 1}, "minItems": 1, "uniqueItems": True,
                },
            },
        },
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "output_dir": {"type": "string"},
    },
}


def validate_config(raw: dict) -> None:
    """Schema check; raises ConfigError with the offending path."""
    try:
        jsonschema.validate(raw, _SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc


def resolve_config(raw: dict) -> dict:
    """Validate, fill in defaults for all missing keys, and check the mixture and schedule build."""
    validate_config(raw)
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in raw.items():
        if isinstance(value, dict):
            resolved[key].update(value)
        else:
            resolved[key] = copy.deepcopy(value)
    for block, build in (("gmm", build_gmm), ("schedule", build_schedule)):
        try:
            build(resolved)
        except ValueError as exc:
            raise ConfigError(f"config invalid at {block}: {exc}") from exc
    return resolved


def load_config(path) -> dict:
    """Read, validate, and resolve a JSON config file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def build_gmm(cfg: dict) -> GmmParams:
    """Mixture from the gmm block: explicit parameters, or seed-drawn means."""
    block = cfg["gmm"]
    if block["means"] is None and block["weights"] is not None:
        raise ValueError("weights apply to explicit means; set gmm.means as well")
    if block["means"] is not None:
        weights = block["weights"]
        if weights is None:
            k = len(block["means"])
            weights = [1.0 / k] * k
        return gmm_from_dict({"means": block["means"], "sigma2": block["sigma2"], "weights": weights})
    return draw_gmm(
        n_components=block["n_components"],
        dim=block["dim"],
        sigma2=block["sigma2"],
        low=block["low"],
        high=block["high"],
        seed=block["seed"],
    )


def build_schedule(cfg: dict) -> NoiseSchedule:
    block = cfg["schedule"]
    return NoiseSchedule.linear(block["t_steps"], block["beta_min"], block["beta_max"])


def build_estimator_config(cfg: dict, p: float) -> EstimatorConfig:
    block = cfg["estimator"]
    return EstimatorConfig(p=p, radius=block["radius"], n_samples=block["n_samples"], fd_step=block["fd_step"])


def config_header(cfg: dict, seed: int | None = None) -> str:
    """Canonical reproducibility string embedded in artifacts."""
    payload = dict(cfg)
    if seed is not None:
        payload = {**payload, "run_seed": seed}
    return json.dumps(payload, sort_keys=True)
