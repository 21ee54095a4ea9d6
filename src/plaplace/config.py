"""Experiment configuration: JSON files with strict schema validation.

Unknown keys are rejected everywhere so typos fail loudly instead of
silently falling back to defaults.  The schema declares each key once,
with its default; missing keys take it, and the fully resolved config is
embedded in every artifact.
"""

from __future__ import annotations

import copy
import json
import math

import jsonschema

from .errors import ConfigError
from .estimators import EstimatorConfig
from .gmm import GmmParams, draw_gmm
from .score_model import NoiseSchedule

__all__ = ["DEFAULT_CONFIG", "MAX_SEED", "load_config", "resolve_config", "build_gmm", "build_schedule", "build_estimator_config"]

# The one declaration of every key: its type, its range and its default.
# ``experiment`` alone has no default: the subcommand names the study.
# Every integer leaf has a maximum, so a value too large to run fails at load
# rather than in every seed.  Counts of points, samples, repeats and steps stop
# at _MAX_COUNT; dimensions, widths and the grid side at 10_000; t_steps at
# 100_000, as training tabulates one embedding row per step.  A seed stays at
# or below MAX_SEED, so ``seed_<seed>`` is a usable directory name.
_MAX_COUNT = 10**8
MAX_SEED = 2**64 - 1
_SEED = {"type": "integer", "minimum": 0, "maximum": MAX_SEED}
_P_VALUES = {
    "type": "array", "items": {"type": "number", "minimum": 1}, "minItems": 1, "uniqueItems": True,
    "default": [1.0, 2.0, 3.0],
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
                    "default": None,
                },
                "weights": {"type": ["array", "null"], "items": {"type": "number"}, "default": None},
                "sigma2": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
                "n_components": {"type": "integer", "minimum": 1, "maximum": 10_000, "default": 3},
                "dim": {"type": "integer", "minimum": 1, "maximum": 10_000, "default": 2},
                "low": {"type": "number", "default": -5.0},
                "high": {"type": "number", "default": 5.0},
                "seed": {**_SEED, "default": 7},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_steps": {"type": "integer", "minimum": 1, "maximum": 100_000, "default": 100},
                "beta_min": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 1e-4},
                "beta_max": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.02},
            },
        },
        "training": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 500},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0, "default": 1e-3},
                "batch_size": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 32},
                "n_train": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 1000},
                "hidden_width": {"type": "integer", "minimum": 1, "maximum": 10_000, "default": 128},
                "embed_dim": {"type": "integer", "minimum": 2, "maximum": 10_000, "multipleOf": 2, "default": 32},
            },
        },
        "estimator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "radius": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
                "n_samples": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 100},
                "fd_step": {"type": "number", "exclusiveMinimum": 0, "default": 1e-3},
                "p_values": _P_VALUES,
            },
        },
        "fidelity": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_repeats": {"type": "integer", "minimum": 2, "maximum": _MAX_COUNT, "default": 100},
                "n_dense": {"type": "integer", "minimum": 100, "maximum": _MAX_COUNT, "default": 1_000_000},
            },
        },
        "memorization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_base": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 1000},
                "n_replicas": {"type": "integer", "minimum": 0, "maximum": _MAX_COUNT, "default": 250},
                "grid_size": {"type": "integer", "minimum": 1, "maximum": 10_000, "default": 40},
                "pad_sigma": {"type": "number", "minimum": 0, "default": 2.0},
                "n_background": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 50},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_anchors": {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT, "default": 50},
                "p_values": _P_VALUES,
            },
        },
        "seeds": {
            "type": "array", "items": _SEED, "minItems": 1, "uniqueItems": True,
            "default": [0, 1, 2, 3, 4],
        },
        "output_dir": {"type": "string", "default": "out"},
    },
}


def _defaults(node: dict):
    """The defaults a schema node declares: a leaf's own, or an object of its keys' defaults."""
    if "properties" not in node:
        return copy.deepcopy(node["default"])
    return {key: _defaults(sub) for key, sub in node["properties"].items() if "default" in sub or "properties" in sub}


DEFAULT_CONFIG = _defaults(_SCHEMA)
_DRAFT = jsonschema.validators.validator_for(_SCHEMA)


def _type(validator, types, instance, schema):
    """The ``type`` keyword, with ``number`` narrowed to finite floats: every number leaf is used as a float.

    The one finiteness check for files and dicts alike: a JSON file may spell NaN, Infinity or 1e400 (read as
    inf), and a JSON integer has no size limit, so ``1`` followed by 400 zeros is a schema ``number``.  An
    ``integer`` leaf has its own ``maximum``.
    """
    yield from _DRAFT.VALIDATORS["type"](validator, types, instance, schema)
    if "number" in types and isinstance(instance, (int, float)) and not isinstance(instance, bool):
        try:
            if not math.isfinite(instance):
                yield jsonschema.exceptions.ValidationError("non-finite number")
        except OverflowError:
            yield jsonschema.exceptions.ValidationError("integer too large for a float")


# Built once: ``jsonschema.validate`` would check the constant schema against its metaschema on every call.
_VALIDATOR = jsonschema.validators.extend(_DRAFT, validators={"type": _type})(_SCHEMA)


def resolve_config(raw: dict) -> dict:
    """Validate against the schema, fill in defaults for all missing keys, and check that the p values name distinct
    artifacts and that the mixture and schedule build.

    Raises :class:`ConfigError` naming the offending path.
    """
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {error.message}") from error
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in raw.items():
        if isinstance(value, dict):
            resolved[key].update(value)
        else:
            resolved[key] = copy.deepcopy(value)
    # Artifacts and summary keys name each p as p{p:g}: two values with one name would overwrite each other.
    for block in ("estimator", "bounds"):
        named: dict[str, float] = {}
        for p in resolved[block]["p_values"]:
            first = named.setdefault(f"p{p:g}", p)
            if first != p:
                raise ConfigError(f"config invalid at {block}/p_values: {first} and {p} share the artifact name p{p:g}")
    for block, build in (("gmm", build_gmm), ("schedule", build_schedule)):
        try:
            build(resolved)
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"config invalid at {block}: {exc}") from exc
    return resolved


def load_config(path) -> dict:
    """Read, validate, and resolve a JSON config file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
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
        return GmmParams(means=block["means"], sigma2=block["sigma2"], weights=weights)
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
