import csv
import json
import math
import os

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplace import svgplot
from plaplace.cli import main
from plaplace.config import (
    _SCHEMA,
    DEFAULT_CONFIG,
    _first_error,
    build_estimator_config,
    build_gmm,
    build_schedule,
    load_config,
    resolve_config,
)
from plaplace.errors import ConfigError
from plaplace.memorization import auc

# The JSON Schema keywords ``_first_error`` interprets; ``default`` only feeds DEFAULT_CONFIG.
INTERPRETED = {"type", "enum", "minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum", "multipleOf", "minItems",
               "uniqueItems", "items", "properties", "additionalProperties", "default"}
# The reference: a plain JSON Schema validator, without the three narrowings.
REFERENCE = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


def schema_types(node):
    return [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])


def schema_nodes(node):
    yield node
    for sub in (*node.get("properties", {}).values(), *([node["items"]] if "items" in node else [])):
        yield from schema_nodes(sub)


def schema_leaves(node, path=()):
    """``(path, node)`` of every key that holds a value rather than a block of keys."""
    for key, sub in node["properties"].items():
        if "properties" in sub:
            yield from schema_leaves(sub, (*path, key))
        else:
            yield (*path, key), sub


def narrowed(node, value):
    """Whether a narrowing rejects what JSON Schema accepts: a float at an integer, or a number no finite float
    holds, anywhere in ``value``.  (JSON Schema already rejects a bool as a number.)"""
    if isinstance(value, list):
        return any(narrowed(node.get("items", {}), item) for item in value)
    if isinstance(value, float):
        return "integer" in schema_types(node) or not math.isfinite(value)
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            return True
    return False


SCALARS = st.one_of(
    st.integers(),
    st.integers(-2, 12),  # the region of most bounds
    st.sampled_from([2**64 - 1, 2**64, 10**400, -(10**400)]),
    st.floats(),  # NaN and +-inf included
    st.integers(-(10**6), 10**6).map(float),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["fidelity", "memorization", "bounds"]),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
LEAVES = dict(schema_leaves(_SCHEMA))


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="experimnt"):
            resolve_config({"experiment": "fidelity", "experimnt": "typo"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "fidelity", "gmm": {"sigma": 1.0}})

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "extraction"})

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "bounds", "seeds": ["zero"]})

    def test_defaults_fill_missing_blocks(self):
        cfg = resolve_config({"experiment": "bounds"})
        assert cfg["estimator"]["radius"] == 1.0
        assert cfg["training"]["epochs"] == 500
        assert cfg["seeds"] == DEFAULT_CONFIG["seeds"]

    def test_schema_declares_every_default(self):
        """DEFAULT_CONFIG is the schema's defaults: it validates, and only ``experiment`` has none."""
        jsonschema.validate(DEFAULT_CONFIG, _SCHEMA)
        assert _first_error(_SCHEMA, DEFAULT_CONFIG, ()) is None
        assert [path for path, leaf in LEAVES.items() if "default" not in leaf] == [("experiment",)]
        assert set(DEFAULT_CONFIG) == set(_SCHEMA["properties"]) - {"experiment"}

    def test_partial_block_keeps_other_defaults(self):
        cfg = resolve_config({"experiment": "bounds", "training": {"epochs": 7}})
        assert cfg["training"]["epochs"] == 7
        assert cfg["training"]["learning_rate"] == 1e-3

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "memorization", "seeds": [3]}))
        cfg = load_config(path)
        assert cfg["experiment"] == "memorization" and cfg["seeds"] == [3]

    def test_number_leaves_hold_floats_integer_leaves_bounded(self):
        """A ``number`` leaf rejects a non-finite float and an int no float holds; a seed may be any int from 0 to
        2**64 - 1."""
        for block, key in (("estimator", "radius"), ("training", "learning_rate"), ("gmm", "sigma2")):
            with pytest.raises(ConfigError, match=f"{block}/{key}: integer too large for a float"):
                resolve_config({block: {key: 10**400}})
        for raw, path in (
            ({"gmm": {"means": [[0.0, 0.0], [1.0, float("nan")]]}}, "gmm/means/1/1"),
            ({"estimator": {"p_values": [float("inf")]}}, "estimator/p_values/0"),
            ({"memorization": {"pad_sigma": float("inf")}}, "memorization/pad_sigma"),
            ({"gmm": {"low": float("-inf")}}, "gmm/low"),
        ):
            with pytest.raises(ConfigError, match=f"{path}: non-finite number"):
                resolve_config(raw)
        with pytest.raises(ConfigError, match="bounds/p_values/1"):
            resolve_config({"bounds": {"p_values": [1, 10**400]}})
        assert resolve_config({"estimator": {"radius": 2}})["estimator"]["radius"] == 2
        assert resolve_config({"seeds": [2**64 - 1]})["seeds"] == [2**64 - 1]
        for seed in (-(10**400), 2**64, 10**40):
            with pytest.raises(ConfigError, match="seeds/0"):
                resolve_config({"seeds": [seed]})
        with pytest.raises(ConfigError, match="gmm/seed"):
            resolve_config({"gmm": {"seed": 2**64}})

    def test_every_integer_leaf_has_a_maximum(self):
        """An integer leaf without a maximum lets a count such as 1e20 through, to fail in every seed."""
        leaves = {"/".join(path): leaf.get("items", leaf) for path, leaf in LEAVES.items()
                  if leaf.get("items", leaf).get("type") == "integer"}
        assert "estimator/n_samples" in leaves and "seeds" in leaves
        assert [path for path, leaf in leaves.items() if "maximum" not in leaf] == []

    def test_schema_uses_only_interpreted_keywords(self):
        """A keyword ``_first_error`` does not read would be ignored without a word: the schema may use none."""
        nodes = list(schema_nodes(_SCHEMA))
        assert {keyword for node in nodes for keyword in node} <= INTERPRETED
        assert all(node["additionalProperties"] is False for node in nodes if "additionalProperties" in node)
        types = {name for node in nodes for name in schema_types(node)}
        assert types == {"object", "array", "string", "null", "integer", "number"}
        # uniqueItems hashes the items, so they must be numbers.
        assert all(node["items"]["type"] in ("integer", "number") for node in nodes if node.get("uniqueItems"))

    @pytest.mark.parametrize("path", sorted(LEAVES), ids="/".join)
    @settings(max_examples=80, deadline=None)
    @given(value=VALUES)
    def test_first_error_agrees_with_json_schema(self, path, value):
        """At every leaf, a value passes exactly when JSON Schema passes it and no narrowing applies; an error
        names the leaf's path."""
        raw = value
        for key in reversed(path):
            raw = {key: raw}
        error = _first_error(_SCHEMA, raw, ())
        assert (error is None) == (REFERENCE.is_valid(raw) and not narrowed(LEAVES[path], value))
        assert error is None or error.startswith("/".join(path))

    def test_resolved_config_shares_no_list_with_the_caller(self):
        raw = {"estimator": {"p_values": [1.0, 2.0]}, "gmm": {"means": [[0.0, 0.0], [1.0, 1.0]]}}
        cfg = resolve_config(raw)
        raw["estimator"]["p_values"].append(float("nan"))
        raw["gmm"]["means"][0][0] = float("inf")
        assert cfg["estimator"]["p_values"] == [1.0, 2.0]
        assert cfg["gmm"]["means"] == [[0.0, 0.0], [1.0, 1.0]]

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestBuilders:
    def test_explicit_means_used(self):
        cfg = resolve_config(
            {"experiment": "fidelity", "gmm": {"means": [[0.0, 0.0], [2.0, 2.0]], "sigma2": 0.5}}
        )
        g = build_gmm(cfg)
        assert g.n_components == 2 and g.sigma2 == 0.5
        np.testing.assert_array_equal(g.weights, [0.5, 0.5])

    def test_drawn_means_deterministic(self):
        cfg = resolve_config({"experiment": "fidelity"})
        np.testing.assert_array_equal(build_gmm(cfg).means, build_gmm(cfg).means)

    def test_schedule_and_estimator(self):
        cfg = resolve_config({"experiment": "fidelity"})
        sched = build_schedule(cfg)
        assert sched.t_steps == 100
        ecfg = build_estimator_config(cfg, 1.0)
        assert ecfg.p == 1.0 and ecfg.n_samples == 100


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "training": {"epochs": 30, "n_train": 120},
        "estimator": {"n_samples": 16, "p_values": [1.0]},
        "fidelity": {"n_repeats": 3, "n_dense": 1000},
        "memorization": {"n_base": 120, "n_replicas": 20, "grid_size": 5, "n_background": 4},
        "bounds": {"n_anchors": 6, "p_values": [1.0]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestCli:
    def test_bad_config_path(self):
        assert main(["fidelity", "--config", "/nonexistent.json"]) == 2

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "nope"}))
        assert main(["fidelity", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command,artifact", [
        ("memorize", "memorization/percentiles.csv"),
        ("memorize", "memorization/detection.json"),
        ("memorize", "memorization/seed_0/scenario.json"),
        ("bounds", "bounds/summary.json"),
        ("fidelity", "fidelity/exact.csv"),
    ])
    def test_experiment_commands(self, small_config, tmp_path, command, artifact):
        path, cfg = small_config
        assert main([command, "--config", str(path)]) == 0
        assert (tmp_path / "out" / artifact).exists()
        study = artifact.split("/")[0]  # the config names no study; the subcommand sets it
        result = json.loads((tmp_path / "out" / study / "result.json").read_text())
        assert result["config"]["experiment"] == study

    def test_fidelity_repetition_count(self, small_config, tmp_path):
        """One estimate row per field, anchor, p, formulation, and repetition."""
        path, cfg = small_config
        assert main(["fidelity", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "fidelity" / "seed_0" / "estimates.csv").read_text().splitlines()
        n_expected = 2 * 6 * len(cfg["estimator"]["p_values"]) * 2 * cfg["fidelity"]["n_repeats"]
        assert len(rows) == 2 + n_expected  # comment + header

        # Every summary row, both fields and both formulations, compares with the reference of its own cell.
        def read(name):
            with open(tmp_path / "out" / "fidelity" / name) as f:
                return list(csv.DictReader(line for line in f if not line.startswith("#")))

        exact = {(r["anchor_idx"], float(r["p"])): float(r["exact_mean"]) for r in read("exact.csv")}
        summary = read("seed_0/summary.csv")
        assert {(r["field"], r["formulation"]) for r in summary} == {
            (field, formulation) for field in ("oracle", "learned") for formulation in ("boundary", "volume")}
        for r in summary:
            assert float(r["exact_mean"]) == exact[(r["anchor_idx"], float(r["p"]))]
            assert float(r["abs_error"]) == abs(float(r["mean"]) - float(r["exact_mean"]))

    def test_fidelity_summary_means_are_their_cells_estimates(self, small_config, tmp_path):
        """Each summary row's mean is, bit for bit, the mean of its cell's 100 estimates.csv values.

        estimates.csv has no field column: its cells follow the summary rows' order, n_repeats rows each."""
        path, cfg = small_config
        n_repeats = 100
        path.write_text(json.dumps({**cfg, "fidelity": {"n_repeats": n_repeats, "n_dense": 1000},
                                    "estimator": {"n_samples": 16, "p_values": [1.0, 2.0]}}))
        assert main(["fidelity", "--config", str(path)]) == 0
        anchors = {}
        with open(tmp_path / "out" / "fidelity" / "exact.csv") as f:
            for r in csv.DictReader(line for line in f if not line.startswith("#")):
                anchors[r["anchor_idx"]] = [r["x0_0"], r["x0_1"]]
        with open(tmp_path / "out" / "fidelity" / "seed_0" / "estimates.csv") as f:
            estimates = list(csv.DictReader(line for line in f if not line.startswith("#")))
        with open(tmp_path / "out" / "fidelity" / "seed_0" / "summary.csv") as f:
            summary = list(csv.DictReader(line for line in f if not line.startswith("#")))
        assert len(summary) == 2 * 6 * 2 * 2 and len(estimates) == n_repeats * len(summary)
        for k, row in enumerate(summary):
            cell = estimates[k * n_repeats : (k + 1) * n_repeats]
            assert {(r["x0_0"], r["x0_1"], r["p"], r["formulation"]) for r in cell} == {
                (*anchors[row["anchor_idx"]], row["p"], row["formulation"])}
            assert float(row["mean"]) == float(np.array([float(r["value"]) for r in cell]).mean())

    def test_default_repetition_count_matches_protocol(self):
        assert DEFAULT_CONFIG["fidelity"]["n_repeats"] == 100
        assert DEFAULT_CONFIG["estimator"]["n_samples"] == 100
        assert DEFAULT_CONFIG["estimator"]["radius"] == 1.0
        assert DEFAULT_CONFIG["memorization"]["n_replicas"] == 250
        assert DEFAULT_CONFIG["memorization"]["n_base"] == 1000

    def test_seed_and_out_overrides(self, small_config, tmp_path):
        path, _ = small_config
        alt = tmp_path / "alt"
        assert main(["memorize", "--config", str(path), "--seed", "5", "--out", str(alt)]) == 0
        result = json.loads((alt / "memorization" / "result.json").read_text())
        assert result["completed_seeds"] == [5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_seed_reports_error_json(self, tmp_path):
        # an absurd learning rate makes training diverge for every seed
        cfg = {
            "training": {"epochs": 5, "n_train": 30, "learning_rate": 1e50},
            "memorization": {"n_base": 30, "n_replicas": 5, "grid_size": 4, "n_background": 3},
            "seeds": [0, 1],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["memorize", "--config", str(path)]) == 1
        errors_path = tmp_path / "out" / "memorization" / "errors.json"
        assert set(json.loads(errors_path.read_text())["failed_seeds"]) == {"0", "1"}
        # A good run into the same directory leaves no errors.json from the failed one beside its ok result.
        path.write_text(json.dumps({**cfg, "training": {"epochs": 20, "n_train": 30}}))
        assert main(["memorize", "--config", str(path)]) == 0
        assert json.loads((errors_path.parent / "result.json").read_text())["ok"] is True
        assert not errors_path.exists()

    def test_wide_mixture_dense_reference_completes_every_seed(self, small_config, tmp_path, capsys):
        """A mixture so wide that every score norm is below 1e-10 still gets a finite reference from every sample."""
        path, cfg = small_config
        path.write_text(json.dumps({**cfg, "gmm": {"sigma2": 1e12}, "seeds": [0, 1]}))
        assert main(["fidelity", "--config", str(path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        out = tmp_path / "out" / "fidelity"
        assert not (out / "errors.json").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["ok"] is True and result["completed_seeds"] == [0, 1]
        with open(out / "exact.csv") as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        assert len(rows) == 6 * len(cfg["estimator"]["p_values"])
        for r in rows:
            assert math.isfinite(float(r["exact_mean"])) and math.isfinite(float(r["exact_std_error"]))
            assert int(r["n_dense"]) == cfg["fidelity"]["n_dense"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bounds_summary_without_completed_seed(self, small_config, tmp_path):
        """With every seed failed, the bounds summary claims neither dominance nor a worst ratio."""
        path, cfg = small_config
        path.write_text(json.dumps({**cfg, "training": {"epochs": 5, "learning_rate": 1e50}, "seeds": [0, 1]}))
        assert main(["bounds", "--config", str(path)]) == 1
        summary = json.loads((tmp_path / "out" / "bounds" / "summary.json").read_text())
        assert summary["per_seed"] == {}
        assert summary["dominance_holds"] is None and summary["max_error_bound_ratio"] is None

    def test_failed_seed_leaves_no_rows_in_aggregates(self, small_config, tmp_path, monkeypatch):
        """A seed that fails after writing some of its rows adds none of them to the study tables."""
        path, cfg = small_config
        path.write_text(json.dumps({**cfg, "seeds": [0, 1], "estimator": {"n_samples": 16, "p_values": [1.0, 2.0]}}))
        real_heatmap = svgplot.heatmap

        def heatmap(out_path, *args, **kwargs):
            if out_path.endswith(os.path.join("seed_1", "grid_p2.svg")):
                raise RuntimeError("plot failed")
            return real_heatmap(out_path, *args, **kwargs)

        monkeypatch.setattr(svgplot, "heatmap", heatmap)
        assert main(["memorize", "--config", str(path)]) == 1
        out = tmp_path / "out" / "memorization"
        assert set(json.loads((out / "errors.json").read_text())["failed_seeds"]) == {"1"}
        with open(out / "percentiles.csv", newline="") as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        assert {row["seed"] for row in rows} == {"0"} and len(rows) == 3  # p=1, p=2, score_norm
        auc_summary = json.loads((out / "auc_summary.json").read_text())["auc"]
        assert all(len(block["per_seed"]) == 1 for block in auc_summary.values())
        detections = json.loads((out / "detection.json").read_text())["results"]
        assert {d["seed"] for d in detections} == {0}
        # Every criterion ranks low values first; each detection reads the smallest p's row of percentiles.csv.
        percentiles = {row["criterion"]: float(row["percentile"]) for row in rows if float(row["p"]) == 1.0}
        for d in detections:
            assert d["auc"] == auc(d["values_memorized"], d["values_background"])
            assert d["percentile"] == percentiles[d["criterion"]]

    def test_rerun_is_byte_identical(self, small_config, tmp_path):
        path, cfg = small_config
        target = tmp_path / "out" / "memorization" / "percentiles.csv"
        assert main(["memorize", "--config", str(path)]) == 0
        first = target.read_bytes()
        assert main(["memorize", "--config", str(path)]) == 0
        assert target.read_bytes() == first

    @pytest.mark.parametrize("command,override", [
        ("fidelity", {"gmm": {"means": [[0.0, 0.0], [1.0]]}}),
        ("fidelity", {"gmm": {"means": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.6, 0.5]}}),
        ("fidelity", {"training": {"embed_dim": 7}}),
        ("memorize", {"gmm": {"dim": 3}}),
        ("fidelity", {"fidelity": {"n_repeats": 1}}),
        ("memorize", {"experiment": "bounds"}),
        ("fidelity", {"gmm": {"weights": [0.9, 0.05, 0.05]}}),
        ("bounds", {"seeds": [-1]}),
        ("fidelity", {"estimator": {"p_values": [1.0, 1.0]}}),
        ("bounds", {"bounds": {"p_values": [1.0, 1]}}),
        ("bounds", {"bounds": {"p_values": [1.5, 1.5000001]}}),
        ("memorize", {"estimator": {"p_values": [1.0, 1.0000001]}}),
        ("bounds", {"estimator": {"normalize_by_volume": False}}),
        ("fidelity", {"schedule": {"beta_min": 0.5, "beta_max": 0.9}}),
        ("fidelity", {"schedule": {"beta_min": 1e-20}}),
        ("memorize", {"seeds": [0, 0]}),
        ("fidelity", {"training": {"batch_size": None}}),
        ("fidelity", {"schedule": {"beta_min": float("nan")}}),
        ("fidelity", {"gmm": {"means": [[float("nan"), 0.0], [1.0, 1.0]]}}),
        ("bounds", '{"estimator": {"radius": 1e400}}'),
        ("bounds", '{"estimator": {"radius": 1' + "0" * 400 + '}}'),
        ("bounds", '{"seeds": [1' + "0" * 5000 + ']}'),
        ("bounds", {"estimator": {"n_samples": 10**20}}),
        ("bounds", {"seeds": [2**64]}),
        ("fidelity", {"gmm": {"low": float("-inf")}}),
        ("fidelity", {"gmm": {"low": -1e308, "high": 1e308}}),
        ("fidelity", {"training": {"epochs": 2.0}}),
        ("memorize", {"memorization": {"grid_size": 5.0}}),
        ("bounds", {"seeds": [1.0]}),
    ], ids=["ragged_means", "weights_sum", "odd_embed_dim", "memorize_3d", "one_repeat", "experiment_mismatch",
            "weights_without_means", "negative_seed", "duplicate_p", "duplicate_bounds_p",
            "bounds_p_names_collide", "estimator_p_names_collide", "normalize_by_volume", "schedule_noise_reaches_one",
            "schedule_zero_least_noise", "duplicate_seeds", "null_batch_size", "nan_beta_min", "nan_mean",
            "radius_overflows", "radius_int_overflows", "int_past_digit_limit", "n_samples_past_maximum",
            "seed_past_2_64", "infinite_low", "range_overflows", "float_epochs", "float_grid_size", "float_seed"])
    def test_bad_config_rejected_at_load(self, small_config, tmp_path, capsys, command, override):
        path, cfg = small_config
        if isinstance(override, str):
            # JSON text json.dumps cannot write (1e400); its keys replace the config's, as the last duplicate wins.
            path.write_text(json.dumps(cfg)[:-1] + ", " + override[1:])
        else:
            path.write_text(json.dumps({**cfg, **override}))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_unusable_output_dir(self, small_config, tmp_path, capsys):
        """An output path below a regular file cannot be created: exit 2 before any run starts."""
        path, _ = small_config
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["bounds", "--config", str(path), "--out", str(blocker / "sub")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_rejects_negative_seed_flag(self, small_config, tmp_path, capsys):
        path, _ = small_config
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--config", str(path), "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejects_seed_flag_past_max_seed(self, small_config, tmp_path, capsys):
        """A seed names a directory, so the flag takes the schema's bound: 2**64 - 1 at most."""
        path, _ = small_config
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--config", str(path), "--seed", str(2**64)])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_removed_subcommands_are_invalid_choices(self, small_config, tmp_path, capsys, command):
        path, _ = small_config
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gmm", [{"dim": 1}, {"n_components": 1}], ids=["dim_1", "one_component"])
    def test_fidelity_degenerate_mixture(self, small_config, gmm):
        path, cfg = small_config
        path.write_text(json.dumps({**cfg, "gmm": gmm}))
        assert main(["fidelity", "--config", str(path)]) == 0

    def test_every_numeric_csv_cell_parses(self, small_config, tmp_path):
        """Every CSV cell outside the label columns reads back with float()."""
        path, _ = small_config
        for command in ("fidelity", "memorize", "bounds"):
            assert main([command, "--config", str(path)]) == 0
        labels = {"field", "anchor_kind", "formulation", "criterion"}
        out = tmp_path / "out"
        tables = sorted(table.relative_to(out).as_posix() for table in out.rglob("*.csv"))
        assert tables == [
            "bounds/seed_0/bound_reports_p1.csv", "bounds/seed_0/bound_surface_p1.csv",
            "fidelity/exact.csv", "fidelity/seed_0/estimates.csv", "fidelity/seed_0/field_errors.csv",
            "fidelity/seed_0/summary.csv", "memorization/percentiles.csv", "memorization/seed_0/grid_p1.csv",
        ]
        for table in tables:
            with open(out / table, newline="") as f:
                rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
            assert rows, table
            for row in rows:
                for column, cell in row.items():
                    if column not in labels:
                        float(cell)
