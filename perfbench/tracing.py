"""In-memory spans and counts around the public functions of each plaplace layer.

``install`` rebinds each function where its caller looks it up (for
example ``plaplace.experiments.train``, ``plaplace.gmm.score`` and
``MlpScoreModel.predict_noise`` on the class), so nothing under ``src/``
changes.  A span is ``[name, start, end, parent]`` with ``parent`` the index
of the enclosing span (-1 at the top).  ``layer_metrics`` reduces spans and
counts to the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import builtins
import functools
import math
import statistics
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _wrap(tracer: Tracer, fn, name: str, count=None):
    """fn traced as a span called ``name``; ``count(counts, args, kwargs, result)`` adds counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return traced


def _patch(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, count))


def _count_train_steps(counts, args, kwargs, result) -> None:
    n = _rows(_arg(args, kwargs, 0, "data"))
    cfg = _arg(args, kwargs, 2, "cfg")
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    counts["score_model.train.steps"] += cfg.epochs * math.ceil(n / batch)


def _count_estimate(counts, args, kwargs, result) -> None:
    counts["estimators.samples_used"] += result.n_used
    counts["estimators.samples_drawn"] += result.n_used + result.singular_hits


class _TracedFile:
    """A file opened for writing whose span ends when it is closed."""

    def __init__(self, tracer: Tracer, f, idx: int) -> None:
        self._tracer, self._f, self._idx = tracer, f, idx

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._f.close()
        self._tracer.end(self._idx)

    def __getattr__(self, attr):
        return getattr(self._f, attr)


def install(tracer: Tracer) -> None:
    """Trace every layer boundary the CLI crosses."""
    import plaplace.bounds as bounds
    import plaplace.cli as cli
    import plaplace.estimators as estimators
    import plaplace.experiments as experiments
    import plaplace.gmm as gmm
    import plaplace.memorization as memorization
    import plaplace.score_model as score_model
    import plaplace.svgplot as svgplot

    def count_to(key, value):
        def count(counts, args, kwargs, result):
            counts[key] += value(args, kwargs, result)

        return count

    _patch(tracer, cli, "load_config", "config.load")
    _patch(tracer, experiments, "averaged_p_laplace_dense", "gmm.dense",
           count_to("gmm.dense.points", lambda a, kw, r: _arg(a, kw, 4, "n")))
    _patch(tracer, gmm, "score", "gmm.score",
           count_to("gmm.score.points", lambda a, kw, r: _rows(_arg(a, kw, 1, "x"))))
    _patch(tracer, experiments, "train", "score_model.train", _count_train_steps)
    _patch(tracer, score_model.MlpScoreModel, "predict_noise", "score_model.predict",
           count_to("score_model.predict.points", lambda a, kw, r: _rows(_arg(a, kw, 1, "x"))))
    _patch(tracer, experiments, "reverse_sample", "score_model.reverse_sample",
           count_to("score_model.reverse_sample.points", lambda a, kw, r: _arg(a, kw, 2, "n")))
    for module in (estimators, memorization, experiments):
        _patch(tracer, module, "estimate_boundary", "estimators.boundary", _count_estimate)
    _patch(tracer, estimators, "estimate_volume", "estimators.volume", _count_estimate)
    _patch(tracer, experiments, "grid_p_laplace", "memorization.grid",
           count_to("memorization.grid.nodes", lambda a, kw, r: _rows(_arg(a, kw, 1, "grid").points)))
    _patch(tracer, bounds, "validate_bound", "bounds.validate",
           count_to("bounds.validate.anchors", lambda a, kw, r: len(r)))
    _patch(tracer, bounds, "bound_surface", "bounds.surface")
    for attr in ("heatmap", "histogram", "scatter"):
        _patch(tracer, svgplot, attr, "svgplot", count_to("svgplot.files", lambda a, kw, r: 1))

    # Artifact writing: the writer helpers, plus every file the drivers open for writing.
    _patch(tracer, experiments, "_write_json", "experiments.write")
    _patch(tracer, experiments, "write_estimates_csv", "experiments.write")
    _patch(tracer, memorization, "write_grid_csv", "experiments.write")
    _patch(tracer, bounds, "write_bound_reports_csv", "experiments.write")

    def traced_open(file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return f
        return _TracedFile(tracer, f, tracer.begin("experiments.write"))

    experiments.open = traced_open

    real_per_seed = experiments._per_seed

    def per_seed(cfg, fn):
        return real_per_seed(cfg, _wrap(tracer, fn, "experiments.seed"))

    experiments._per_seed = per_seed


def _durations(spans: list[list]) -> dict[str, dict[str, list[float]]]:
    """Per span name: outermost durations (spans not inside a same-name span) and self times."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, list[float]]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"outer": [], "self": []})
        entry["self"].append(end - start - child_time[i])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["outer"].append(end - start)
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one traced CLI call; layers the call never reached read 0."""
    durations = _durations(trace["spans"])
    counts = trace["counts"]

    def calls(name):
        return len(durations.get(name, {}).get("self", []))

    def total(name):
        return sum(durations.get(name, {}).get("outer", []))

    def self_total(name):
        return sum(durations.get(name, {}).get("self", []))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    seeds = durations.get("experiments.seed", {}).get("outer", [])
    m = {
        "gmm.dense.calls": calls("gmm.dense"),
        "gmm.dense.points": counts.get("gmm.dense.points", 0),
        "gmm.dense.s": total("gmm.dense"),
        "gmm.score.calls": calls("gmm.score"),
        "gmm.score.points": counts.get("gmm.score.points", 0),
        "gmm.score.s": total("gmm.score"),
        "score_model.train.s": total("score_model.train"),
        "score_model.train.steps": counts.get("score_model.train.steps", 0),
        "score_model.predict.calls": calls("score_model.predict"),
        "score_model.predict.points": counts.get("score_model.predict.points", 0),
        "score_model.predict.s": total("score_model.predict"),
        "score_model.reverse_sample.s": total("score_model.reverse_sample"),
        "score_model.reverse_sample.points": counts.get("score_model.reverse_sample.points", 0),
        "estimators.boundary.calls": calls("estimators.boundary"),
        "estimators.boundary.self_s": self_total("estimators.boundary"),
        "estimators.volume.calls": calls("estimators.volume"),
        "estimators.volume.self_s": self_total("estimators.volume"),
        "estimators.useful_ratio": ratio(counts.get("estimators.samples_used", 0),
                                         counts.get("estimators.samples_drawn", 0)),
        "memorization.grid.s": total("memorization.grid"),
        "memorization.grid.nodes": counts.get("memorization.grid.nodes", 0),
        "bounds.validate.s": total("bounds.validate"),
        "bounds.validate.self_s": self_total("bounds.validate"),
        "bounds.validate.anchors": counts.get("bounds.validate.anchors", 0),
        "bounds.surface.s": total("bounds.surface"),
        "experiments.seed.s.median": statistics.median(seeds) if seeds else 0.0,
        "experiments.seed.s.max": max(seeds, default=0.0),
        "experiments.write.s": self_total("experiments.write"),
        "svgplot.s": total("svgplot"),
        "svgplot.files": counts.get("svgplot.files", 0),
        "config.load.s": total("config.load"),
    }
    m["score_model.train.us_per_step"] = ratio(m["score_model.train.s"], m["score_model.train.steps"], 1e6)
    m["score_model.predict.points_per_call"] = ratio(m["score_model.predict.points"],
                                                     m["score_model.predict.calls"])
    m["memorization.grid.us_per_node"] = ratio(m["memorization.grid.s"], m["memorization.grid.nodes"], 1e6)
    return m
