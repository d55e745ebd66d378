"""Timing wrappers around interboost's module-level names, and the per-layer
metrics computed from the spans they record.

Callers bind names with `from .x import y`, so a function is wrapped in every
module that calls it, under one span name per layer boundary. No source file
is edited: `Tracer.installed()` swaps the module attributes in this process
only and puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_obj(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_json_obj(cls, obj) -> "Span":
        return cls(*obj)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _rows_key(rows) -> str:
    return "all" if rows is None else _digest(rows.indices.tobytes())


# --- what each span records besides its times -------------------------------


def _note_load_csv(a, result):
    return {"cells": result.n_rows * (result.n_features + 1)}


def _note_kfold(a, result):
    return {"key": _digest(a["n_rows"], a["k"], a["seed"])}


def _note_cv_score_terms(a, result):
    ds, rows = a["ds"], a["rows"]
    target = ds.target if rows is None else ds.target[rows.indices]
    return {"key": _digest(a["terms"], target.tobytes(), a["k"], a["seed"])}


def _note_fit_logistic(a, result):
    return {"newton_iters": result.fit_info.n_iter}


def _note_train(a, result):
    params = a["params"]
    return {
        "rows": a["ds"].n_rows if a["rows"] is None else len(a["rows"]),
        "rows_key": _rows_key(a["rows"]),
        "max_depth": params.max_depth,
        "learning_rate": params.learning_rate,
        "trees": len(result.trees),
        "nodes": sum(len(tree.nodes) for tree in result.trees),
    }


def _note_predict(a, result):
    return {"rows": len(result)}


# (module, attribute, span name, note). A name wrapped in two modules that
# call each other (boosting.predict_matrix under experiment.predict) nests
# under itself; metrics count only the outermost span of a name.
TARGETS = (
    ("interboost.cli", "load_csv", "data.load_csv", _note_load_csv),
    ("interboost.linear", "kfold", "data.kfold", _note_kfold),
    ("interboost.experiment", "kfold", "data.kfold", _note_kfold),
    ("interboost.discovery", "cv_score_terms", "linear.cv_score_terms", _note_cv_score_terms),
    ("interboost.linear", "materialize", "linear.materialize", None),
    ("interboost.linear", "fit_ols", "linear.fit_ols", None),
    ("interboost.linear", "fit_logistic", "linear.fit_logistic", _note_fit_logistic),
    ("interboost.linear", "predict", "linear.predict", None),
    ("interboost.cli", "discover_constraints", "discovery.discover", None),
    ("interboost.cli", "discover_constraints_traced", "discovery.discover", None),
    ("interboost.experiment", "discover_constraints", "discovery.discover", None),
    ("interboost.boosting", "discover_constraints_for_residuals", "discovery.for_residuals", None),
    ("interboost.cli", "train", "boosting.train", _note_train),
    ("interboost.experiment", "train", "boosting.train", _note_train),
    ("interboost.cli", "predict_matrix", "boosting.predict", _note_predict),
    ("interboost.experiment", "predict", "boosting.predict", _note_predict),
    ("interboost.boosting", "predict_matrix", "boosting.predict", _note_predict),
    ("interboost.cli", "load_model", "boosting.load_model", None),
    ("interboost.boosting", "load_model", "boosting.load_model", None),
    ("interboost.experiment", "tune", "experiment.tune", None),
    ("interboost.cli", "benchmark", "experiment.benchmark", None),
)


class Tracer:
    """Records spans in memory; `spans[i].parent` indexes the enclosing span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, note=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record.attrs = note(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap each TARGETS attribute for a wrapper; restore all on exit."""
        saved = []
        try:
            for module_name, attr, name, note in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, name, note))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# --- per-layer metrics -------------------------------------------------------


COUNT = "count"
LAYER_UNITS = {
    "data.load_csv.s": "s",
    "data.load_csv.cells_per_s": "cells/s",
    "data.kfold.calls": COUNT,
    "data.kfold.s": "s",
    "data.kfold.distinct_ratio": "ratio",
    "linear.cv_score_terms.calls": COUNT,
    "linear.cv_score_terms.s": "s",
    "linear.cv_score_terms.p50_ms": "ms",
    "linear.cv_score_terms.p99_ms": "ms",
    "linear.cv_score_terms.distinct_ratio": "ratio",
    "linear.materialize.s": "s",
    "linear.fit_ols.calls": COUNT,
    "linear.fit_ols.s": "s",
    "linear.predict.s": "s",
    "linear.fit_logistic.calls": COUNT,
    "linear.fit_logistic.s": "s",
    "linear.fit_logistic.newton_iters": COUNT,
    "discovery.discover.calls": COUNT,
    "discovery.discover.s": "s",
    "discovery.discover.self_s": "s",
    "discovery.for_residuals.calls": COUNT,
    "discovery.for_residuals.s": "s",
    "boosting.train.calls": COUNT,
    "boosting.train.s": "s",
    "boosting.train.self_s": "s",
    "boosting.train.row_trees_per_s": "row_trees/s",
    "boosting.trees": COUNT,
    "boosting.nodes": COUNT,
    "boosting.predict.calls": COUNT,
    "boosting.predict.s": "s",
    "boosting.predict.rows_per_s": "rows/s",
    "boosting.load_model.s": "s",
    "experiment.tune.s": "s",
    "experiment.tune.trees": COUNT,
    "experiment.tune.useful_tree_ratio": "ratio",
    "experiment.benchmark.self_s": "s",
    "cli.benchmark.s": "s",
    "cli.benchmark.self_s": "s",
    "cli.discover.s": "s",
    "cli.discover.self_s": "s",
    "cli.train.s": "s",
    "cli.train.self_s": "s",
    "cli.predict.s": "s",
    "cli.predict.self_s": "s",
}

# Metrics that must repeat exactly from one traced run of a workload to the next.
EXACT_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit == COUNT or name.endswith("_ratio")
)


def median(values) -> float:
    """The median, or 0 for no values."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile; a single value is its own percentile, and no values give 0."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_time(spans: list[Span], index: int, children: dict[int, list[int]]) -> float:
    return spans[index].duration - sum(spans[c].duration for c in children.get(index, ()))


def layer_metrics(processes: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics of one traced job, given each of its processes' spans."""
    by_name: dict[str, list[tuple[list[Span], int]]] = {}
    self_s: dict[str, float] = {}
    for spans in processes:
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
        for i, s in enumerate(spans):
            if _ancestor_named(spans, i, s.name) is not None:
                continue
            by_name.setdefault(s.name, []).append((spans, i))
            self_s[s.name] = self_s.get(s.name, 0.0) + _self_time(spans, i, children)

    def picked(name):
        return [spans[i] for spans, i in by_name.get(name, ())]

    def total(name):
        return sum((s.duration for s in picked(name)), 0.0)

    def calls(name):
        return len(picked(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in picked(name))

    def distinct_ratio(name):
        keys = [s.attrs["key"] for s in picked(name)]
        return _ratio(len(set(keys)), len(keys))

    cv_ms = [s.duration * 1e3 for s in picked("linear.cv_score_terms")]
    out = {
        "data.load_csv.s": total("data.load_csv"),
        "data.load_csv.cells_per_s": _ratio(attr_sum("data.load_csv", "cells"), total("data.load_csv")),
        "data.kfold.calls": calls("data.kfold"),
        "data.kfold.s": total("data.kfold"),
        "data.kfold.distinct_ratio": distinct_ratio("data.kfold"),
        "linear.cv_score_terms.calls": calls("linear.cv_score_terms"),
        "linear.cv_score_terms.s": total("linear.cv_score_terms"),
        "linear.cv_score_terms.p50_ms": median(cv_ms),
        "linear.cv_score_terms.p99_ms": percentile(cv_ms, 99),
        "linear.cv_score_terms.distinct_ratio": distinct_ratio("linear.cv_score_terms"),
        "linear.materialize.s": total("linear.materialize"),
        "linear.fit_ols.calls": calls("linear.fit_ols"),
        "linear.fit_ols.s": total("linear.fit_ols"),
        "linear.predict.s": total("linear.predict"),
        "linear.fit_logistic.calls": calls("linear.fit_logistic"),
        "linear.fit_logistic.s": total("linear.fit_logistic"),
        "linear.fit_logistic.newton_iters": attr_sum("linear.fit_logistic", "newton_iters"),
        "discovery.discover.calls": calls("discovery.discover"),
        "discovery.discover.s": total("discovery.discover"),
        "discovery.discover.self_s": self_s.get("discovery.discover", 0.0),
        "discovery.for_residuals.calls": calls("discovery.for_residuals"),
        "discovery.for_residuals.s": total("discovery.for_residuals"),
        "boosting.train.calls": calls("boosting.train"),
        "boosting.train.s": total("boosting.train"),
        "boosting.train.self_s": self_s.get("boosting.train", 0.0),
        "boosting.train.row_trees_per_s": _ratio(
            sum(s.attrs["rows"] * s.attrs["trees"] for s in picked("boosting.train")),
            self_s.get("boosting.train", 0.0),
        ),
        "boosting.trees": attr_sum("boosting.train", "trees"),
        "boosting.nodes": attr_sum("boosting.train", "nodes"),
        "boosting.predict.calls": calls("boosting.predict"),
        "boosting.predict.s": total("boosting.predict"),
        "boosting.predict.rows_per_s": _ratio(attr_sum("boosting.predict", "rows"), total("boosting.predict")),
        "boosting.load_model.s": total("boosting.load_model"),
        "experiment.tune.s": total("experiment.tune"),
        "experiment.benchmark.self_s": self_s.get("experiment.benchmark", 0.0),
    }
    tune_trees, useful = _tune_trees(processes)
    out["experiment.tune.trees"] = tune_trees
    out["experiment.tune.useful_tree_ratio"] = _ratio(useful, tune_trees)
    for command in ("benchmark", "discover", "train", "predict"):
        out[f"cli.{command}.s"] = total(f"cli.{command}")
        out[f"cli.{command}.self_s"] = self_s.get(f"cli.{command}", 0.0)
    return out


def _ancestor_named(spans: list[Span], index: int, name: str) -> int | None:
    parent = spans[index].parent
    while parent is not None and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def _tune_trees(processes: list[list[Span]]) -> tuple[int, int]:
    """Trees grown inside `tune`, and how many of them the longest model per
    (depth, rate, fold) cell contains; the rest are regrown prefixes."""
    grown = 0
    longest: dict[tuple, int] = {}
    for process, spans in enumerate(processes):
        for i, s in enumerate(spans):
            tune = _ancestor_named(spans, i, "experiment.tune") if s.name == "boosting.train" else None
            if tune is None:
                continue
            a = s.attrs
            grown += a["trees"]
            cell = (process, tune, a["max_depth"], a["learning_rate"], a["rows_key"])
            longest[cell] = max(longest.get(cell, 0), a["trees"])
    return grown, sum(longest.values())
