"""Benchmark harness: grid tuning, then each constraint schedule scored
against the unconstrained baseline.

Every report variant trains one `boosting` schedule on one shared
train/test split with one shared set of tuned hyperparameters, so the
schedule is the only thing that differs between them:

  baseline           NoConstraints()
  full_interaction   FixedPartition(p), p discovered once on the original target
  interaction_x      PerResidual(x, ...): p for tree 1, residual rediscovery to tree x
  random_interaction FixedPartition of a seeded random partition (score averaged over runs)
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .boosting import (
    Ensemble,
    FixedPartition,
    NoConstraints,
    PerResidual,
    TrainParams,
    predict,
    train,
)
from .data import DataError, Dataset, kfold, take_rows, train_test_split
from .data import checked_int, checked_real
from .discovery import ConstraintPartition, WrapperConfig, discover_constraints
from .linear import score_for_task
from .prng import mix_seed, permutation


@dataclass(frozen=True)
class TuningGrid:
    """The cells `tune` tries, each checked as `TrainParams`. The axes become
    distinct and ascending, so grid order is tie-break order."""

    n_trees: tuple[int, ...] = (50, 100, 200, 300)
    max_depth: tuple[int, ...] = (3, 4, 6)
    learning_rate: tuple[float, ...] = (0.05, 0.1, 0.3)

    def __post_init__(self):
        axes = ("n_trees", "max_depth", "learning_rate")
        for name in axes:
            axis = getattr(self, name)
            if not isinstance(axis, (list, tuple)) or not axis:
                raise ValueError(f"tuning grid axis {name} must be a nonempty list")
        for cell in itertools.product(self.n_trees, self.max_depth, self.learning_rate):
            TrainParams(*cell)
        for name in axes:
            object.__setattr__(self, name, tuple(sorted(dict.fromkeys(getattr(self, name)))))


def tune(ds: Dataset, grid: TuningGrid, k: int, seed: int) -> TrainParams:
    """The (n_trees, max_depth, learning_rate) of best finite mean score in
    k-fold CV of unconstrained boosting on all rows of `ds`, the first tied
    cell in grid order (fewer trees, shallower, lower rate), else DataError.

    Training is deterministic, so the model of n trees is the first n trees
    of a longer run: each (depth, rate, fold) trains once at the largest
    grid `n_trees`, and each grid size n scores that run's `ens[:n]` on the
    fold's validation rows with `_test_score`, as `benchmark` scores its
    variants on the test rows."""
    fold_rows = kfold(ds.n_rows, k, seed)
    validation = [take_rows(ds, va.indices) for _, va in fold_rows]
    fold_scores: dict[tuple, list[float]] = {}
    for max_depth, learning_rate in itertools.product(grid.max_depth, grid.learning_rate):
        params = TrainParams(grid.n_trees[-1], max_depth, learning_rate)
        for (tr, _), va_ds in zip(fold_rows, validation):
            ens = train(ds, tr, params, NoConstraints())
            for n_trees in grid.n_trees:
                # a score that overflows is NaN, which no cell picks
                with np.errstate(over="ignore", invalid="ignore"):
                    score = _test_score(ens[:n_trees], va_ds)
                fold_scores.setdefault((n_trees, max_depth, learning_rate), []).append(score)
    means = {cell: float(np.mean(fold_scores[cell])) for cell in sorted(fold_scores)}  # grid order
    best = max((cell for cell in means if means[cell] > -np.inf), key=means.get, default=None)
    if best is None:
        raise DataError("no grid cell has a finite mean score: the targets are too large to score")
    return TrainParams(*best)


def random_partition(n_features: int, n_groups: int, seed: int) -> ConstraintPartition:
    """Seeded shuffle of the feature indices dealt round-robin into groups."""
    if not 1 <= n_groups <= n_features:
        raise ValueError(
            f"n_groups must be in [1, n_features], got {n_groups} for {n_features} features"
        )
    perm = permutation(n_features, seed)
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    for position, feature in enumerate(perm):
        groups[position % n_groups].append(feature)
    return ConstraintPartition(tuple(tuple(g) for g in groups)).validate_for(n_features)


@dataclass(frozen=True)
class BenchmarkConfig:
    test_fraction: float = 0.25
    split_seed: int = 0
    grid: TuningGrid = field(default_factory=TuningGrid)
    k: int = 3
    wrapper_cfg: WrapperConfig = field(default_factory=WrapperConfig)
    partial_x_list: tuple[int, ...] = (1, 5, 10, 20, 30)
    random_runs: int = 5
    random_groups: int = 2

    def __post_init__(self):
        if not 0.0 < checked_real("test_fraction", self.test_fraction) < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        checked_int("split_seed", self.split_seed)
        if checked_int("k", self.k) < 2:
            raise ValueError("k must be >= 2")
        if not isinstance(self.partial_x_list, (list, tuple)):
            raise TypeError(f"partial_x_list must be a list, got {self.partial_x_list!r}")
        object.__setattr__(self, "partial_x_list", tuple(self.partial_x_list))
        if any(checked_int("partial_x_list entry", x) < 1 for x in self.partial_x_list):
            raise ValueError("partial_x_list entries must be >= 1")
        repeated = [x for i, x in enumerate(self.partial_x_list) if x in self.partial_x_list[:i]]
        if repeated:
            raise ValueError(f"partial_x_list repeats the entry {repeated[0]}")
        if (
            checked_int("random_runs", self.random_runs) < 1
            or checked_int("random_groups", self.random_groups) < 1
        ):
            raise ValueError("random_runs and random_groups must be >= 1")


def percent_change(baseline: float, variant: float) -> float | None:
    """(variant - baseline) / |baseline| * 100; None when the baseline is zero."""
    if baseline == 0.0:
        return None
    return (variant - baseline) / abs(baseline) * 100.0


def _test_score(ens: Ensemble, test_ds: Dataset) -> float:
    prediction = predict(ens, test_ds)
    return score_for_task(test_ds.task, test_ds.target, prediction)


def _partial_x_models(
    train_ds: Dataset, params: TrainParams, cfg: BenchmarkConfig, base_partition: ConstraintPartition
) -> dict[int, Ensemble]:
    """The `PerResidual(x, ...)` model for each x of `cfg.partial_x_list`.

    For x below the largest entry, PerResidual(x)'s first min(x, n_trees)
    rounds are those of the largest entry's run, and every later round is
    unconstrained; so the largest x is trained once and each smaller x
    continues its first min(x, n_trees) trees under NoConstraints."""
    if not cfg.partial_x_list:
        return {}
    longest_x = max(cfg.partial_x_list)
    longest = train(train_ds, None, params, PerResidual(longest_x, cfg.wrapper_cfg, base_partition))
    models = {longest_x: longest}
    for x in cfg.partial_x_list:
        if x not in models:
            models[x] = train(train_ds, None, params, NoConstraints(), longest[: min(x, params.n_trees)])
    return models


def benchmark(ds: Dataset, cfg: BenchmarkConfig, dataset_name: str = "dataset") -> dict:
    """Run the full variant comparison on one holdout split and return the
    `report.json` document (schema in the README).

    Derived seeds: tuning folds use mix_seed(split_seed, 1); random-partition
    run i uses mix_seed(split_seed, 2, i). All are recorded in the report.

    The baseline, `full_interaction` and each random run are scored once
    per canonical partition: equal groups grow the same trees, and so does
    one group of every feature and no constraint, so a run whose groups
    were scored already reuses that score.
    """
    if cfg.random_groups > ds.n_features:  # checked before the long tuning run
        raise DataError(f"random_groups {cfg.random_groups} exceeds the {ds.n_features} features")
    train_ds, test_ds = train_test_split(ds, cfg.test_fraction, cfg.split_seed)
    tune_seed = mix_seed(cfg.split_seed, 1)
    params = tune(train_ds, cfg.grid, cfg.k, tune_seed)
    base_partition = discover_constraints(train_ds, cfg.wrapper_cfg)

    one_group = (tuple(range(train_ds.n_features)),)
    scores: dict[tuple[tuple[int, ...], ...], float] = {}

    def score(partition: ConstraintPartition | None) -> float:
        """The test score of `FixedPartition(partition)`, None for no constraint."""
        key = one_group if partition is None else partition.canonical()
        if key not in scores:
            schedule = NoConstraints() if partition is None else FixedPartition(partition)
            scores[key] = _test_score(train(train_ds, None, params, schedule), test_ds)
        return scores[key]

    baseline_score = score(None)

    def variant(variant_id, constraint, test_score, **runs) -> dict:
        change = percent_change(baseline_score, test_score)
        return dict(variant=variant_id, constraint=constraint, test_score=test_score,
                    percent_change_from_baseline=change, **runs)

    base_groups = base_partition.to_json_obj()
    results = [
        variant("baseline", None, baseline_score),
        variant("full_interaction", {"partition": base_groups}, score(base_partition)),
    ]
    partial_models = _partial_x_models(train_ds, params, cfg, base_partition)
    for x in cfg.partial_x_list:
        constraint = {"first_x": x, "first_tree_partition": base_groups}
        results.append(variant(f"interaction_{x}", constraint, _test_score(partial_models[x], test_ds)))

    random_seeds = [mix_seed(cfg.split_seed, 2, i) for i in range(cfg.random_runs)]
    runs = []
    for run_seed in random_seeds:
        partition = random_partition(train_ds.n_features, cfg.random_groups, run_seed)
        runs.append(dict(seed=run_seed, groups=partition.to_json_obj(), test_score=score(partition)))
    random_mean = float(np.mean([r["test_score"] for r in runs]))
    constraint = {"n_groups": cfg.random_groups, "n_runs": cfg.random_runs}
    results.append(variant("random_interaction", constraint, random_mean, runs=runs))

    return {
        "dataset": dataset_name,
        "task": ds.task.value,
        "tuned_params": asdict(params),
        "seeds": {
            "split_seed": cfg.split_seed,
            "tune_seed": tune_seed,
            "wrapper_seed": cfg.wrapper_cfg.seed,
            "random_seeds": random_seeds,
        },
        "variants": results,
    }


def report_to_csv(report: dict) -> str:
    """Flat one-row-per-variant CSV of a `benchmark` report, for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "task", "variant", "test_score", "percent_change_from_baseline"])
    for v in report["variants"]:
        change = v["percent_change_from_baseline"]
        row = [report["dataset"], report["task"], v["variant"], repr(v["test_score"])]
        writer.writerow(row + ["" if change is None else repr(change)])
    return buf.getvalue()
