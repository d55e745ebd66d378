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
from dataclasses import dataclass, field

import numpy as np

from .boosting import (
    ConstraintSchedule,
    Ensemble,
    FixedPartition,
    NoConstraints,
    PerResidual,
    TrainParams,
    predict,
    train,
)
from .data import DataError, Dataset, Task, kfold, train_test_split
from .data import checked_int, checked_real
from .discovery import ConstraintPartition, WrapperConfig, discover_constraints
from .linear import score_for_task
from .prng import mix_seed, permutation


@dataclass(frozen=True)
class TuningGrid:
    n_trees: tuple[int, ...] = (50, 100, 200, 300)
    max_depth: tuple[int, ...] = (3, 4, 6)
    learning_rate: tuple[float, ...] = (0.05, 0.1, 0.3)

    def __post_init__(self):
        for name in ("n_trees", "max_depth", "learning_rate"):
            axis = getattr(self, name)
            if not isinstance(axis, (list, tuple)) or not axis:
                raise ValueError(f"tuning grid axis {name} must be a nonempty list")
            object.__setattr__(self, name, tuple(axis))
        # TrainParams checks each field on its own, so checking every axis
        # entry once makes every grid point valid: tune cannot fail part-way.
        for n_trees in self.n_trees:
            TrainParams(n_trees, self.max_depth[0], self.learning_rate[0])
        for max_depth in self.max_depth:
            TrainParams(self.n_trees[0], max_depth, self.learning_rate[0])
        for learning_rate in self.learning_rate:
            TrainParams(self.n_trees[0], self.max_depth[0], learning_rate)


def tune(ds: Dataset, grid: TuningGrid, k: int, seed: int) -> TrainParams:
    """Pick (n_trees, max_depth, learning_rate) by k-fold CV of unconstrained
    boosting over all rows of `ds`; ties break toward fewer trees, then
    shallower, then lower rate."""
    fold_rows = kfold(ds.n_rows, k, seed)
    best_score = -np.inf
    best_params = None
    for n_trees in grid.n_trees:
        for max_depth in grid.max_depth:
            for learning_rate in grid.learning_rate:
                params = TrainParams(n_trees, max_depth, learning_rate)
                scores = []
                for tr, va in fold_rows:
                    ens = train(ds, tr, params, NoConstraints())
                    prediction = predict(ens, ds, va)
                    scores.append(score_for_task(ds.task, ds.target[va.indices], prediction))
                mean_score = float(np.mean(scores))
                if mean_score > best_score:
                    best_score = mean_score
                    best_params = params
    assert best_params is not None
    return best_params


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
        checked_real("test_fraction", self.test_fraction)
        checked_int("split_seed", self.split_seed)
        if checked_int("k", self.k) < 2:
            raise ValueError("k must be >= 2")
        if not isinstance(self.partial_x_list, (list, tuple)):
            raise TypeError(f"partial_x_list must be a list, got {self.partial_x_list!r}")
        object.__setattr__(self, "partial_x_list", tuple(self.partial_x_list))
        if any(checked_int("partial_x_list entry", x) < 1 for x in self.partial_x_list):
            raise ValueError("partial_x_list entries must be >= 1")
        if (
            checked_int("random_runs", self.random_runs) < 1
            or checked_int("random_groups", self.random_groups) < 1
        ):
            raise ValueError("random_runs and random_groups must be >= 1")


@dataclass(frozen=True)
class RandomRun:
    seed: int
    groups: tuple[tuple[int, ...], ...]
    test_score: float


@dataclass(frozen=True)
class VariantResult:
    variant_id: str
    constraint: dict | None
    test_score: float
    percent_change_from_baseline: float | None
    runs: tuple[RandomRun, ...] = ()


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    dataset_name: str
    task: Task
    tuned_params: TrainParams
    variants: tuple[VariantResult, ...]
    seeds: dict


def percent_change(baseline: float, variant: float) -> float | None:
    """(variant - baseline) / |baseline| * 100; None when the baseline is zero."""
    if baseline == 0.0:
        return None
    return (variant - baseline) / abs(baseline) * 100.0


def _test_score(ens: Ensemble, test_ds: Dataset) -> float:
    prediction = predict(ens, test_ds, None)
    return score_for_task(test_ds.task, test_ds.target, prediction)


def benchmark(ds: Dataset, cfg: BenchmarkConfig, dataset_name: str = "dataset") -> BenchmarkReport:
    """Run the full variant comparison on one holdout split.

    Derived seeds: tuning folds use mix_seed(split_seed, 1); random-partition
    run i uses mix_seed(split_seed, 2, i). All are recorded in the report.
    """
    if cfg.random_groups > ds.n_features:  # checked before the long tuning run
        raise DataError(f"random_groups {cfg.random_groups} exceeds the {ds.n_features} features")
    train_ds, test_ds = train_test_split(ds, cfg.test_fraction, cfg.split_seed)
    tune_seed = mix_seed(cfg.split_seed, 1)
    params = tune(train_ds, cfg.grid, cfg.k, tune_seed)
    base_partition = discover_constraints(train_ds, None, cfg.wrapper_cfg)

    def score(schedule: ConstraintSchedule) -> float:
        return _test_score(train(train_ds, None, params, schedule), test_ds)

    baseline_score = score(NoConstraints())
    full_score = score(FixedPartition(base_partition))
    results = [
        VariantResult("baseline", None, baseline_score, percent_change(baseline_score, baseline_score)),
        VariantResult(
            "full_interaction",
            {"partition": base_partition.to_json_obj()},
            full_score,
            percent_change(baseline_score, full_score),
        ),
    ]

    for x in cfg.partial_x_list:
        partial_score = score(PerResidual(x, cfg.wrapper_cfg, base_partition))
        results.append(
            VariantResult(
                f"interaction_{x}",
                {"first_x": x, "first_tree_partition": base_partition.to_json_obj()},
                partial_score,
                percent_change(baseline_score, partial_score),
            )
        )

    random_seeds = [mix_seed(cfg.split_seed, 2, i) for i in range(cfg.random_runs)]
    runs = []
    for run_seed in random_seeds:
        partition = random_partition(train_ds.n_features, cfg.random_groups, run_seed)
        runs.append(RandomRun(run_seed, partition.groups, score(FixedPartition(partition))))
    random_mean = float(np.mean([r.test_score for r in runs]))
    results.append(
        VariantResult(
            "random_interaction",
            {"n_groups": cfg.random_groups, "n_runs": cfg.random_runs},
            random_mean,
            percent_change(baseline_score, random_mean),
            runs=tuple(runs),
        )
    )

    return BenchmarkReport(
        dataset_name=dataset_name,
        task=ds.task,
        tuned_params=params,
        variants=tuple(results),
        seeds={
            "split_seed": cfg.split_seed,
            "tune_seed": tune_seed,
            "wrapper_seed": cfg.wrapper_cfg.seed,
            "random_seeds": random_seeds,
        },
    )


def report_to_json_obj(report: BenchmarkReport) -> dict:
    return {
        "dataset": report.dataset_name,
        "task": report.task.value,
        "tuned_params": report.tuned_params.to_json_obj(),
        "seeds": report.seeds,
        "variants": [
            {
                "variant": v.variant_id,
                "constraint": v.constraint,
                "test_score": v.test_score,
                "percent_change_from_baseline": v.percent_change_from_baseline,
                **(
                    {
                        "runs": [
                            {
                                "seed": r.seed,
                                "groups": [list(g) for g in r.groups],
                                "test_score": r.test_score,
                            }
                            for r in v.runs
                        ]
                    }
                    if v.runs
                    else {}
                ),
            }
            for v in report.variants
        ],
    }


def report_to_csv(report: BenchmarkReport) -> str:
    """Flat one-row-per-variant CSV for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "task", "variant", "test_score", "percent_change_from_baseline"])
    for v in report.variants:
        change = "" if v.percent_change_from_baseline is None else repr(v.percent_change_from_baseline)
        writer.writerow([report.dataset_name, report.task.value, v.variant_id, repr(v.test_score), change])
    return buf.getvalue()
