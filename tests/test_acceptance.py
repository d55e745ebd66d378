"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Statistical criteria use frozen seeds, so results are reproducible
bit-for-bit; "m of 10 seeds" thresholds are evaluated on those fixed
streams. The partial-vs-full comparison is a soft criterion: it reports
and warns but never fails the suite.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from interboost.boosting import (
    FixedPartition,
    NoConstraints,
    PerResidual,
    TrainParams,
    predict,
    train,
)
from interboost.cli import main as cli_main
from interboost.data import Dataset, Task, load_csv, save_csv, train_test_split
from interboost.discovery import ConstraintPartition, WrapperConfig, discover_constraints
from interboost.experiment import TuningGrid, random_partition, tune
from interboost.linear import (
    accuracy,
    fit_ols,
    logistic_grad,
    logistic_loglik,
    materialize,
    sigmoid,
)
from interboost.synth import paired_products_dataset, shifted_products_dataset
from oracles import (
    assert_paths_respect_partition,
    brute_force_stump,
    central_difference_grad,
    pinv_least_squares,
    reference_leaf_values,
)

# CV-noise-aware epsilon for the statistical wrapper criteria (see ledger /
# test_discovery.py); the package default stays at the float-noise level.
EPS = 5e-3

REPO_ROOT = Path(__file__).resolve().parent.parent
CLEVE_CSV = REPO_ROOT / "data" / "cleve.csv"


def report_line(number, name, status):
    print(f"ACCEPTANCE {number} {name}: {status}")


def test_criterion_1_constraint_enforcement_fuzz():
    """100 fuzzed training runs, zero root-to-leaf paths mixing groups."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n_rows = int(rng.integers(30, 501))
        n_features = int(rng.integers(2, 11))
        task = Task.REGRESSION if trial % 3 else Task.BINARY_CLASSIFICATION
        X = rng.normal(size=(n_rows, n_features))
        if task is Task.REGRESSION:
            y = rng.normal(size=n_rows)
        else:
            y = (X[:, 0] + rng.normal(size=n_rows) > 0).astype(float)
        ds = Dataset(X, tuple(f"x{i}" for i in range(n_features)), y, task)
        partition = random_partition(n_features, int(rng.integers(1, n_features + 1)), trial)
        params = TrainParams(
            n_trees=int(rng.integers(1, 13)),
            max_depth=int(rng.integers(1, 6)),
            learning_rate=float(rng.uniform(0.05, 1.0)),
            reg_lambda=float(rng.choice([0.0, 0.5, 1.0])),
            gamma=float(rng.choice([0.0, 0.0, 0.1])),
            min_child_samples=int(rng.integers(1, 4)),
        )
        ens = train(ds, None, params, FixedPartition(partition))
        for tree in ens.trees:
            assert_paths_respect_partition(tree, partition)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"fuzz suite took {elapsed:.1f}s"
    report_line(1, "constraint enforcement fuzz", f"PASS ({elapsed:.1f}s)")


def test_criterion_2_stump_oracle_equivalence():
    """Depth-1 boosting equals exhaustive best-stump search on 50 datasets."""
    rng = np.random.default_rng(7)
    for trial in range(50):
        n_rows = int(rng.integers(8, 101))
        n_features = int(rng.integers(1, 6))
        X = rng.normal(size=(n_rows, n_features))
        y = rng.normal(size=n_rows)
        ds = Dataset(X, tuple(f"x{i}" for i in range(n_features)), y, Task.REGRESSION)
        for reg_lambda, tol in ((0.0, None), (1.0, 1e-10)):
            params = TrainParams(
                n_trees=1,
                max_depth=1,
                learning_rate=1.0,
                reg_lambda=reg_lambda,
                gamma=0.0,
                min_child_samples=1,
                min_child_hessian=0.0,
            )
            ens = train(ds, None, params)
            base = float(np.mean(y))
            g = np.full(n_rows, base) - y
            h = np.ones(n_rows)
            oracle = brute_force_stump(X, g, h, reg_lambda=reg_lambda)
            tree = ens.trees[0]
            if oracle is None:
                assert len(tree.nodes) == 1
                continue
            feature, threshold, w_left, w_right = oracle
            root = tree.nodes[0]
            assert root["feature"] == feature
            assert root["threshold"] == threshold
            engine_left = tree.nodes[root["left"]]["weight"]
            engine_right = tree.nodes[root["right"]]["weight"]
            if tol is None:
                assert engine_left == w_left and engine_right == w_right
            else:
                assert abs(engine_left - w_left) <= tol
                assert abs(engine_right - w_right) <= tol
    report_line(2, "stump oracle equivalence", "PASS")


def test_criterion_3_linear_model_oracles():
    """OLS vs SVD pseudo-inverse solve; logistic gradient vs finite differences."""
    rng = np.random.default_rng(31)
    for trial in range(50):
        n = int(rng.integers(6, 41))
        p = int(rng.integers(1, 6))
        A = rng.normal(size=(n, p))
        if trial % 3 == 0 and p >= 2:
            A[:, -1] = A[:, 0]  # exact collinearity
        y = rng.normal(size=n)
        with_ones = np.column_stack([A, np.ones(n)])
        model = fit_ols(with_ones[None], y)
        engine_fit = A @ model.coefficients[0] + model.intercept[0]
        oracle_fit = with_ones @ pinv_least_squares(with_ones, y)
        np.testing.assert_allclose(engine_fit, oracle_fit, atol=1e-6)

    for trial in range(50):
        n = int(rng.integers(12, 40))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n).astype(float)
        ds = Dataset(X, tuple(f"x{i}" for i in range(p)), y, Task.BINARY_CLASSIFICATION)
        features = tuple(range(p))
        A, _ = materialize(ds, None, features, features if p >= 2 else ())
        for _ in range(10):
            theta = rng.normal(scale=0.7, size=A.shape[1])
            analytic = logistic_grad(A, y, theta, sigmoid(A @ theta))
            numeric = central_difference_grad(lambda t: logistic_loglik(A @ t, y, t), theta)
            denom = max(float(np.max(np.abs(analytic))), 1e-12)
            assert float(np.max(np.abs(analytic - numeric))) / denom <= 1e-4
    report_line(3, "linear model oracles", "PASS")


def test_criterion_4_wrapper_recovery():
    """Paired-product target: {0,1} and {2,3} grouped, separately, >= 8/10 seeds."""
    started = time.monotonic()
    hits = 0
    partitions = []
    for seed in range(10):
        ds = paired_products_dataset(2000, seed=seed)
        partition = discover_constraints(ds, WrapperConfig(seed=seed, epsilon=EPS))
        groups = {f: gi for gi, g in enumerate(partition.groups) for f in g}
        ok = groups[0] == groups[1] and groups[2] == groups[3] and groups[0] != groups[2]
        hits += ok
        partitions.append(partition.to_json_obj())
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"wrapper recovery took {elapsed:.1f}s"
    assert hits >= 8, f"only {hits}/10 seeds recovered: {partitions}"
    report_line(4, "wrapper recovery", f"PASS ({hits}/10, {elapsed:.1f}s)")


def _rmse(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def test_criterion_5_constraint_benefit():
    """Discovered partition beats a mis-specified one on test RMSE, >= 8/10.

    Both variants share the same tuned params and the same split; only the
    fixed partition differs (wrapper output vs [[0,2],[1,3],[4],[5]], which
    cannot place either true product pair inside one tree).
    """
    misspecified = ConstraintPartition(((0, 2), (1, 3), (4,), (5,)))
    grid = TuningGrid((50, 100), (3, 4), (0.1,))
    wins = 0
    for seed in range(10):
        ds = paired_products_dataset(2000, seed=seed)
        train_ds, test_ds = train_test_split(ds, 0.25, seed)
        params = tune(train_ds, grid, k=3, seed=seed)
        discovered = discover_constraints(train_ds, WrapperConfig(seed=seed, epsilon=EPS))

        full = train(train_ds, None, params, FixedPartition(discovered))
        bad = train(train_ds, None, params, FixedPartition(misspecified))
        rmse_full = _rmse(predict(full, test_ds), test_ds.target)
        rmse_bad = _rmse(predict(bad, test_ds), test_ds.target)
        wins += rmse_full <= rmse_bad
    assert wins >= 8, f"discovered partition won only {wins}/10 seeds"
    report_line(5, "constraint benefit", f"PASS ({wins}/10)")


def test_criterion_6_partial_vs_full_soft_check():
    """Soft criterion: partial constraints track shifting residual structure.

    On y = x0*x1 + 0.3*x2*x3 with shallow (depth-2) trees, per-residual
    rediscovery for the first 5 or 10 trees should match or beat the single
    full-run partition on test RMSE in >= 6/10 seeds. Reported and warned
    on failure, never failed: the underlying effect is dataset-dependent.
    """
    params = TrainParams(150, 2, 0.3)
    wins = 0
    for seed in range(10):
        ds = shifted_products_dataset(2000, seed=seed)
        train_ds, test_ds = train_test_split(ds, 0.25, seed)
        cfg = WrapperConfig(seed=seed, epsilon=EPS)
        base_partition = discover_constraints(train_ds, cfg)

        full = train(train_ds, None, params, FixedPartition(base_partition))
        rmse_full = _rmse(predict(full, test_ds), test_ds.target)

        rmse_partial = min(
            _rmse(
                predict(
                    train(train_ds, None, params, PerResidual(x, cfg, base_partition)),
                    test_ds,
                ),
                test_ds.target,
            )
            for x in (5, 10)
        )
        wins += rmse_partial <= rmse_full
    if wins >= 6:
        report_line(6, "partial vs full ordering (soft)", f"PASS ({wins}/10)")
    else:
        report_line(6, "partial vs full ordering (soft)", f"WARN ({wins}/10)")
        warnings.warn(
            f"partial interaction beat full in only {wins}/10 seeds; "
            "soft criterion, not failing the suite"
        )


def _cleve_target_column(path):
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    for name in ("target", "class", "binaryClass", "label", "y"):
        if name in header:
            return name
    return None


@pytest.mark.skipif(not CLEVE_CSV.exists(), reason="data/cleve.csv not present (see README)")
def test_criterion_7_cleve_qualitative_anchor():
    """Published-style sanity on the cleve table: baseline accuracy in the
    84.6 +/- 5 point band, and some seeded random 2-group partition beats
    the baseline on some tested split."""
    target = _cleve_target_column(CLEVE_CSV)
    assert target is not None, "no recognizable target column in data/cleve.csv"
    ds = load_csv(CLEVE_CSV, target, Task.BINARY_CLASSIFICATION)
    grid = TuningGrid((50, 100), (3, 4), (0.1, 0.3))

    baseline_scores = []
    random_beats_baseline = False
    for split_seed in (0, 1, 2):
        train_ds, test_ds = train_test_split(ds, 0.25, split_seed)
        params = tune(train_ds, grid, k=3, seed=split_seed)
        baseline = train(train_ds, None, params, NoConstraints())
        base_acc = accuracy(test_ds.target, predict(baseline, test_ds))
        baseline_scores.append(base_acc)
        for partition_seed in range(20):
            partition = random_partition(train_ds.n_features, 2, partition_seed)
            ens = train(train_ds, None, params, FixedPartition(partition))
            if accuracy(test_ds.target, predict(ens, test_ds)) > base_acc:
                random_beats_baseline = True
                break
        if random_beats_baseline and len(baseline_scores) == 3:
            break

    mean_acc = float(np.mean(baseline_scores))
    assert 0.796 <= mean_acc <= 0.896, f"baseline accuracy {mean_acc:.4f} outside 84.6% +/- 5"
    assert random_beats_baseline, "no random 2-group partition beat baseline on any tested split"
    report_line(7, "cleve qualitative anchor", f"PASS (baseline {mean_acc:.4f})")


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI command rerun with an identical config writes identical bytes."""
    ds = paired_products_dataset(120, seed=2)
    data_path = tmp_path / "data.csv"
    save_csv(ds, data_path, target_name="y")
    config = {
        "data": str(data_path),
        "target": "y",
        "task": "regression",
        "seed": 5,
        "wrapper": {"k_folds": 3, "epsilon": EPS},
        "grid": {"n_trees": [6, 10], "max_depth": [2], "learning_rate": [0.3]},
        "train": {"n_trees": 6, "max_depth": 2, "learning_rate": 0.3},
        "benchmark": {
            "test_fraction": 0.25,
            "k": 3,
            "partial_x_list": [2],
            "random_runs": 2,
            "random_groups": 2,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    outputs = {
        "discover": ["partition.json", "discovery_log.json"],
        "train": ["model.json"],
        "tune": ["tuned_params.json"],
        "benchmark": ["report.json", "report.csv"],
    }
    for command, files in outputs.items():
        contents = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / command / run_dir
            code = cli_main([command, "--config", str(config_path), "--out-dir", str(out)])
            assert code == 0, f"{command} failed"
            contents.append([(f, (out / f).read_bytes()) for f in files])
        assert contents[0] == contents[1], f"{command} outputs differ between reruns"

    # predict depends on a trained model from the train step above
    model_path = tmp_path / "train" / "run_a" / "model.json"
    predictions = []
    for run_dir in ("pa", "pb"):
        out = tmp_path / "predict" / run_dir
        code = cli_main(
            ["predict", "--model", str(model_path), "--data", str(data_path), "--out-dir", str(out)]
        )
        assert code == 0
        predictions.append((out / "predictions.csv").read_bytes())
    assert predictions[0] == predictions[1]
    report_line(8, "cli determinism", "PASS")


def test_criterion_9_training_loss_monotonicity():
    """Squared loss with lambda=0, gamma=0: training MSE never increases."""
    rng = np.random.default_rng(99)
    for trial in range(20):
        n_rows = int(rng.integers(30, 201))
        n_features = int(rng.integers(1, 7))
        X = rng.normal(size=(n_rows, n_features))
        y = rng.normal(size=n_rows) + (X[:, 0] if trial % 2 else 0.0)
        ds = Dataset(X, tuple(f"x{i}" for i in range(n_features)), y, Task.REGRESSION)
        params = TrainParams(
            n_trees=int(rng.integers(5, 30)),
            max_depth=int(rng.integers(1, 5)),
            learning_rate=float(rng.uniform(0.05, 1.0)),
            reg_lambda=0.0,
            gamma=0.0,
        )
        ens = train(ds, None, params)
        raw = np.full(n_rows, ens.base_score)
        last = float(np.mean((y - raw) ** 2))
        for tree in ens.trees:
            raw = raw + params.learning_rate * reference_leaf_values(tree, ds.features)
            mse = float(np.mean((y - raw) ** 2))
            assert mse <= last + 1e-12 * max(1.0, last), f"MSE rose on trial {trial}"
            last = mse
    report_line(9, "training loss monotonicity", "PASS")
