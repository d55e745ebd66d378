"""The benchmark's workloads: inputs made from the workload seed, the
`interboost` command sequence each one runs, and the checks on its outputs.

Every job ends the way a user deploys a model: `interboost predict` on rows
the model has not seen. The run adds library `predict` on 256-row batches of
the same rows (child.py serve), so the predict-side metrics exist on every
workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# --- inputs ------------------------------------------------------------------


def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    """Header x0..x{p-1},target; shortest round-trip decimals."""
    names = [f"x{i}" for i in range(X.shape[1])] + ["target"]
    lines = [",".join(names)]
    lines.extend(
        ",".join(map(repr, row)) + f",{t!r}" for row, t in zip(X.tolist(), y.tolist())
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rng(seed: int, table: int) -> np.random.Generator:
    return np.random.default_rng([seed, table])


def paired_products(n_rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The paper's synthetic table: synth.paired_products_dataset."""
    from interboost.synth import paired_products_dataset

    ds = paired_products_dataset(n_rows, seed=seed)
    return np.asarray(ds.features), np.asarray(ds.target)


def planted_regression(n_rows: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """20 features: pairs {0,1} {2,3} {4,5} {6,7}, additive x8..x11, x12.. inert."""
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 20))
    y = X[:, 0] * X[:, 1] + X[:, 2] * X[:, 3] + X[:, 4] * X[:, 5] + X[:, 6] * X[:, 7]
    y = y + 0.5 * X[:, 8:12].sum(axis=1) + rng.normal(0.0, 0.1, size=n_rows)
    return X, y


def planted_classification_12(n_rows: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """12 features: logit 6*x0*x1 + 6*x2*x3 + x4; the rest inert."""
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 12))
    logit = 6.0 * X[:, 0] * X[:, 1] + 6.0 * X[:, 2] * X[:, 3] + X[:, 4]
    return X, _bernoulli(logit, rng)


def planted_classification_16(n_rows: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """16 features: logit 3*x0*x1 + 3*x4*x5 + 2*x8 - 2*x12*x13."""
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 16))
    logit = 3.0 * X[:, 0] * X[:, 1] + 3.0 * X[:, 4] * X[:, 5] + 2.0 * X[:, 8]
    logit = logit - 2.0 * X[:, 12] * X[:, 13]
    return X, _bernoulli(logit, rng)


def _bernoulli(logit: np.ndarray, rng) -> np.ndarray:
    return (rng.uniform(size=logit.size) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)


# --- output checks -------------------------------------------------------------
# Each returns None when the output is right and a message when it is wrong.


def check_partition(groups, n_features: int, pairs) -> str | None:
    """Disjoint, exhaustive groups over 0..n_features-1 that keep each pair together."""
    if not isinstance(groups, list) or not all(isinstance(g, list) and g for g in groups):
        return f"partition is not a list of nonempty lists: {groups!r}"
    flat = [f for g in groups for f in g]
    if sorted(flat) != list(range(n_features)):
        return f"partition is not disjoint and exhaustive over {n_features} features: {groups}"
    group_of = {f: i for i, g in enumerate(groups) for f in g}
    split = [p for p in pairs if group_of[p[0]] != group_of[p[1]]]
    if split:
        return f"planted pairs {split} are split across groups in {groups}"
    if len(groups) == 1 and n_features > 2 * len(pairs):
        return f"every feature is in one group: {groups}"
    return None


def check_report(report, variant_ids, pairs, baseline_r2: float, tolerance: float) -> str | None:
    """report.json has every variant, the paired features grouped in
    full_interaction's partition, and a baseline test R^2 near its recorded value."""
    if not isinstance(report, dict) or not isinstance(report.get("variants"), list):
        return "report has no variants list"
    by_id = {v.get("variant"): v for v in report["variants"] if isinstance(v, dict)}
    if set(by_id) != set(variant_ids):
        return f"report variants {sorted(map(str, by_id))} differ from {sorted(variant_ids)}"
    constraint = by_id["full_interaction"].get("constraint") or {}
    failure = check_partition(constraint.get("partition"), 6, pairs)
    if failure:
        return f"full_interaction: {failure}"
    score = by_id["baseline"].get("test_score")
    if not isinstance(score, float) or not abs(score - baseline_r2) <= tolerance:
        return f"baseline test R^2 {score!r} is not within {tolerance} of {baseline_r2}"
    return None


def check_predictions(text: str, n_rows: int, library, probabilities: bool) -> str | None:
    """predictions.csv: a `prediction` header, one finite value per input row,
    in (0, 1) for a classifier, equal to library predict on the same rows."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "prediction":
        return "predictions file has no `prediction` header"
    if len(lines) - 1 != n_rows:
        return f"{len(lines) - 1} predictions for {n_rows} rows"
    try:
        values = [float(v) for v in lines[1:]]
    except ValueError as exc:
        return f"unparseable prediction: {exc}"
    if not all(math.isfinite(v) for v in values):
        return "non-finite prediction"
    if probabilities and not all(0.0 < v < 1.0 for v in values):
        return "classifier prediction outside (0, 1)"
    if len(library) != n_rows:
        return f"library predicted {len(library)} rows, expected {n_rows}"
    mismatched = sum(a != b for a, b in zip(values, library))
    if mismatched:
        return f"{mismatched} predictions differ from library predict on the same rows"
    return None


def check_model(path: Path, n_trees: int | None) -> str | None:
    """The model reloads, with `n_trees` trees when that is given."""
    from interboost.boosting import load_model

    try:
        ens = load_model(path)
    except (OSError, ValueError) as exc:
        return f"model does not reload: {exc}"
    if n_trees is not None and len(ens.trees) != n_trees:
        return f"model has {len(ens.trees)} trees, expected {n_trees}"
    return None


# --- workloads -------------------------------------------------------------------

RunCli = Callable[[str, list], bool]
"""run_cli(step_name, argv) runs one `interboost` command; False if it failed."""


@dataclass(frozen=True)
class Deployed:
    """The model a job deploys, the rows it predicts, and where predict writes."""

    model: Path
    n_trees: int | None  # None: set by the job (tuned), checked by the workload
    rows_csv: Path
    n_rows: int
    probabilities: bool
    predictions: Path


def predict_args(deployed: Deployed, out_dir: Path) -> list[str]:
    return ["predict", "--model", str(deployed.model), "--data", str(deployed.rows_csv),
            "--out-dir", str(out_dir)]


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BASELINE_R2_PATH = Path(__file__).resolve().parent / "baseline_r2.json"


def load_baseline_r2() -> dict[int, float]:
    """Recorded `variants` baseline test R^2 by seed (record_baseline_r2.py)."""
    if not BASELINE_R2_PATH.is_file():
        return {}
    return {int(seed): r2 for seed, r2 in _load_json(BASELINE_R2_PATH).items()}


class Variants:
    name = "variants"
    why = (
        "the paper's experiment: interboost benchmark on paired_products 2000x6 with the fast grid, "
        "about 85% tuning and boosting, 15% discovery; then train and predict with its full_interaction partition"
    )
    rows, new_rows = 2000, 2000
    config = {
        "grid": {"n_trees": [50, 100], "max_depth": [3, 4], "learning_rate": [0.1]},
        "wrapper": {"epsilon": 5e-3},
        "benchmark": {"partial_x_list": [5, 10], "random_runs": 5},
    }
    variant_ids = ("baseline", "full_interaction", "interaction_5", "interaction_10", "random_interaction")
    pairs = ((0, 1), (2, 3))
    # Baseline test R^2 of a seed in baseline_r2.json must equal its recorded
    # value up to float rounding. Other seeds get a band: over seeds 0..19 at
    # the commit that added this benchmark the mean was 0.815 (sd 0.027, range
    # 0.765..0.864), so about four sd, which only a broken engine leaves.
    recorded_tolerance = 1e-9
    band_r2, band_tolerance = 0.815, 0.1

    def generate(self, seed: int, inputs: Path) -> None:
        write_csv(inputs / "paired.csv", *paired_products(self.rows, seed * 2))
        write_csv(inputs / "paired_new.csv", *paired_products(self.new_rows, seed * 2 + 1))
        (inputs / "benchmark.json").write_text(json.dumps(self.config))
        (inputs / "expected.json").write_text(json.dumps({"baseline_r2": self.expected_baseline_r2(seed)}))

    def expected_baseline_r2(self, seed: int) -> tuple[float, float]:
        """(value, tolerance) that the seed's baseline test R^2 must meet."""
        recorded = load_baseline_r2().get(seed)
        return (self.band_r2, self.band_tolerance) if recorded is None else (recorded, self.recorded_tolerance)

    def deployment(self, inputs: Path, out: Path) -> Deployed:
        return Deployed(out / "model" / "model.json", None, inputs / "paired_new.csv",
                        self.new_rows, False, out / "predict" / "predictions.csv")

    def _data_args(self, inputs: Path) -> list[str]:
        return ["--data", str(inputs / "paired.csv"), "--target", "target", "--task", "regression"]

    def benchmark_args(self, inputs: Path, out: Path) -> list[str]:
        return [*self._data_args(inputs), "--config", str(inputs / "benchmark.json"),
                "--out-dir", str(out / "benchmark")]

    def job(self, run_cli: RunCli, inputs: Path, out: Path) -> None:
        if not run_cli("benchmark", ["benchmark", *self.benchmark_args(inputs, out)]):
            return
        report = _load_json(out / "benchmark" / "report.json")
        tuned = report["tuned_params"]
        full = next(v for v in report["variants"] if v["variant"] == "full_interaction")
        partition = out / "full_partition.json"
        partition.write_text(json.dumps(full["constraint"]["partition"]))
        run_cli("train", ["train", *self._data_args(inputs), "--constraints", str(partition),
                          "--n-trees", str(tuned["n_trees"]), "--max-depth", str(tuned["max_depth"]),
                          "--learning-rate", repr(tuned["learning_rate"]),
                          "--out-dir", str(out / "model")])
        deployed = self.deployment(inputs, out)
        run_cli("predict", predict_args(deployed, deployed.predictions.parent))

    def checks(self, inputs: Path, out: Path) -> dict[str, Callable[[], str | None]]:
        def model():
            tuned = _load_json(out / "benchmark" / "report.json")["tuned_params"]
            return check_model(out / "model" / "model.json", tuned["n_trees"])

        def report():
            baseline_r2, tolerance = _load_json(inputs / "expected.json")["baseline_r2"]
            return check_report(_load_json(out / "benchmark" / "report.json"),
                                self.variant_ids, self.pairs, baseline_r2, tolerance)

        return {"report": report, "model_trees": model}


class DiscoverWide:
    name = "discover-wide"
    why = (
        "discovery-bound: interboost discover on a planted 2000x20 regression (OLS path) and a 1000x12 "
        "classification (logistic path), then train --partial-x 3; linear fitting and discovery ~93%"
    )
    reg_rows, clf_rows, new_rows = 2000, 1000, 2000
    reg_pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
    clf_pairs = ((0, 1), (2, 3))
    n_trees = 30

    def generate(self, seed: int, inputs: Path) -> None:
        write_csv(inputs / "wide_reg.csv", *planted_regression(self.reg_rows, _rng(seed, 1)))
        write_csv(inputs / "wide_clf.csv", *planted_classification_12(self.clf_rows, _rng(seed, 2)))
        write_csv(inputs / "wide_new.csv", *planted_regression(self.new_rows, _rng(seed, 3)))
        (inputs / "wrapper.json").write_text(json.dumps({"wrapper": {"epsilon": 5e-3}}))

    def deployment(self, inputs: Path, out: Path) -> Deployed:
        return Deployed(out / "model" / "model.json", self.n_trees, inputs / "wide_new.csv",
                        self.new_rows, False, out / "predict" / "predictions.csv")

    def job(self, run_cli: RunCli, inputs: Path, out: Path) -> None:
        config = ["--config", str(inputs / "wrapper.json"), "--target", "target"]
        reg = ["--data", str(inputs / "wide_reg.csv"), "--task", "regression", *config]
        clf = ["--data", str(inputs / "wide_clf.csv"), "--task", "classification", *config]
        run_cli("discover", ["discover", *reg, "--out-dir", str(out / "discover_reg")])
        run_cli("discover", ["discover", *clf, "--out-dir", str(out / "discover_clf")])
        run_cli("train", ["train", *reg, "--partial-x", "3", "--n-trees", str(self.n_trees),
                          "--max-depth", "3", "--out-dir", str(out / "model")])
        deployed = self.deployment(inputs, out)
        run_cli("predict", predict_args(deployed, deployed.predictions.parent))

    def checks(self, inputs: Path, out: Path) -> dict[str, Callable[[], str | None]]:
        return {
            "partition_regression": lambda: check_partition(
                _load_json(out / "discover_reg" / "partition.json"), 20, self.reg_pairs
            ),
            "partition_classification": lambda: check_partition(
                _load_json(out / "discover_clf" / "partition.json"), 12, self.clf_pairs
            ),
        }


class TallTrain:
    name = "tall-train"
    why = (
        "split-scan-bound: train on a planted 20000x16 classification, unconstrained and in four groups "
        "of 4, then predict; no discovery, so discovery and linear changes should not move it"
    )
    rows, new_rows = 20000, 10000
    n_trees = 20
    groups = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]

    def generate(self, seed: int, inputs: Path) -> None:
        write_csv(inputs / "tall.csv", *planted_classification_16(self.rows, _rng(seed, 1)))
        write_csv(inputs / "tall_new.csv", *planted_classification_16(self.new_rows, _rng(seed, 2)))
        (inputs / "groups.json").write_text(json.dumps(self.groups))

    def deployment(self, inputs: Path, out: Path) -> Deployed:
        return Deployed(out / "free" / "model.json", self.n_trees, inputs / "tall_new.csv",
                        self.new_rows, True, out / "predict" / "predictions.csv")

    def job(self, run_cli: RunCli, inputs: Path, out: Path) -> None:
        train = ["train", "--data", str(inputs / "tall.csv"), "--target", "target",
                 "--task", "classification", "--n-trees", str(self.n_trees), "--max-depth", "6"]
        run_cli("train", [*train, "--out-dir", str(out / "free")])
        run_cli("train", [*train, "--constraints", str(inputs / "groups.json"),
                          "--out-dir", str(out / "grouped")])
        deployed = self.deployment(inputs, out)
        run_cli("predict", predict_args(deployed, deployed.predictions.parent))

    def checks(self, inputs: Path, out: Path) -> dict[str, Callable[[], str | None]]:
        return {"grouped_model": lambda: check_model(out / "grouped" / "model.json", self.n_trees)}


WORKLOADS = {w.name: w for w in (Variants(), DiscoverWide(), TallTrain())}
