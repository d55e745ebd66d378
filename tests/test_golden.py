"""Golden output digests: a fixed CLI matrix on small seeded tables, with
each written file's sha256 compared against `tests/golden_sha256.json`.

Criterion 8 shows that a rerun within one commit writes the same bytes;
this test shows that a change to the code does. A change that alters
floats on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each digest it changes (or adds or drops) and
how many it keeps, before it writes. The digests hold for the numpy they
were made with (`np.linalg.solve`'s bits depend on its LAPACK build), so on
another numpy the test skips.

Every feature of the tables is a multiple of 1/4, so every split threshold
is an odd multiple of 1/8; the probe table that `predict` reads holds such
values, so its rows land exactly on thresholds and pin the routing of ties.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from interboost.cli import main as cli_main
from interboost.data import Dataset, Task, save_csv

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDEN = Path(__file__).with_name("golden_sha256.json")
NAMES = tuple(f"x{i}" for i in range(6))

# criterion 8's tiny config
CONFIG = {
    "seed": 5,
    "wrapper": {"k_folds": 3, "epsilon": 5e-3},
    "grid": {"n_trees": [6, 10], "max_depth": [2], "learning_rate": [0.3]},
    "train": {"n_trees": 6, "max_depth": 2, "learning_rate": 0.3},
    "benchmark": {"test_fraction": 0.25, "k": 3, "partial_x_list": [2], "random_runs": 2, "random_groups": 2},
}


def _table(task: Task, n_rows: int = 120, seed: int = 2, noise_sd: float = 0.1) -> Dataset:
    """x0*x1 + x2*x3 + 0.1*x4 + noise over six features on a grid of quarters
    in [-1, 1]; the classification target is the sign of that sum."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n_rows, 6)) / 4.0
    y = X[:, 0] * X[:, 1] + X[:, 2] * X[:, 3] + 0.1 * X[:, 4] + rng.normal(0.0, noise_sd, size=n_rows)
    if task is Task.BINARY_CLASSIFICATION:
        y = (y > 0.0).astype(np.float64)
    return Dataset(X, NAMES, y, task)


def _duplicated_column_table(task: Task) -> Dataset:
    """`_table` with x5 a copy of x0, so designs holding both are collinear."""
    ds = _table(task)
    X = ds.features.copy()
    X[:, 5] = X[:, 0]
    return Dataset(X, NAMES, ds.target, task)


def run_matrix(root: Path) -> dict[str, str]:
    """Run the CLI matrix with inputs and outputs under `root`; returns the
    sha256 of each written output file, keyed by its path under `root/out`."""
    inputs, out = root / "in", root / "out"
    inputs.mkdir(parents=True)
    config = inputs / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    rng = np.random.default_rng(3)
    probe = Dataset(rng.integers(-9, 10, size=(60, 6)) / 8.0, NAMES, np.zeros(60), Task.REGRESSION)
    save_csv(probe, inputs / "probe.csv")
    for task in Task:
        data = inputs / f"{task.value}.csv"
        save_csv(_table(task), data, target_name="y")

        def run(command: str, name: str, *flags, data: Path = data) -> None:
            argv = [command, "--config", config, "--out-dir", out / task.value / name, *flags]
            if command != "predict":
                argv += ["--data", data, "--target", "y", "--task", task.value]
            assert cli_main([str(a) for a in argv]) == 0, f"{task.value} {name} failed"

        run("discover", "discover")
        duplicated = inputs / f"{task.value}-duplicated.csv"
        save_csv(_duplicated_column_table(task), duplicated, target_name="y")
        run("discover", "discover-duplicated", data=duplicated)
        if task is Task.BINARY_CLASSIFICATION:
            # without noise, x0*x1 + x2*x3 + 0.1*x4 separates the classes
            separable = inputs / "separable.csv"
            save_csv(_table(task, noise_sd=0.0), separable, target_name="y")
            run("discover", "discover-separable", data=separable)
        run("train", "train")
        run("train", "train-constraints", "--constraints", out / task.value / "discover" / "partition.json")
        run("train", "train-partial-x", "--partial-x", 2)
        run("predict", "predict", "--model", out / task.value / "train" / "model.json", "--data", inputs / "probe.csv")
        run("tune", "tune")
        run("benchmark", "benchmark")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_cli_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"golden digests were made with numpy {golden['numpy']}, this is numpy {np.__version__}")
    digests = run_matrix(tmp_path)
    assert sorted(digests) == sorted(golden["sha256"]), "the matrix writes other files"
    changed = [name for name, digest in golden["sha256"].items() if digests[name] != digest]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_matrix(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]
    for name in sorted(old.keys() | digests.keys()):
        if old.get(name) != digests.get(name):
            print(f"changes {name}", file=sys.stderr)
    kept = sum(old.get(name) == digest for name, digest in digests.items())
    print(f"keeps {kept} of {len(digests)} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "sha256": digests}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
