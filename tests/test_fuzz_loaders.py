"""Fuzzed user files: truncated, byte-flipped and deeply nested copies of a
valid config, partition, model and data CSV. Whatever the damage, the CLI
ends with exit 0, 1 or 2: never exit 3 (an internal error) and never a hang.
A damaged model that still loads predicts what the one-tree-at-a-time
oracle walk gives for it: never a silent wrong answer."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interboost.boosting import load_model
from interboost.cli import main
from interboost.data import Dataset, Task, format_real, read_csv, save_csv
from interboost.linear import raw_to_prediction
from oracles import reference_stages


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Paths of one valid file of each kind, over a 60x3 regression."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    save_csv(Dataset(X, ("x0", "x1", "x2"), X[:, 0] * X[:, 1] + X[:, 2], Task.REGRESSION),
             root / "data.csv", target_name="y")
    (root / "config.json").write_text(json.dumps({
        "target": "y", "task": "regression", "seed": 3,
        "wrapper": {"k_folds": 3, "epsilon": 1e-6, "max_group_size": 2},
    }))
    (root / "partition.json").write_text(json.dumps([[0, 1], [2]]))
    assert main(["train", "--data", str(root / "data.csv"), "--target", "y",
                 "--task", "regression", "--n-trees", "2", "--max-depth", "2",
                 "--out-dir", str(root)]) == 0
    return root


def _argv(kind: str, bad: Path, valid: Path, out: Path) -> list[str]:
    data = ["--data", str(valid / "data.csv"), "--target", "y", "--task", "regression"]
    return {
        "config": ["discover", "--data", str(valid / "data.csv"), "--config", str(bad)],
        "data": ["discover", "--data", str(bad), "--target", "y", "--task", "regression"],
        "partition": ["train", *data, "--n-trees", "2", "--constraints", str(bad)],
        "model": ["predict", "--model", str(bad), "--data", str(valid / "data.csv")],
    }[kind] + ["--out-dir", str(out)]


def mutated(text: bytes):
    truncated = st.integers(0, len(text) - 1).map(lambda n: text[:n])
    flipped = st.tuples(st.integers(0, len(text) - 1), st.integers(1, 255)).map(
        lambda pm: text[: pm[0]] + bytes([text[pm[0]] ^ pm[1]]) + text[pm[0] + 1 :]
    )
    nested = st.tuples(st.integers(0, len(text)), st.sampled_from([1, 3, 1000, 100_000])).map(
        lambda pd: text[: pd[0]] + b"[" * pd[1] + text[pd[0] :]
    )
    return st.one_of(truncated, flipped, nested)


FILES = {
    "config": "config.json", "data": "data.csv", "partition": "partition.json", "model": "model.json"
}


@pytest.mark.parametrize("kind", FILES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_file_never_ends_in_internal_error(valid, kind, data):
    contents = data.draw(mutated((valid / FILES[kind]).read_bytes()), label="contents")
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / FILES[kind]
        bad.write_bytes(contents)
        code = main(_argv(kind, bad, valid, Path(tmp) / "out"))
        assert code in (0, 1, 2)
        if kind == "model" and code == 0:
            ens = load_model(bad)
            _, X = read_csv(valid / "data.csv", ens.feature_names)
            expected = raw_to_prediction(ens.task, reference_stages(ens, X)[-1])
            written = (Path(tmp) / "out" / "predictions.csv").read_text().splitlines()
            assert written == ["prediction"] + [format_real(v) for v in expected]
