"""Fuzzed user files: truncated, byte-flipped and deeply nested copies of a
valid config, partition, model and data CSV. Whatever the damage, the CLI
ends with exit 0, 1 or 2: never exit 3 (an internal error) and never a hang.
A damaged model that still loads predicts what the one-tree-at-a-time
oracle walk gives for it: never a silent wrong answer. A key that is not in
the config schema, at top level or in any section, is a config error that
names it, for every command."""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from interboost.boosting import TrainParams, load_model
from interboost.cli import main
from interboost.data import Dataset, Task, format_real, read_csv, save_csv
from interboost.discovery import WrapperConfig
from interboost.experiment import BenchmarkConfig, TuningGrid
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


SECTIONS = {"wrapper": WrapperConfig, "grid": TuningGrid, "train": TrainParams, "benchmark": BenchmarkConfig}
# the keys each place in a config may hold; `benchmark` takes its grid and
# wrapper settings from their own sections
SCHEMA = {
    None: {"data", "target", "task", "out_dir", "model", "seed", *SECTIONS},
    **{name: {f.name for f in dataclasses.fields(cls)} for name, cls in SECTIONS.items()},
}
SCHEMA["benchmark"] -= {"grid", "wrapper_cfg"}
FULL_CONFIG = {
    "target": "y", "task": "regression", "seed": 3,
    "wrapper": {"k_folds": 3, "epsilon": 1e-6},
    "grid": {"n_trees": [2], "max_depth": [2], "learning_rate": [0.3]},
    "train": {"n_trees": 2, "reg_lambda": 1.0},
    "benchmark": {"k": 3, "partial_x_list": [1]},
}


@settings(max_examples=40, deadline=None)
@given(place=st.sampled_from(list(SCHEMA)), key=st.text(max_size=12))
def test_unknown_config_key_is_named_by_every_command(place, key):
    # the data path does not exist, so no data is read: the config is
    # checked first, whatever the command
    assume(key not in SCHEMA[place])
    config = copy.deepcopy(FULL_CONFIG)
    (config if place is None else config[place])[key] = 1
    with tempfile.TemporaryDirectory() as tmp:
        path, missing = Path(tmp) / "config.json", str(Path(tmp) / "missing")
        path.write_text(json.dumps(config))
        for command in ("discover", "train", "predict", "benchmark", "tune"):
            argv = [command, "--config", str(path), "--data", missing, "--out-dir", str(Path(tmp) / "out")]
            if command == "predict":
                argv += ["--model", missing]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == 1
            assert f"'{key}'" in err.getvalue() or repr(key) in err.getvalue()
