import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interboost

from interboost.boosting import load_model, predict_matrix, train, TrainParams
from interboost.cli import main
from interboost.data import Dataset, Task, load_csv, save_csv
from interboost.discovery import WrapperConfig
from interboost.experiment import TuningGrid, tune
from interboost.synth import paired_products_dataset

@pytest.fixture
def data_csv(tmp_path):
    ds = paired_products_dataset(120, seed=5)
    path = tmp_path / "train.csv"
    save_csv(ds, path, target_name="y")
    return path


def _product_target_csv(path, scale):
    """Write a 120-row regression table with target scale(x0*x1 + x2)."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 3))
    y = scale(X[:, 0] * X[:, 1] + X[:, 2])
    save_csv(Dataset(X, ("a", "b", "c"), y, Task.REGRESSION), path, target_name="y")
    return path


@pytest.fixture
def huge_target_csv(tmp_path):
    """The product table with its target times 1e200, which overflows
    when squared."""
    return _product_target_csv(tmp_path / "huge.csv", lambda y: y * 1e200)


@pytest.fixture
def extreme_target_csv(tmp_path):
    """The product table with its target scaled to a largest magnitude of
    1.7e308: its sums overflow both ways, so its mean is NaN."""
    return _product_target_csv(tmp_path / "extreme.csv", lambda y: y / np.max(np.abs(y)) * 1.7e308)


def run(*argv):
    return main([str(a) for a in argv])


def _right_child(nodes, split):
    """Id of a split's right child in a preorder node list: the node after
    its left subtree, which starts at split + 1."""
    at, open_subtrees = split + 1, 1
    while open_subtrees:
        open_subtrees += 1 if "feature" in nodes[at] else -1
        at += 1
    return at


def _split_outside_used_group(model):
    """Log tree 0 under a partition whose group 0 is its root's split
    feature alone, and move a split below the root to another feature."""
    nodes, n = model["trees"][0]["nodes"], len(model["feature_names"])
    root = nodes[0]
    below = next(nodes[c] for c in (1, _right_child(nodes, 0)) if "feature" in nodes[c])
    below["feature"] = (root["feature"] + 1) % n
    model["constraint_log"][0] = [[root["feature"]], [f for f in range(n) if f != root["feature"]]]


def _format_1(model):
    """Add back what format 1 wrote and format 2 dropped: n_features, each
    tree's root and used_group, and params.seed."""
    model["n_features"] = len(model["feature_names"])
    for tree in model["trees"]:
        tree.update(root=0, used_group=None)
    model["params"]["seed"] = 0


def _format_2(model):
    """Add back the child ids that format 2 wrote in every split and format
    3 works out: the left child is the next node."""
    for tree in model["trees"]:
        nodes = tree["nodes"]
        for i, node in enumerate(nodes):
            if "feature" in node:
                node.update(left=i + 1, right=_right_child(nodes, i))


def _leaf_with_split_keys(model):
    """Give tree 0's last node, a leaf, a split's keys as well."""
    model["trees"][0]["nodes"][-1].update(feature=0, threshold=0.5, left=0, right=0)


class TestDiscoverCommand:
    def test_single_feature_partition(self, tmp_path, tmp_csv):
        csv_path = tmp_csv("x0,y\n" + "\n".join(f"{i},{2*i}" for i in range(12)) + "\n")
        out = tmp_path / "out"
        code = run("discover", "--data", csv_path, "--target", "y",
                   "--task", "regression", "--seed", "1", "--out-dir", out)
        assert code == 0
        assert json.loads((out / "partition.json").read_text()) == [[0]]
        log = json.loads((out / "discovery_log.json").read_text())
        assert log["steps"][0]["action"] == "seed"

    def test_log_records_every_wrapper_setting(self, tmp_path, data_csv):
        wrapper = {"k_folds": 4, "epsilon": 1e-3, "max_group_size": 1}
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 9, "wrapper": wrapper}))
        out = tmp_path / "out"
        assert run("discover", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--config", tmp_path / "cfg.json", "--out-dir", out) == 0
        log = json.loads((out / "discovery_log.json").read_text())
        settings = {key: value for key, value in log.items() if key != "steps"}
        assert settings == dataclasses.asdict(WrapperConfig(seed=9, **wrapper))
        assert list(log) == [f.name for f in dataclasses.fields(WrapperConfig)] + ["steps"]

    def test_rerun_is_byte_identical(self, tmp_path, data_csv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("discover", "--data", data_csv, "--target", "y",
                       "--task", "regression", "--seed", "4", "--out-dir", out) == 0
        assert (out_a / "partition.json").read_bytes() == (out_b / "partition.json").read_bytes()
        assert (out_a / "discovery_log.json").read_bytes() == (out_b / "discovery_log.json").read_bytes()

    def test_missing_target_column_is_data_error(self, tmp_path, data_csv, capsys):
        code = run("discover", "--data", data_csv, "--target", "zz",
                   "--task", "regression", "--out-dir", tmp_path / "o")
        assert code == 2
        assert "zz" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_huge_feature_gets_the_unscaled_partition(self, tmp_path, data_csv):
        # the squares of its deviations overflow unless the column is rescaled
        ds = load_csv(data_csv, "y", Task.REGRESSION)
        X = np.array(ds.features)
        X[:, 1] *= 1e200
        huge = tmp_path / "huge.csv"
        save_csv(Dataset(X, ds.feature_names, ds.target, ds.task), huge, target_name="y")
        for path, out in ((data_csv, "plain"), (huge, "huge")):
            assert run("discover", "--data", path, "--target", "y",
                       "--task", "regression", "--out-dir", tmp_path / out) == 0
        partition = (tmp_path / "plain" / "partition.json").read_bytes()
        assert (tmp_path / "huge" / "partition.json").read_bytes() == partition
        assert [0, 1] in json.loads(partition)

    @pytest.mark.filterwarnings("error")
    def test_target_too_large_to_score_is_data_error(self, tmp_path, extreme_target_csv, capsys):
        # the fits' sums over the target overflow, so fold scores are NaN
        out = tmp_path / "out"
        code = run("discover", "--data", extreme_target_csv, "--target", "y",
                   "--task", "regression", "--out-dir", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "validation score nan" in err
        assert not (out / "discovery_log.json").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        code = run("discover", "--data", tmp_path / "nope.csv", "--target", "y",
                   "--task", "regression", "--out-dir", tmp_path)
        assert code == 2

    def test_discovered_partition_feeds_train(self, tmp_path, data_csv):
        # the partition file written by discover is directly usable as a
        # --constraints input
        out = tmp_path / "out"
        assert run("discover", "--data", data_csv, "--target", "y",
                   "--task", "regression", "--seed", "2", "--out-dir", out) == 0
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 3, "--constraints", out / "partition.json",
                   "--out-dir", out) == 0
        model = load_model(out / "model.json")
        assert all(p is not None for p in model.constraint_log)


class TestTrainPredictCommands:
    def test_round_trip_matches_in_memory(self, tmp_path, data_csv):
        out = tmp_path / "out"
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 8, "--max-depth", 3, "--learning-rate", "0.3",
                   "--out-dir", out) == 0
        assert run("predict", "--model", out / "model.json", "--data", data_csv,
                   "--out-dir", out) == 0

        ds = load_csv(data_csv, "y", Task.REGRESSION)
        ens = train(ds, None, TrainParams(8, 3, 0.3))
        expected = predict_matrix(ens, np.asarray(ds.features))
        lines = (out / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "prediction"
        got = np.array([float(v) for v in lines[1:]])
        np.testing.assert_array_equal(got, expected)

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, data_csv):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        with_bom = tmp_path / "bom.csv"
        with_bom.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
        out = tmp_path / "out"
        assert run("train", "--data", with_bom, "--target", "y", "--task", "regression",
                   "--n-trees", 3, "--out-dir", out) == 0
        assert load_model(out / "model.json").feature_names == load_csv(
            data_csv, "y", Task.REGRESSION
        ).feature_names
        assert run("predict", "--model", out / "model.json", "--data", data_csv,
                   "--out-dir", out) == 0
        assert run("train", "--data", with_bom, "--target", "x0", "--task", "regression",
                   "--n-trees", 3, "--out-dir", out / "x0") == 0

    def test_predict_parses_only_the_model_columns(self, tmp_path, data_csv):
        out = tmp_path / "out"
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 3, "--out-dir", out) == 0
        lines = data_csv.read_text().splitlines()
        with_id = tmp_path / "with_id.csv"
        with_id.write_text("\n".join(
            [f"id,{lines[0]}"] + [f"row-{i},{line}" for i, line in enumerate(lines[1:])]
        ) + "\n")
        assert run("predict", "--model", out / "model.json", "--data", data_csv,
                   "--out-dir", out / "plain") == 0
        assert run("predict", "--model", out / "model.json", "--data", with_id,
                   "--out-dir", out / "id") == 0
        assert ((out / "id" / "predictions.csv").read_bytes()
                == (out / "plain" / "predictions.csv").read_bytes())

    def test_config_precedence_and_values_as_written(self, tmp_path, data_csv, capsys):
        # flag > section > default; values are not coerced, and a section key
        # that is not a field is a config error that names it
        config = tmp_path / "cfg.json"
        out = tmp_path / "out"
        train = ("train", "--data", data_csv, "--target", "y", "--task", "regression", "--config", config)
        section = {"n_trees": 3, "max_depth": 2, "reg_lambda": 1}
        for key, value in (("bogus", 0), ("seed", 9)):
            config.write_text(json.dumps({"seed": 5, "train": {**section, key: value}}))
            capsys.readouterr()
            assert run(*train, "--n-trees", 2, "--out-dir", out) == 1
            assert f"unexpected keyword argument '{key}'" in capsys.readouterr().err
        assert not (out / "model.json").exists()
        config.write_text(json.dumps({"seed": 5, "train": section}))
        assert run(*train, "--n-trees", 2, "--out-dir", out) == 0
        params = json.loads((out / "model.json").read_text())["params"]
        assert (params["n_trees"], params["max_depth"]) == (2, 2) and "seed" not in params
        assert params["learning_rate"] == 0.1 and params["gamma"] == 0.0
        assert '"reg_lambda": 1,' in (out / "model.json").read_text()

    def test_top_level_fields_stand_in_for_absent_flags(self, tmp_path, data_csv):
        # predict reads model, data and out_dir from the config; discover reads
        # data, target and task; a flag wins over each of these fields
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 3, "--out-dir", tmp_path / "model") == 0
        model = tmp_path / "model" / "model.json"
        assert run("predict", "--model", model, "--data", data_csv,
                   "--out-dir", tmp_path / "flags") == 0
        assert run("discover", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--out-dir", tmp_path / "flags") == 0
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"model": str(model), "data": str(data_csv), "target": "y",
                                    "task": "regression", "out_dir": str(tmp_path / "config")}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "missing.json", "data": "missing.csv", "target": "x9",
                                   "task": "classification", "out_dir": str(tmp_path / "unused")}))
        assert run("predict", "--config", good) == 0
        assert run("discover", "--config", good) == 0
        assert run("predict", "--config", bad, "--model", model, "--data", data_csv,
                   "--out-dir", tmp_path / "won") == 0
        assert run("discover", "--config", bad, "--data", data_csv, "--target", "y",
                   "--task", "regression", "--out-dir", tmp_path / "won") == 0
        assert not (tmp_path / "unused").exists()
        for name in ("predictions.csv", "partition.json", "discovery_log.json"):
            expected = (tmp_path / "flags" / name).read_bytes()
            assert (tmp_path / "config" / name).read_bytes() == expected
            assert (tmp_path / "won" / name).read_bytes() == expected

    def test_constraints_file_enforced(self, tmp_path, data_csv):
        out = tmp_path / "out"
        constraints = tmp_path / "part.json"
        constraints.write_text("[[0, 1], [2, 3], [4], [5]]")
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 3, "--max-depth", 3, "--learning-rate", "0.3",
                   "--constraints", constraints, "--out-dir", out) == 0
        model = load_model(out / "model.json")
        assert all(p is not None for p in model.constraint_log)

    def test_overlapping_constraints_rejected(self, tmp_path, data_csv, capsys):
        constraints = tmp_path / "bad.json"
        constraints.write_text("[[0, 1], [1, 2, 3, 4, 5]]")
        code = run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--constraints", constraints, "--out-dir", tmp_path / "o")
        assert code == 2
        assert not (tmp_path / "o" / "model.json").exists()

    def test_non_exhaustive_constraints_rejected(self, tmp_path, data_csv):
        constraints = tmp_path / "bad.json"
        constraints.write_text("[[0, 1]]")
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--constraints", constraints, "--out-dir", tmp_path / "o") == 2

    def test_constraints_and_partial_x_conflict(self, tmp_path, data_csv):
        constraints = tmp_path / "p.json"
        constraints.write_text("[[0,1,2,3,4,5]]")
        code = run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--constraints", constraints, "--partial-x", 2,
                   "--out-dir", tmp_path / "o")
        assert code == 1

    def test_zero_trees_predicts_base_score(self, tmp_path, data_csv):
        out = tmp_path / "out"
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 0, "--out-dir", out) == 0
        assert run("predict", "--model", out / "model.json", "--data", data_csv,
                   "--out-dir", out) == 0
        model = load_model(out / "model.json")
        values = {v for v in (out / "predictions.csv").read_text().strip().split("\n")[1:]}
        assert len(values) == 1
        assert float(values.pop()) == model.base_score

    def test_predictions_have_17_significant_digits(self, tmp_path, data_csv):
        out = tmp_path / "out"
        run("train", "--data", data_csv, "--target", "y", "--task", "regression",
            "--n-trees", 4, "--out-dir", out)
        run("predict", "--model", out / "model.json", "--data", data_csv, "--out-dir", out)
        lines = (out / "predictions.csv").read_text().strip().split("\n")[1:]
        # 17 significant digits round-trip float64 exactly
        for line in lines[:5]:
            assert float(format(float(line), ".17g")) == float(line)

    def test_overflowing_prediction_is_data_error(self, tmp_path, data_csv, capsys):
        # every leaf is finite, but two trees of them sum past the largest float
        out = tmp_path / "out"
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 2, "--max-depth", 1, "--learning-rate", 1, "--out-dir", out) == 0
        model = json.loads((out / "model.json").read_text())
        for tree in model["trees"]:
            for node in tree["nodes"]:
                if "leaf" in node:
                    node["leaf"] = 1.5e308
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert run("predict", "--model", out / "model.json", "--data", data_csv,
                   "--out-dir", out) == 2
        assert "prediction for row 1 is not finite" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_feature_mismatch_is_data_error(self, tmp_path, data_csv, tmp_csv):
        out = tmp_path / "out"
        run("train", "--data", data_csv, "--target", "y", "--task", "regression",
            "--n-trees", 2, "--out-dir", out)
        other = tmp_csv("a,b\n1,2\n", name="other.csv")
        assert run("predict", "--model", out / "model.json", "--data", other,
                   "--out-dir", out) == 2

    def test_malformed_model_is_data_error(self, tmp_path, data_csv):
        bad = tmp_path / "model.json"
        bad.write_text("{}")
        assert run("predict", "--model", bad, "--data", data_csv,
                   "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda m: m["trees"][0]["nodes"][0].update(feature=99), "feature 99 out of range"),
            (lambda m: m["trees"][0]["nodes"][0].update(feature=-5), "feature -5 out of range"),
            (lambda m: m["params"].update(learning_rate=5), "learning_rate"),
            (lambda m: m["trees"][1]["nodes"][4].update(threshold=float("nan")),
             "tree 1: node 4: threshold nan is not finite"),
            (lambda m: m["trees"][1]["nodes"][5].update(leaf="w"), "tree 1: node 5: leaf weight 'w' is not a number"),
            (lambda m: m["trees"][1]["nodes"][1].update(feature="x"), "tree 1: node 1: feature 'x' is not an integer"),
            (lambda m: m["feature_names"].__setitem__(1, m["feature_names"][0]), "distinct strings"),
            (lambda m: m.update(feature_names={n: i for i, n in enumerate(reversed(m["feature_names"]))}),
             "feature_names must be a list, got dict"),
            (lambda m: m.update(trees={}), "trees must be a list, got dict"),
            (lambda m: m.update(trees=""), "trees must be a list, got str"),
            (lambda m: m["trees"][0].update(nodes={}), "nodes must be a list, got dict"),
            (lambda m: m.update(constraint_log={}), "constraint_log must be a list, got dict"),
            (lambda m: m["constraint_log"].pop(), "constraint_log has 1 entries for 2 trees"),
            (lambda m: m["constraint_log"].__setitem__(0, [[0]]), "constraint groups must cover features"),
            (_split_outside_used_group, "outside the root's group 0"),
            (lambda m: m["trees"][0].update(nodes=[]), "tree 0: nodes is empty"),
            (lambda m: m["trees"][1]["nodes"].append({"leaf": 0.5}), "tree 1: node 7 comes after the tree is complete"),
            (lambda m: m["trees"][0]["nodes"].pop(), "tree 0: nodes end while node"),
            (_format_1, "unexpected keyword argument 'seed'"),
            (_format_2, "tree 0: node 0 holds ['feature', 'left', 'right', 'threshold']"),
            (lambda m: m.update(n_trees=len(m["trees"])), "unknown model key 'n_trees'"),
            (lambda m: m["trees"][0].update(depth=2), "tree 0: unknown tree key 'depth'"),
            (_leaf_with_split_keys, "holds ['feature', 'leaf', 'left', 'right', 'threshold']"),
            (lambda m: m["feature_names"].__setitem__(0, " " + m["feature_names"][0]), "leading or trailing whitespace"),
            (lambda m: m["feature_names"].__setitem__(0, "\ufeff" + m["feature_names"][0]), "byte-order mark"),
        ],
        ids=["feature-range", "negative-feature", "learning-rate", "nan-threshold", "bad-leaf-weight", "bad-feature",
             "repeated-feature-name", "feature-names-dict", "trees-dict", "trees-string", "nodes-dict",
             "constraint-log-dict", "constraint-log-short",
             "constraint-log-partial", "split-outside-used-group", "empty-nodes", "node-after-complete-tree",
             "last-node-dropped", "format-1", "format-2", "model-key", "tree-key", "leaf-with-split-keys",
             "padded-feature-name", "bom-feature-name"],
    )
    def test_corrupt_model_is_data_error(self, tmp_path, data_csv, capsys, mutate, message):
        out = tmp_path / "out"
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 2, "--max-depth", 2, "--out-dir", out) == 0
        model = json.loads((out / "model.json").read_text())
        mutate(model)
        (out / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        assert run("predict", "--model", out / "model.json", "--data", data_csv,
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model document")
        assert message in err
        assert not (out / "predictions.csv").exists()


class TestExtremeValues:
    """Every CSV cell only has to be a finite real, so values at the edges
    of float64 must still give a model that routes rows as it scored them,
    or a data error at `train`."""

    def _stump(self, tmp_path, tmp_csv, x_values, y_values, *flags):
        text = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(x_values, y_values))
        data, out = tmp_csv(text), tmp_path / "out"
        code = run("train", "--data", data, "--target", "y", "--task", "regression",
                   "--n-trees", 1, "--max-depth", 1, "--out-dir", out, *flags)
        return data, out, code

    @pytest.mark.parametrize(
        "low, high",
        [(1.0, float(np.nextafter(1.0, 2.0))), (1.0e308, 1.7e308)],
        ids=["adjacent-floats", "midpoint-overflow"],
    )
    def test_split_routes_rows_as_scored(self, tmp_path, tmp_csv, low, high):
        x = np.array([low] * 5 + [high] * 5)
        y = np.array([0.0] * 5 + [10.0] * 5)
        data, out, code = self._stump(tmp_path, tmp_csv, x.tolist(), y.tolist())
        assert code == 0
        assert run("predict", "--model", out / "model.json", "--data", data, "--out-dir", out) == 0
        root = load_model(out / "model.json").trees[0].nodes[0]
        assert root["feature"] == 0
        goes_left = x < root["threshold"]
        assert goes_left.tolist() == (y == 0.0).tolist()  # five rows in each leaf
        predictions = np.loadtxt(out / "predictions.csv", skiprows=1)
        assert predictions[:5].max() < predictions[5:].min()

    @pytest.mark.filterwarnings("error")  # the message comes without numpy's overflow warning
    def test_huge_targets_are_data_error(self, tmp_path, tmp_csv, capsys):
        _, out, code = self._stump(tmp_path, tmp_csv, [1.0, 2.0], [1.2e308, 1.5e308])
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.filterwarnings("error")  # the message comes without numpy's overflow warning
    def test_overflowing_leaf_sum_is_data_error(self, tmp_path, tmp_csv, capsys):
        # from a base score of 0, each leaf's gradient sum passes the largest float
        config = tmp_csv(json.dumps({"train": {"base_score": 0.0}}), "cfg.json")
        y = [1.5e308, 1.5e308, -1.5e308, -1.5e308]
        _, out, code = self._stump(tmp_path, tmp_csv, [0.0, 1.0, 2.0, 3.0], y, "--config", config)
        assert code == 2
        assert "tree 1 has a leaf weight that is not finite" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_huge_target_still_splits(self, tmp_path, huge_target_csv):
        # squared gradient sums overflow unless the split scan rescales them
        out = tmp_path / "out"
        assert run("train", "--data", huge_target_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 3, "--out-dir", out) == 0
        assert any(len(tree.nodes) > 1 for tree in load_model(out / "model.json").trees)


class TestBenchmarkCommand:
    def _config(self, tmp_path, data_csv, out_name="bench"):
        config = {
            "data": str(data_csv),
            "target": "y",
            "task": "regression",
            "out_dir": str(tmp_path / out_name),
            "seed": 11,
            "wrapper": {"k_folds": 3, "epsilon": 0.005},
            "grid": {"n_trees": [8], "max_depth": [2], "learning_rate": [0.3]},
            "benchmark": {"test_fraction": 0.25, "k": 3, "partial_x_list": [2],
                          "random_runs": 2, "random_groups": 2},
        }
        path = tmp_path / f"{out_name}.json"
        path.write_text(json.dumps(config))
        return path

    def test_report_files_and_naming(self, tmp_path, data_csv, capsys):
        config = self._config(tmp_path, data_csv)
        assert run("benchmark", "--config", config) == 0
        out = tmp_path / "bench"
        report = json.loads((out / "report.json").read_text())
        names = [v["variant"] for v in report["variants"]]
        assert names == ["baseline", "full_interaction", "interaction_2", "random_interaction"]
        csv_lines = (out / "report.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + len(names)
        stdout = capsys.readouterr().out
        assert "baseline" in stdout and "change=" in stdout
        groupings = {tuple(sorted(map(tuple, map(sorted, r["groups"])))) for r in report["variants"][-1]["runs"]}
        assert f"(2 runs, {len(groupings)} distinct groupings)" in stdout

    def test_same_config_twice_is_byte_identical(self, tmp_path, data_csv):
        config_a = self._config(tmp_path, data_csv, "a")
        config_b = self._config(tmp_path, data_csv, "b")
        assert run("benchmark", "--config", config_a) == 0
        assert run("benchmark", "--config", config_b) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "report.csv").read_bytes() == (tmp_path / "b" / "report.csv").read_bytes()

    def test_empty_grid_is_config_error(self, tmp_path, data_csv):
        config = json.loads(self._config(tmp_path, data_csv).read_text())
        config["grid"]["n_trees"] = []
        path = tmp_path / "emptygrid.json"
        path.write_text(json.dumps(config))
        assert run("benchmark", "--config", path) == 1

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run("benchmark", "--config", path) == 1

    @pytest.mark.filterwarnings("error")
    def test_target_too_large_to_score_is_data_error(self, tmp_path, extreme_target_csv, capsys):
        assert run("benchmark", "--config", self._config(tmp_path, extreme_target_csv)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "base score nan" in err
        assert not (tmp_path / "bench" / "report.json").exists()


class TestTuneCommand:
    def test_writes_params(self, tmp_path, data_csv):
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "grid": {"n_trees": [5, 9], "max_depth": [2], "learning_rate": [0.3]},
        }))
        assert run("tune", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--config", config, "--seed", 2, "--out-dir", out) == 0
        obj = json.loads((out / "tuned_params.json").read_text())
        assert obj["params"]["n_trees"] in (5, 9)
        assert obj["seed"] == 2
        ds = load_csv(data_csv, "y", Task.REGRESSION)
        expected = tune(ds, TuningGrid((5, 9), (2,), (0.3,)), obj["k"], 2)
        assert TrainParams(**obj["params"]) == expected

    def test_target_too_large_to_score_is_data_error(self, tmp_path, extreme_target_csv):
        # the target's mean is NaN, so `train` rejects its base score; with
        # every warning shown, none reaches stderr before the message
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": {"n_trees": [3, 6], "max_depth": [2], "learning_rate": [0.3]}}))
        src = Path(interboost.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "interboost.cli", "tune", "--data", str(extreme_target_csv),
             "--target", "y", "--task", "regression", "--config", str(config), "--out-dir", str(out)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr and "base score nan" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (out / "tuned_params.json").exists()


class TestTargetScale:
    """R-squared is taken on the target divided by a power of two, so a
    target scaled by 2^k gets the same discovery and the same tuned pick."""

    GRID = {"grid": {"n_trees": [3, 6], "max_depth": [1, 2], "learning_rate": [0.1, 0.3]}}

    @classmethod
    def _outputs(cls, out, data):
        config = out / "cfg.json"
        out.mkdir()
        config.write_text(json.dumps(cls.GRID))
        common = ("--data", data, "--target", "y", "--task", "regression", "--seed", 3, "--out-dir", out)
        assert run("discover", *common) == 0
        assert run("tune", *common, "--config", config) == 0
        files = ("discovery_log.json", "partition.json", "tuned_params.json")
        return {name: (out / name).read_bytes() for name in files}

    @pytest.fixture(scope="class")
    def unscaled(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("unscaled")
        return self._outputs(tmp / "out", _product_target_csv(tmp / "plain.csv", lambda y: y))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-600, -1, 1, 200, 500, 507, 511, 514, 520, 900])
    def test_discovery_and_tune_pick_are_unchanged(self, tmp_path, unscaled, k):
        data = _product_target_csv(tmp_path / "scaled.csv", lambda y: np.ldexp(y, k))
        assert self._outputs(tmp_path / "out", data) == unscaled


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run("discover", "--bogus", "x") == 1

    def test_missing_required_inputs(self, capsys):
        assert run("train") == 1
        assert "missing required --data" in capsys.readouterr().err

    def test_unknown_task_value(self, tmp_path, data_csv, capsys):
        assert run("discover", "--data", data_csv, "--target", "y",
                   "--task", "ranking", "--out-dir", tmp_path) == 1
        # a config's task is checked with the config, before any file is read
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 2, "--out-dir", tmp_path) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"task": "regresion"}))
        commands = [("train", "--data", data, "--target", "y") for data in (data_csv, tmp_path / "missing.csv")]
        commands.append(("predict", "--data", data_csv, "--model", tmp_path / "model.json"))
        for argv in commands:
            capsys.readouterr()
            assert run(*argv, "--config", config, "--out-dir", tmp_path / "out") == 1
            assert "config field 'task': unknown task 'regresion'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


SMALL_GRID = {"n_trees": [2], "max_depth": [2], "learning_rate": [0.3]}

# (command, which file is bad, its contents, exit code, message substring);
# every user file ends with exit 1 (config) or 2 (data), never 3.
BAD_USER_FILES = {
    "deep-config": ("discover", "config", b"[" * 200_000, 1, "RecursionError"),
    "deep-constraints": ("train", "constraints", b"[" * 200_000, 2, "RecursionError"),
    "non-utf8-config": ("discover", "config", b'{"seed": "\xff"}', 1, "utf-8"),
    "non-utf8-constraints": ("train", "constraints", b"[[0, 1, 2, 3, 4, 5]]\xff", 2, "utf-8"),
    "non-utf8-model": ("predict", "model", b"\xff{}", 2, "utf-8"),
    "non-utf8-data": ("discover", "data", b"x0,y\n1,\xff\n", 2, "utf-8"),
    "non-utf8-predict-data": ("predict", "data", b"x0\n\xff\n", 2, "utf-8"),
    "long-cell": ("discover", "data", b"x0,y\n" + b"1" * 140_000 + b",2\n", 2, "field limit"),
    "train-n-trees": ("train", "config", {"train": {"n_trees": 2.5}}, 1, "n_trees 2.5"),
    "grid-n-trees": ("tune", "config", {"grid": {"n_trees": [2.5]}}, 1, "n_trees 2.5"),
    "grid-learning-rate": ("tune", "config", {"grid": {"learning_rate": [3]}}, 1, "learning_rate"),
    "seed-float": ("discover", "config", {"seed": 1.5}, 1, "seed 1.5"),
    "seed-string": ("discover", "config", {"seed": "7"}, 1, "seed '7'"),
    "k-folds": ("discover", "config", {"wrapper": {"k_folds": 2.5}}, 1, "k_folds 2.5"),
    "benchmark-k": ("tune", "config", {"benchmark": {"k": "3"}}, 1, "k '3'"),
    "out-dir": ("discover", "config", {"out_dir": 7}, 1, "out_dir"),
    "nul-in-path": ("discover", "config", {"out_dir": "out\0put"}, 1, "out_dir"),
    "int-digit-limit": ("discover", "config", b'{"seed": ' + b"9" * 5000 + b"}", 1, "not valid JSON"),
    "nan-reg-lambda": ("train", "config", b'{"train": {"reg_lambda": NaN}}', 1, "reg_lambda nan"),
    "random-runs": ("benchmark", "config",
                    {"grid": SMALL_GRID, "benchmark": {"random_runs": 2.5}}, 1, "random_runs 2.5"),
    "random-groups": ("benchmark", "config",
                      {"grid": SMALL_GRID, "benchmark": {"random_groups": 99}}, 2, "random_groups"),
    "benchmark-test-fraction": ("benchmark", "config",
                                {"grid": SMALL_GRID, "benchmark": {"test_fraction": 1.5}}, 1, "test_fraction"),
    "tune-test-fraction": ("tune", "config",
                           {"grid": SMALL_GRID, "benchmark": {"test_fraction": 0}}, 1, "test_fraction"),
    "train-unknown-key": ("train", "config", {"train": {"n_tree": 5}}, 1, "'n_tree'"),
    "train-seed": ("train", "config", {"train": {"seed": 9}}, 1, "'seed'"),
    "wrapper-unknown-key": ("discover", "config", {"wrapper": {"k_fold": 3}}, 1, "'k_fold'"),
    "grid-unknown-key": ("tune", "config", {"grid": {**SMALL_GRID, "depth": [2]}}, 1, "'depth'"),
    "benchmark-unknown-key": ("tune", "config", {"grid": SMALL_GRID, "benchmark": {"kfolds": 3}}, 1, "'kfolds'"),
    "unknown-top-level-key": ("train", "config", {"wraper": {"k_folds": 1}}, 1, "'wraper'"),
    "tune-train-section": ("tune", "config", {"grid": SMALL_GRID, "train": {"reg_lambda": -5}}, 1, "reg_lambda"),
    "benchmark-train-section": ("benchmark", "config",
                                {"grid": SMALL_GRID, "train": {"reg_lambda": -5}}, 1, "reg_lambda"),
    "benchmark-grid-key": ("benchmark", "config",
                           {"grid": SMALL_GRID, "benchmark": {"grid": "garbage"}}, 1, "'grid'"),
    "benchmark-wrapper-cfg-key": ("benchmark", "config",
                                  {"grid": SMALL_GRID, "benchmark": {"wrapper_cfg": {"k_folds": 3}}}, 1,
                                  "'wrapper_cfg'"),
    "predict-wrapper": ("predict", "config", {"wrapper": {"k_folds": 1}}, 1, "k_folds"),
    "config-array": ("discover", "config", [], 1, "config must be a JSON object"),
    "wrapper-array": ("discover", "config", {"wrapper": []}, 1, "must be an object"),
    "repeated-partial-x": ("benchmark", "config",
                           {"grid": SMALL_GRID, "benchmark": {"partial_x_list": [2, 2, 1]}}, 1,
                           "partial_x_list repeats the entry 2"),
    "repeated-header": ("train", "data", b"a,a,y\n1,2,3\n4,5,6\n", 2, "repeated header names ['a']"),
    "repeated-predict-header": ("predict", "data", b"x0,x1,x0\n1,2,3\n", 2,
                                "repeated header names ['x0']"),
}


@pytest.mark.parametrize(
    "command, role, contents, code, message", BAD_USER_FILES.values(), ids=BAD_USER_FILES.keys()
)
def test_bad_user_file_exits_cleanly(
    tmp_path, data_csv, capsys, command, role, contents, code, message
):
    out = tmp_path / "out"
    files = {"data": data_csv}
    if command == "predict":
        assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
                   "--n-trees", 2, "--out-dir", out) == 0
        files["model"] = out / "model.json"
    files[role] = tmp_path / "bad"
    if not isinstance(contents, bytes):
        contents = json.dumps(contents).encode()
    files[role].write_bytes(contents)
    argv = [command, "--data", files["data"], "--out-dir", out]
    if command == "predict":
        argv += ["--model", files["model"]]
    else:
        argv += ["--target", "y", "--task", "regression"]
    if command == "train" and role != "config":  # the flag would override the config
        argv += ["--n-trees", 2]
    for flag in ("config", "constraints"):
        if flag in files:
            argv += [f"--{flag}", files[flag]]
    capsys.readouterr()
    assert run(*argv) == code
    assert message in capsys.readouterr().err


# (command, config, extra flags): a bad config or flag, with a data file
# that does not exist; the config is checked first, so each exits 1
BAD_CONFIG_MISSING_DATA = {
    "train-n-trees": ("train", {}, ["--n-trees", -3]),
    "benchmark-test-fraction": ("benchmark", {"benchmark": {"test_fraction": 1.5}}, []),
    "tune-test-fraction": ("tune", {"benchmark": {"test_fraction": 1.5}}, []),
    "discover-k-folds": ("discover", {"wrapper": {"k_folds": 1}}, []),
    "discover-unknown-top-level-key": ("discover", {"trian": {"n_trees": 1}}, []),
}


@pytest.mark.parametrize(
    "command, config, flags", BAD_CONFIG_MISSING_DATA.values(), ids=BAD_CONFIG_MISSING_DATA.keys()
)
def test_bad_config_is_reported_before_the_data_is_read(tmp_path, capsys, command, config, flags):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run(command, "--data", tmp_path / "missing.csv", "--target", "y", "--task", "regression",
               "--config", tmp_path / "cfg.json", "--out-dir", tmp_path / "out", *flags) == 1
    assert capsys.readouterr().err.startswith("config error:")


# (--seed, config, (wrapper seed, split seed, tune fold seed)): the wrapper
# and split seeds take the flag, then their section's key, then the
# top-level `seed`, then 0; the tune fold seed has no section key, so
# `benchmark.split_seed` does not reach it.
SEED_PRECEDENCE = {
    "flag": (7, {"seed": 3, "wrapper": {"seed": 5}, "benchmark": {"split_seed": 4}}, (7, 7, 7)),
    "sections": (None, {"seed": 3, "wrapper": {"seed": 5}, "benchmark": {"split_seed": 4}}, (5, 4, 3)),
    "top-level": (None, {"seed": 3}, (3, 3, 3)),
    "split-seed-only": (None, {"benchmark": {"split_seed": 4}}, (0, 4, 0)),
    "none": (None, {}, (0, 0, 0)),
}


@pytest.mark.parametrize("flag, config, expected", SEED_PRECEDENCE.values(), ids=SEED_PRECEDENCE.keys())
def test_seed_precedence(tmp_path, data_csv, flag, config, expected):
    fast = {"partial_x_list": [1], "random_runs": 1}
    config = {"grid": SMALL_GRID, **config, "benchmark": {**fast, **config.get("benchmark", {})}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    seed_flag = [] if flag is None else ["--seed", flag]
    for command in ("discover", "benchmark", "tune"):
        assert run(command, "--data", data_csv, "--target", "y", "--task", "regression", *seed_flag,
                   "--config", tmp_path / "cfg.json", "--out-dir", tmp_path / command) == 0
    log = json.loads((tmp_path / "discover" / "discovery_log.json").read_text())
    seeds = json.loads((tmp_path / "benchmark" / "report.json").read_text())["seeds"]
    tuned = json.loads((tmp_path / "tune" / "tuned_params.json").read_text())
    wrapper, split, fold = expected
    assert (log["seed"], seeds["wrapper_seed"]) == (wrapper, wrapper)
    assert (seeds["split_seed"], tuned["seed"]) == (split, fold)


# (train flags, exit code, message substring); each is refused before
# discovery or training runs.
BAD_TRAIN_FLAGS = {
    "partial-x-zero": (["--partial-x", 0], 1, "--partial-x must be >= 1, got 0"),
    "partial-x-negative": (["--partial-x", -1], 1, "--partial-x must be >= 1, got -1"),
    "empty-constraints": (["--constraints", ""], 2, "No such file"),
    "empty-constraints-and-partial-x": (["--constraints", "", "--partial-x", 2], 1,
                                        "mutually exclusive"),
    "seed-without-partial-x": (["--seed", 99], 1, "train takes it only with --partial-x"),
    "seed-with-constraints": (["--seed", 99, "--constraints", ""], 1, "train takes it only with --partial-x"),
}


@pytest.mark.parametrize("flags, code, message", BAD_TRAIN_FLAGS.values(), ids=BAD_TRAIN_FLAGS.keys())
def test_bad_train_flag_exits_cleanly(tmp_path, data_csv, capsys, monkeypatch, flags, code, message):
    def no_discovery(*args):
        raise AssertionError("discovery ran")

    monkeypatch.setattr("interboost.cli.discover_constraints", no_discovery)
    out = tmp_path / "out"
    assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
               "--n-trees", 2, "--out-dir", out, *flags) == code
    assert message in capsys.readouterr().err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize(
    "flag", [("--seed", 5), ("--target", "y"), ("--task", "regression")], ids=["seed", "target", "task"]
)
def test_predict_takes_no_training_flags(tmp_path, data_csv, capsys, flag):
    # predict reads the feature names and the task from its model, and has no randomness to seed
    assert run("train", "--data", data_csv, "--target", "y", "--task", "regression",
               "--n-trees", 2, "--out-dir", tmp_path) == 0
    capsys.readouterr()
    assert run("predict", "--model", tmp_path / "model.json", "--data", data_csv, *flag,
               "--out-dir", tmp_path) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "predictions.csv").exists()


def test_non_string_data_path_does_not_read_stdin(tmp_path):
    # `open(0)` would read standard input, which stays open here, so the
    # command would wait for it until the timeout.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"data": 0}))
    src = Path(interboost.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "interboost.cli", "discover", "--config", str(config),
         "--target", "y", "--task", "regression", "--out-dir", str(tmp_path / "out")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(src)},
    )
    try:
        assert proc.wait(timeout=20) == 1
        assert "'data' must be a string" in proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()


def test_public_names_resolve():
    assert [name for name in interboost.__all__ if not hasattr(interboost, name)] == []
