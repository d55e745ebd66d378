"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import check_model, check_partition, check_predictions, check_report  # noqa: E402


# --- small copies of the workloads, same commands and checks ----------------


class SmallVariants(workloads.Variants):
    rows, new_rows = 300, 100
    config = {
        "grid": {"n_trees": [5, 10], "max_depth": [2], "learning_rate": [0.3]},
        "wrapper": {"epsilon": 5e-3},
        "benchmark": {"partial_x_list": [2], "random_runs": 2},
    }
    variant_ids = ("baseline", "full_interaction", "interaction_2", "random_interaction")

    def expected_baseline_r2(self, seed):
        return (self.band_r2, self.band_tolerance)  # the recorded values are for the full size


class SmallDiscoverWide(workloads.DiscoverWide):
    reg_rows, clf_rows, new_rows = 300, 200, 100
    n_trees = 4


class SmallTallTrain(workloads.TallTrain):
    rows, new_rows = 1000, 300
    n_trees = 3


SMALL = (SmallVariants(), SmallDiscoverWide(), SmallTallTrain())


def _generate(workload, seed, directory: Path) -> dict[str, bytes]:
    directory.mkdir(parents=True)
    workload.generate(seed, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=lambda w: w.name)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = _generate(workload, 7, tmp_path / "a")
    assert first == _generate(workload, 7, tmp_path / "b")
    other = _generate(workload, 8, tmp_path / "c")
    assert first.keys() == other.keys()
    assert any(first[name] != other[name] for name in first if name.endswith(".csv"))


def test_recorded_seeds_expect_their_baseline_exactly():
    recorded = workloads.load_baseline_r2()
    assert len(recorded) >= 20
    seed, r2 = next(iter(recorded.items()))
    v = workloads.WORKLOADS["variants"]
    assert v.expected_baseline_r2(seed) == (r2, v.recorded_tolerance)
    assert v.expected_baseline_r2(-1) == (v.band_r2, v.band_tolerance)


# --- each check accepts a right output and rejects corrupted ones ------------

GOOD_WIDE = [[8], [11], [9], [10], [2, 3], [18], [17], [15], [5, 4], [19], [7, 6], [12], [13], [14], [0, 1], [16]]
WIDE_PAIRS = workloads.DiscoverWide.reg_pairs


def test_check_partition():
    assert check_partition(GOOD_WIDE, 20, WIDE_PAIRS) is None
    assert check_partition([list(range(20))], 20, WIDE_PAIRS)  # all in one group
    assert check_partition([[f] for f in range(20)], 20, WIDE_PAIRS)  # pairs split
    assert check_partition(GOOD_WIDE[:-1], 20, WIDE_PAIRS)  # not exhaustive
    assert check_partition(GOOD_WIDE + [[16]], 20, WIDE_PAIRS)  # not disjoint
    assert check_partition(GOOD_WIDE + [[]], 20, WIDE_PAIRS)  # empty group
    assert check_partition({"groups": GOOD_WIDE}, 20, WIDE_PAIRS)  # not a list


def _report(baseline=0.84, partition=([4], [2, 3], [1, 0], [5]), drop=None):
    variants = [
        {"variant": "baseline", "constraint": None, "test_score": baseline},
        {"variant": "full_interaction", "constraint": {"partition": [list(g) for g in partition]},
         "test_score": 0.8},
        {"variant": "interaction_5", "constraint": {}, "test_score": 0.8},
        {"variant": "interaction_10", "constraint": {}, "test_score": 0.8},
        {"variant": "random_interaction", "constraint": {}, "test_score": 0.6},
    ]
    return {"variants": [v for v in variants if v["variant"] != drop]}


def test_check_report():
    v = workloads.Variants

    def check(report, expected=(v.band_r2, v.band_tolerance)):
        return check_report(report, v.variant_ids, v.pairs, *expected)

    assert check(_report()) is None
    assert check(_report(drop="interaction_10"))
    assert check(_report(baseline=v.band_r2 - 2 * v.band_tolerance))
    assert check(_report(baseline=math.nan))
    recorded = (0.84, v.recorded_tolerance)
    assert check(_report(baseline=0.84), recorded) is None
    assert check(_report(baseline=0.84 + 1e-6), recorded)
    assert check(_report(partition=([0, 1, 2, 3, 4, 5],)))
    assert check(_report(partition=([0, 2], [1, 3], [4], [5])))
    assert check({"variants": "none"})


def test_check_predictions():
    library = [0.25, 0.5, 0.75]
    good = "prediction\n0.25\n0.5\n0.75\n"
    assert check_predictions(good, 3, library, probabilities=True) is None
    assert check_predictions("prediction\n0.25\n0.5\n", 3, library, True)  # truncated
    assert check_predictions("0.25\n0.5\n0.75\n", 3, library, True)  # no header
    assert check_predictions("prediction\n0.25\nnan\n0.75\n", 3, library, False)
    assert check_predictions("prediction\n0.25\n1.5\n0.75\n", 3, [0.25, 1.5, 0.75], True)
    assert check_predictions("prediction\n0.25\n0.5\n0.7500000000000001\n", 3, library, True)
    assert check_predictions("prediction\n0.25\nx\n0.75\n", 3, library, True)
    assert check_predictions(good, 3, library[:2], True)


def test_check_model(tmp_path):
    from interboost.boosting import TrainParams, save_model, train
    from interboost.synth import paired_products_dataset

    path = tmp_path / "model.json"
    save_model(train(paired_products_dataset(50), None, TrainParams(3, 2, 0.3)), path)
    assert check_model(path, 3) is None
    assert check_model(path, 4)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert check_model(path, 3)
    assert check_model(tmp_path / "missing.json", 3)


# --- tracing -------------------------------------------------------------------


def test_wrappers_restore_module_attributes():
    import importlib

    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracer.TARGETS
    }
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            for (module, attr), fn in originals.items():
                wrapped = getattr(importlib.import_module(module), attr)
                assert wrapped is not fn and wrapped.__wrapped__ is fn
            raise RuntimeError("leave the block early")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_self_time_excludes_children_and_nested_names_count_once():
    S = tracer.Span
    spans = [
        S("cli.predict", 0.0, 10.0, None),
        S("boosting.load_model", 1.0, 2.0, 0),
        S("boosting.predict", 3.0, 7.0, 0, {"rows": 5}),
        S("boosting.predict", 4.0, 6.0, 2, {"rows": 5}),
    ]
    m = tracer.layer_metrics([spans])
    assert m["cli.predict.self_s"] == 5.0
    assert m["boosting.predict.calls"] == 1
    assert m["boosting.predict.s"] == 4.0
    assert m["boosting.predict.rows_per_s"] == 5 / 4.0


def _traced_counts(workload, work: Path) -> dict:
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload.generate(3, inputs)
    plain, traced = run.traced_run(workload, inputs, work, seconds=0)
    assert traced.traced and traced.outputs == plain.outputs
    metrics = tracer.layer_metrics(traced.spans)
    return {name: metrics[name] for name in tracer.EXACT_METRICS}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_count_metrics_repeat_across_traced_runs(workload, tmp_path):
    first = _traced_counts(workload, tmp_path / "a")
    assert first == _traced_counts(workload, tmp_path / "b")
    assert first["boosting.train.calls"] > 0 and first["boosting.nodes"] > 0
    # the CLI predict, library predict of every row, then the timed batches
    assert first["boosting.predict.calls"] >= 2 + run.MIN_BATCHES


def test_end_to_end_times_scale_with_the_calibration():
    samples = run.Samples(calibration_s=[2 * run.REFERENCE_CALIBRATION_S] * 3)
    measured = {"job_s": 10.0, "setup_s": 0.2, "peak_rss_mb": 40.0, "predict_s": 0.5,
                "predict_rows_per_s": 1000.0}
    assert run.end_to_end_metrics(measured, samples) == pytest.approx({
        "job_s": 5.0, "setup_s": 0.1, "peak_rss_mb": 40.0, "predict_s": 0.25, "predict_rows_per_s": 2000.0})


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(tracer.layer_metrics([])) == set(tracer.LAYER_UNITS)
    assert set(tracer.EXACT_METRICS) == {
        name for name in tracer.LAYER_UNITS
        if name.endswith((".calls", "_ratio")) or name in (
            "boosting.trees", "boosting.nodes", "linear.fit_logistic.newton_iters",
            "experiment.tune.trees")
    }


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "variants", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((ROOT / "BENCHMARK.json").read_text())["command"] == ["python3", "perfbench/run.py"]
