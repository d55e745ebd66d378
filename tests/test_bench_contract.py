"""The benchmark in perfbench/ wraps package functions by module and name and
reads tree sizes from the ensembles they return; these tests fail when a
source change removes a name it wraps or breaks the node count it reports."""

import importlib
import importlib.util
import sys
from pathlib import Path

from interboost.boosting import TrainParams, ensemble_to_json_obj
from interboost.discovery import WrapperConfig
from conftest import make_regression

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_traced_target_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_traced_train_counts_every_node():
    ds = make_regression(80, 3, seed=4, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1)
    recorder = tracer.Tracer()
    with recorder.installed():
        from interboost import cli

        ens = cli.train(ds, None, TrainParams(4, 3, 0.3))
    [span] = [s for s in recorder.spans if s.name == "boosting.train"]
    model = ensemble_to_json_obj(ens)
    assert span.attrs["trees"] == len(model["trees"]) == 4
    assert span.attrs["nodes"] == sum(len(tree["nodes"]) for tree in model["trees"])
    assert span.attrs["nodes"] == sum(len(tree.nodes) for tree in ens.trees) > 4


def test_traced_discovery_records_one_linear_predict_per_fit():
    ds = make_regression(60, 3, seed=2, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1)
    recorder = tracer.Tracer()
    with recorder.installed():
        from interboost import cli

        cli.discover_constraints_traced(ds, WrapperConfig(seed=1))
    names = [s.name for s in recorder.spans]
    assert names.count("linear.predict") == names.count("linear.fit_ols") > 0


def test_traced_benchmark_tunes_each_cell_once_at_the_largest_size():
    from interboost.experiment import BenchmarkConfig, TuningGrid
    from interboost.synth import paired_products_dataset

    cfg = BenchmarkConfig(
        grid=TuningGrid((3, 6), (2, 3), (0.3,)),
        k=2,
        wrapper_cfg=WrapperConfig(seed=1, epsilon=5e-3),
        partial_x_list=(2,),
        random_runs=1,
    )
    recorder = tracer.Tracer()
    with recorder.installed():
        from interboost import cli

        cli.benchmark(paired_products_dataset(160, seed=2), cfg)
    metrics = tracer.layer_metrics([recorder.spans])
    assert metrics["experiment.tune.useful_tree_ratio"] == 1.0
    assert metrics["experiment.tune.trees"] == 2 * 1 * 2 * 6  # depths x rates x folds x max n_trees
