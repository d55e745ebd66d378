"""The benchmark in perfbench/ wraps package functions by module and name and
reads tree sizes from the ensembles they return; these tests fail when a
source change removes a name it wraps, renames a parameter a note reads, or
breaks the node count it reports."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from interboost.boosting import TrainParams, ensemble_to_json_obj
from interboost.discovery import WrapperConfig
from conftest import make_classification, make_regression

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


def test_every_note_reads_parameters_of_the_function_it_wraps():
    # a note gets the wrapped call's bound arguments as a dict; a key that is
    # not a parameter fails only when a traced run reaches the call
    defs = {
        node.name: node
        for node in ast.parse(TRACER_PATH.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    unknown, read = [], 0
    for module, attr, _, note in tracer.TARGETS:
        if note is None:
            continue
        note_def = defs[note.__name__]
        arguments = note_def.args.args[0].arg
        keys = {
            node.slice.value
            for node in ast.walk(note_def)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == arguments
            and isinstance(node.slice, ast.Constant)
        }
        parameters = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        unknown += [f"{module}.{attr}: {key}" for key in sorted(keys - set(parameters))]
        read += len(keys)
    assert unknown == []
    assert read > 0


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


def test_traced_classification_discovery_records_newton_iterations():
    ds = make_classification(60, 3, seed=2, logit_fn=lambda X: 3.0 * X[:, 0] * X[:, 1])
    recorder = tracer.Tracer()
    with recorder.installed():
        from interboost import cli

        cli.discover_constraints_traced(ds, WrapperConfig(seed=1))
    fits = [s for s in recorder.spans if s.name == "linear.fit_logistic"]
    assert fits and all("newton_iters" in s.attrs for s in fits)
    metrics = tracer.layer_metrics([recorder.spans])
    assert metrics["linear.fit_logistic.newton_iters"] == sum(s.attrs["newton_iters"] for s in fits) > 0
    assert [s.name for s in recorder.spans].count("linear.predict") == len(fits)


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


def test_traced_tree_count_is_the_count_of_trees_grown(monkeypatch):
    from interboost import boosting
    from interboost.experiment import BenchmarkConfig, TuningGrid
    from interboost.synth import paired_products_dataset

    grown = []
    grow = boosting._grow

    def counting_grow(*args):
        grown.append(1)
        return grow(*args)

    monkeypatch.setattr(boosting, "_grow", counting_grow)
    cfg = BenchmarkConfig(
        grid=TuningGrid((3, 6), (2, 3), (0.3,)),
        k=2,
        wrapper_cfg=WrapperConfig(seed=1, epsilon=5e-3),
        partial_x_list=(2, 4),
        random_runs=1,
    )
    recorder = tracer.Tracer()
    with recorder.installed():
        from interboost import cli

        cli.benchmark(paired_products_dataset(160, seed=2), cfg)
    assert tracer.layer_metrics([recorder.spans])["boosting.trees"] == len(grown)
