import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interboost import boosting, experiment
from interboost.boosting import FixedPartition, NoConstraints, PerResidual, TrainParams, predict, train
from interboost.data import DataError, train_test_split
from interboost.discovery import ConstraintPartition, WrapperConfig, discover_constraints
from interboost.experiment import (
    BenchmarkConfig,
    TuningGrid,
    benchmark,
    percent_change,
    random_partition,
    report_to_csv,
    tune,
)
from interboost.linear import score_for_task
from interboost.synth import paired_products_dataset

from conftest import make_classification, make_regression
from oracles import reference_benchmark, reference_tune


class TestTune:
    def test_single_cell_grid(self):
        ds = make_regression(60, 2, seed=0, target_fn=lambda X: X[:, 0])
        grid = TuningGrid((7,), (2,), (0.3,))
        params = tune(ds, grid, k=3, seed=1)
        assert (params.n_trees, params.max_depth, params.learning_rate) == (7, 2, 0.3)

    def test_noise_target_prefers_fewer_trees(self):
        # overfitting 200 trees onto noise loses the CV comparison to 10
        grid = TuningGrid((10, 200), (2,), (0.1,))
        wins = 0
        for seed in range(10):
            ds = make_regression(150, 3, seed=400 + seed)
            params = tune(ds, grid, k=3, seed=seed)
            wins += params.n_trees == 10
        assert wins >= 7

    def test_learnable_target_scores_well(self):
        from interboost.boosting import TrainParams, predict, train
        from interboost.linear import r_squared

        ds = make_regression(1000, 2, seed=5, target_fn=lambda X: X[:, 0], noise_sd=0.05)
        grid = TuningGrid((30, 60), (2, 3), (0.1, 0.3))
        params = tune(ds, grid, k=3, seed=2)
        # sanity oracle: a holdout fit with the chosen cell is strongly predictive
        from interboost.data import train_test_split

        tr, te = train_test_split(ds, 0.25, seed=0)
        ens = train(tr, None, params)
        assert r_squared(te.target, predict(ens, te)) >= 0.9

    def test_tie_break_order(self):
        # constant target: every cell scores identically, so fewer trees,
        # then shallower, then the lower rate must win, however the grid is
        # written
        ds = make_regression(30, 2, seed=1, target_fn=lambda X: np.full(X.shape[0], 2.0))
        for axes, expected in [
            (((5, 10), (2, 3), (0.1, 0.3)), (5, 2, 0.1)),
            (((10, 5), (2,), (0.3,)), (5, 2, 0.3)),
            (((5,), (3, 2), (0.3,)), (5, 2, 0.3)),
            (((5,), (2,), (0.3, 0.1)), (5, 2, 0.1)),
            (((10, 5, 10), (3, 2, 3), (0.3, 0.1)), (5, 2, 0.1)),
        ]:
            params = tune(ds, TuningGrid(*axes), k=3, seed=0)
            assert (params.n_trees, params.max_depth, params.learning_rate) == expected

    def test_pick_skips_non_finite_cells_and_keeps_the_first_tie(self, monkeypatch):
        # scripted cell scores, in grid order: NaN and -inf cells first, then
        # a lower finite cell and two tied ones; the first tie must win
        scripted = {
            (1, 1, 0.1): np.nan,
            (1, 1, 0.3): -np.inf,
            (1, 2, 0.1): 0.2,
            (1, 2, 0.3): 0.5,
            (2, 1, 0.1): 0.5,
        }

        def cell_of(ens):
            return (len(ens.trees), ens.params.max_depth, ens.params.learning_rate)

        monkeypatch.setattr(experiment, "_test_score", lambda ens, ds: scripted.get(cell_of(ens), 0.0))
        ds = make_regression(30, 2, seed=1)
        grid = TuningGrid((2, 1), (2, 1), (0.3, 0.1))
        params = tune(ds, grid, k=3, seed=0)
        assert (params.n_trees, params.max_depth, params.learning_rate) == (1, 2, 0.3)

        monkeypatch.setattr(experiment, "_test_score", lambda ens, ds: np.nan)
        with pytest.raises(DataError, match="no grid cell has a finite mean score"):
            tune(ds, grid, k=3, seed=0)

    def test_grid_axes_are_distinct_and_ascending(self):
        grid = TuningGrid([10, 5, 10], (3, 2), (0.3, 0.1, 0.3))
        assert (grid.n_trees, grid.max_depth, grid.learning_rate) == ((5, 10), (2, 3), (0.1, 0.3))


class TestStagedTune:
    """`tune` trains each (depth, rate, fold) once and scores every grid
    size n on that run's `ens[:n]`; `reference_tune` trains every cell."""

    @settings(max_examples=25, deadline=None)
    @given(
        classification=st.booleans(),
        constant=st.booleans(),
        seed=st.integers(0, 2**16),
        n_trees=st.lists(st.sampled_from([0, 1, 2, 3, 5]), min_size=1, max_size=4),
        max_depth=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=2),
        learning_rate=st.lists(st.sampled_from([0.1, 0.3, 1.0]), min_size=1, max_size=2),
        k=st.integers(2, 3),
    )
    def test_equals_reference(self, classification, constant, seed, n_trees, max_depth, learning_rate, k):
        # a constant target scores every cell alike, so ties decide the pick
        if classification:
            logit = (lambda X: np.full(X.shape[0], 50.0)) if constant else (lambda X: 3 * X[:, 0] * X[:, 1])
            ds = make_classification(40, 2, seed=seed, logit_fn=logit)
        else:
            target = (lambda X: np.full(X.shape[0], 1.5)) if constant else (lambda X: X[:, 0] * X[:, 1])
            ds = make_regression(40, 2, seed=seed, target_fn=target, noise_sd=0.0 if constant else 0.3)
        grid = TuningGrid(tuple(n_trees), tuple(max_depth), tuple(learning_rate))
        assert tune(ds, grid, k, seed) == reference_tune(ds, grid, k, seed)

    def test_trains_once_per_depth_rate_fold_at_the_largest_size(self, monkeypatch):
        sizes = []

        def counting_train(ds, rows, params, schedule=NoConstraints()):
            sizes.append(params.n_trees)
            return train(ds, rows, params, schedule)

        monkeypatch.setattr(experiment, "train", counting_train)
        ds = make_regression(60, 2, seed=3, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.2)
        tune(ds, TuningGrid((3, 7, 0, 7), (2, 3), (0.1, 0.3)), k=3, seed=0)
        assert sizes == [7] * (2 * 2 * 3)


class TestRandomPartition:
    def test_thirteen_into_two(self):
        part = random_partition(13, 2, seed=0)
        sizes = sorted(len(g) for g in part.groups)
        assert sizes == [6, 7]
        part.validate_for(13)

    def test_single_group(self):
        assert random_partition(5, 1, seed=3).to_json_obj() == [list(random_partition(5, 1, seed=3).groups[0])]
        assert sorted(random_partition(5, 1, seed=3).groups[0]) == [0, 1, 2, 3, 4]

    def test_all_singletons(self):
        part = random_partition(4, 4, seed=9)
        assert sorted(len(g) for g in part.groups) == [1, 1, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            random_partition(3, 0, seed=0)
        with pytest.raises(ValueError):
            random_partition(3, 4, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        groups=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_always_valid_and_balanced(self, n, groups, seed):
        if groups > n:
            return
        part = random_partition(n, groups, seed)
        part.validate_for(n)
        sizes = [len(g) for g in part.groups]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert random_partition(10, 3, seed=4).groups == random_partition(10, 3, seed=4).groups


class TestVariantSchedules:
    """The schedule behind each benchmark variant, trained directly."""

    def _ds(self):
        return make_regression(
            150, 3, seed=8, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1
        )

    def _params(self, n_trees=6):
        return TrainParams(n_trees, 2, 0.3)

    def _partial(self, ds, first_x):
        cfg = WrapperConfig(seed=0, epsilon=5e-3)
        return PerResidual(first_x, cfg, discover_constraints(ds, cfg))

    def test_baseline_logs_no_constraints(self):
        ens = train(self._ds(), None, self._params(), NoConstraints())
        assert all(p is None for p in ens.constraint_log)

    def test_partial_schedule_bookkeeping(self):
        ds = self._ds()
        ens = train(ds, None, self._params(n_trees=10), self._partial(ds, 3))
        flags = [p is not None for p in ens.constraint_log]
        assert flags == [True] * 3 + [False] * 7

    def test_partial_x_at_least_n_trees_logs_everywhere(self):
        ds = self._ds()
        ens = train(ds, None, self._params(n_trees=4), self._partial(ds, 99))
        assert all(p is not None for p in ens.constraint_log)

    def test_full_with_single_group_matches_baseline(self):
        # so `benchmark` scores a one-group partition as the baseline
        single = ConstraintPartition(((2, 0, 1),))
        for ds in (self._ds(), make_classification(150, 3, seed=8, logit_fn=lambda X: 3 * X[:, 0] * X[:, 1])):
            constrained = train(ds, None, self._params(), FixedPartition(single))
            free = train(ds, None, self._params(), NoConstraints())
            assert [a.nodes.tobytes() for a in constrained.trees] == [b.nodes.tobytes() for b in free.trees]
            assert predict(constrained, ds).tobytes() == predict(free, ds).tobytes()


class TestPercentChange:
    def test_matches_published_style_values(self):
        # accuracy 84.615385 -> 85.714286 is a ~+1.299% change
        assert percent_change(84.615385, 85.714286) == pytest.approx(1.2988, abs=1e-3)

    def test_self_is_zero(self):
        assert percent_change(0.8, 0.8) == 0.0

    def test_negative_baseline_uses_absolute_value(self):
        assert percent_change(-0.5, -0.25) == pytest.approx(50.0)

    def test_zero_baseline_is_none(self):
        assert percent_change(0.0, 0.1) is None


def _tiny_benchmark_config():
    return BenchmarkConfig(
        test_fraction=0.25,
        split_seed=3,
        grid=TuningGrid((8, 15), (2,), (0.3,)),
        k=3,
        wrapper_cfg=WrapperConfig(seed=3, epsilon=5e-3),
        partial_x_list=(2, 3),
        random_runs=2,
        random_groups=2,
    )


@pytest.fixture(scope="module")
def report():
    ds = paired_products_dataset(240, seed=1)
    return benchmark(ds, _tiny_benchmark_config(), dataset_name="synthetic")


class TestBenchmark:
    def test_variant_naming_scheme(self, report):
        names = [v["variant"] for v in report["variants"]]
        assert names == [
            "baseline",
            "full_interaction",
            "interaction_2",
            "interaction_3",
            "random_interaction",
        ]

    def test_baseline_percent_change_zero(self, report):
        assert report["variants"][0]["percent_change_from_baseline"] == 0.0

    def test_percent_changes_recompute_from_scores(self, report):
        base = report["variants"][0]["test_score"]
        for v in report["variants"]:
            assert v["percent_change_from_baseline"] == percent_change(base, v["test_score"])

    def test_random_entry_is_mean_of_runs(self, report):
        random = report["variants"][-1]
        assert len(random["runs"]) == 2
        assert random["test_score"] == pytest.approx(
            float(np.mean([r["test_score"] for r in random["runs"]])), abs=0
        )
        seeds = [r["seed"] for r in random["runs"]]
        assert seeds == report["seeds"]["random_seeds"]

    def test_random_runs_use_seeded_partitions(self, report):
        n_features = paired_products_dataset(240, seed=1).n_features
        groups = _tiny_benchmark_config().random_groups
        for run in report["variants"][-1]["runs"]:
            assert run["groups"] == random_partition(n_features, groups, run["seed"]).to_json_obj()

    def test_report_serializations(self, report):
        text = json.dumps(report, indent=2)
        assert json.loads(text) == report
        csv_text = report_to_csv(report)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "dataset,task,variant,test_score,percent_change_from_baseline"
        assert len(lines) == 1 + len(report["variants"])
        # raw scores in the CSV parse back to the exact stored floats
        for line, v in zip(lines[1:], report["variants"]):
            cells = line.split(",")
            assert float(cells[3]) == v["test_score"]

    def test_csv_quotes_a_dataset_name_with_a_comma(self, report):
        text = report_to_csv({**report, "dataset": "a,b"})
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [5] * (1 + len(report["variants"]))
        assert {row[0] for row in rows[1:]} == {"a,b"}

    def test_deterministic(self, report):
        ds = paired_products_dataset(240, seed=1)
        again = benchmark(ds, _tiny_benchmark_config(), dataset_name="synthetic")
        assert again == report


class TestPartialRuns:
    def test_each_x_is_its_own_per_residual_run(self, monkeypatch):
        calls = []
        discover = boosting.discover_constraints_for_residuals

        def counting_discover(*args, **kwargs):
            calls.append(1)
            return discover(*args, **kwargs)

        monkeypatch.setattr(boosting, "discover_constraints_for_residuals", counting_discover)
        ds = paired_products_dataset(160, seed=2)
        cfg = dataclasses.replace(
            _tiny_benchmark_config(), grid=TuningGrid((4,), (2,), (0.3,)), partial_x_list=(2, 6, 3), random_runs=1
        )
        report = benchmark(ds, cfg)
        tuned = TrainParams(**report["tuned_params"])
        assert tuned.n_trees == 4
        assert len(calls) == sum(min(x, 4) - 1 for x in (2, 6, 3))
        # each interaction_x is the model PerResidual(x) trains alone
        train_ds, test_ds = train_test_split(ds, cfg.test_fraction, cfg.split_seed)
        base_partition = report["variants"][1]["constraint"]["partition"]
        partial = report["variants"][2:-1]
        assert [v["variant"] for v in partial] == ["interaction_2", "interaction_6", "interaction_3"]
        partial = {v["variant"]: v["test_score"] for v in partial}
        for x in (2, 6, 3):
            schedule = PerResidual(x, cfg.wrapper_cfg, ConstraintPartition(tuple(map(tuple, base_partition))))
            prediction = predict(train(train_ds, None, tuned, schedule), test_ds)
            assert partial[f"interaction_{x}"] == score_for_task(test_ds.task, test_ds.target, prediction)


class TestSharedScores:
    """`benchmark` trains one model per distinct canonical partition, one
    group counting as no constraint, and reports what training every run
    from scratch reports."""

    @pytest.mark.parametrize("random_groups", [1, 2, 6])
    def test_equal_groups_train_once(self, monkeypatch, random_groups):
        trained = []

        def counting_train(ds, rows, params, schedule=NoConstraints()):
            if rows is None and not isinstance(schedule, PerResidual):  # not tuning or interaction_x
                trained.append(None if isinstance(schedule, NoConstraints) else schedule.partition.canonical())
            return train(ds, rows, params, schedule)

        monkeypatch.setattr(experiment, "train", counting_train)
        ds = paired_products_dataset(160, seed=2)
        cfg = dataclasses.replace(
            _tiny_benchmark_config(), grid=TuningGrid((4,), (2,), (0.3,)), partial_x_list=(2,),
            random_runs=4, random_groups=random_groups,
        )
        report = benchmark(ds, cfg)
        full, random = report["variants"][1], report["variants"][-1]
        runs = {ConstraintPartition.from_json_obj(run["groups"], ds.n_features).canonical() for run in random["runs"]}
        if random_groups == 6:
            assert runs == {((0,), (1,), (2,), (3,), (4,), (5,))}
        full_groups = ConstraintPartition.from_json_obj(full["constraint"]["partition"], ds.n_features).canonical()
        fixed = ({full_groups} | runs) - {((0, 1, 2, 3, 4, 5),)}
        assert trained[0] is None  # the baseline
        assert sorted(trained[1:]) == sorted(fixed)  # each distinct constraint once
        assert report == reference_benchmark(ds, cfg)


class TestConfigValidation:
    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError):
            TuningGrid((), (2,), (0.1,))

    @pytest.mark.parametrize(
        "axes",
        [((2.5,), (2,), (0.1,)), ((5,), (2, 0), (0.1,)), ((5,), (2,), (0.1, 3)), (5, (2,), (0.1,))],
    )
    def test_bad_grid_entry_rejected_when_built(self, axes):
        with pytest.raises((TypeError, ValueError)):
            TuningGrid(*axes)

    def test_json_lists_become_tuples(self):
        grid = TuningGrid([5], [2], [0.1])
        assert grid == TuningGrid((5,), (2,), (0.1,))
        assert BenchmarkConfig(partial_x_list=[1, 2]).partial_x_list == (1, 2)

    def test_bad_benchmark_config(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(partial_x_list=(0,))
        with pytest.raises(ValueError, match="repeats the entry 2"):
            BenchmarkConfig(partial_x_list=(2, 1, 2))
        with pytest.raises(ValueError):
            BenchmarkConfig(random_runs=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(k=1)
        with pytest.raises(TypeError):
            BenchmarkConfig(k="3")
        with pytest.raises(TypeError):
            BenchmarkConfig(split_seed=1.5)
        with pytest.raises(TypeError):
            BenchmarkConfig(partial_x_list=(1.5,))

    def test_partial_interaction_requires_positive_x(self):
        partition = ConstraintPartition(((0,),))
        with pytest.raises(ValueError):
            PerResidual(0, WrapperConfig(), partition)
        with pytest.raises(TypeError):
            PerResidual(1.5, WrapperConfig(), partition)
