import dataclasses
import json
import re

import numpy as np
import pytest

from interboost.boosting import PerResidual, TrainParams, train, used_group
from interboost.data import DataError, Dataset, Task
from interboost.discovery import (
    ConstraintPartition,
    WrapperConfig,
    discover_constraints,
    discover_constraints_for_residuals,
    discover_constraints_traced,
)
from interboost.linear import FoldScorer, cv_score_terms
from interboost.synth import paired_products_dataset

from conftest import make_classification, make_regression

# features 0 and 1 with and without their product column
PLAIN_TERMS = ((0, 1), ())
PRODUCT_TERMS = ((0, 1), (0, 1))

# CV R-squared differences from a few pure-noise product columns fluctuate
# around +-1e-3 at n=2000, so statistical recovery tests set epsilon above
# that floor; the package default (1e-6) only guards against float noise.
EPS = 5e-3


def group_map(partition):
    return {f: gi for gi, group in enumerate(partition.groups) for f in group}


class TestConstraintPartition:
    def test_valid_partition(self):
        p = ConstraintPartition(((2, 0), (1,)))
        p.validate_for(3)
        assert p.group_index_of(0) == 0
        assert p.group_index_of(1) == 1

    def test_rejects_overlap(self):
        with pytest.raises(DataError, match="more than one"):
            ConstraintPartition(((0, 1), (1, 2)))

    def test_rejects_empty_group(self):
        with pytest.raises(DataError, match="nonempty"):
            ConstraintPartition(((0,), ()))

    def test_rejects_non_exhaustive(self):
        with pytest.raises(DataError, match="cover"):
            ConstraintPartition(((0, 2),)).validate_for(3)

    def test_json_round_trip(self):
        p = ConstraintPartition(((3, 1), (0, 2)))
        obj = p.to_json_obj()
        assert obj == [[3, 1], [0, 2]]
        back = ConstraintPartition.from_json_obj(obj, n_features=4)
        assert back.groups == p.groups

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DataError):
            ConstraintPartition.from_json_obj({"not": "a list"}, 1)
        with pytest.raises(DataError):
            ConstraintPartition.from_json_obj([[0.5]], 1)

    @pytest.mark.parametrize("entry", [0.9, np.float64(1.0), True], ids=["float", "np.float64", "bool"])
    def test_rejects_an_entry_that_is_not_an_integer(self, entry):
        with pytest.raises(DataError, match=re.escape(f"entry {entry!r} is not an integer")):
            ConstraintPartition(((entry,), (2,)))

    def test_accepts_numpy_integers(self):
        p = ConstraintPartition(((np.int64(1), np.int64(0)), (np.int64(2),))).validate_for(3)
        assert p.to_json_obj() == [[1, 0], [2]]
        assert all(type(f) is int for g in p.groups for f in g)


class TestDiscovery:
    def test_single_feature(self):
        ds = make_regression(30, 1, seed=0, target_fn=lambda X: X[:, 0])
        part = discover_constraints(ds, WrapperConfig(seed=0))
        assert part.to_json_obj() == [[0]]

    def test_recovers_product_pair(self):
        # y = x0*x1 + noise with two extra noise features: the pair must be
        # grouped together and the noise features kept out of that group.
        # Oracle cross-check per seed: the interaction model's CV R-squared
        # beats the additive model by far more than 10 * epsilon.
        hits = 0
        singleton_hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.uniform(-1.0, 1.0, size=(2000, 4))
            y = X[:, 0] * X[:, 1] + rng.normal(0.0, 0.1, size=2000)
            ds = Dataset(X, ("a", "b", "c", "d"), y, Task.REGRESSION)

            gap = cv_score_terms(ds, None, PRODUCT_TERMS, 3, seed) - cv_score_terms(
                ds, None, PLAIN_TERMS, 3, seed
            )
            assert gap > 10 * EPS

            part = discover_constraints(ds, WrapperConfig(seed=seed, epsilon=EPS))
            g = group_map(part)
            hits += g[0] == g[1] and g[2] != g[0] and g[3] != g[0]
            sizes = {f: len(grp) for grp in part.groups for f in grp}
            singleton_hits += sizes[2] == 1 and sizes[3] == 1
        assert hits >= 8
        # features the target ignores should land in singleton groups
        assert singleton_hits >= 8

    def test_additive_features_stay_separate(self):
        # oracle: interaction term adds nothing for an additive target
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            X = rng.uniform(-1.0, 1.0, size=(2000, 4))
            y = X[:, 0] + X[:, 1] + rng.normal(0.0, 0.1, size=2000)
            ds = Dataset(X, ("a", "b", "c", "d"), y, Task.REGRESSION)

            gap = cv_score_terms(ds, None, PRODUCT_TERMS, 3, seed) - cv_score_terms(
                ds, None, PLAIN_TERMS, 3, seed
            )
            assert gap <= 10 * EPS

            part = discover_constraints(ds, WrapperConfig(seed=seed, epsilon=EPS))
            g = group_map(part)
            hits += g[0] != g[1]
        assert hits >= 8

    def test_thirteen_feature_output_shape(self):
        # partitions over a wider table come out as a list of disjoint
        # index groups covering 0..12, whatever the grouping
        ds = make_regression(150, 13, seed=7)
        part = discover_constraints(ds, WrapperConfig(seed=7))
        part.validate_for(13)
        flat = sorted(f for g in part.groups for f in g)
        assert flat == list(range(13))

    def test_determinism(self):
        ds = make_regression(120, 5, seed=1, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1)
        cfg = WrapperConfig(seed=9, epsilon=EPS)
        assert (
            discover_constraints(ds, cfg).groups
            == discover_constraints(ds, cfg).groups
        )

    def test_one_fold_plan_per_discovery(self, monkeypatch):
        import interboost.linear

        plans = []
        original = interboost.linear.kfold

        def counting_kfold(n_rows, k, seed):
            plans.append((n_rows, k, seed))
            return original(n_rows, k, seed)

        monkeypatch.setattr(interboost.linear, "kfold", counting_kfold)
        ds = make_regression(120, 8, seed=5, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1)
        discover_constraints(ds, WrapperConfig(seed=3))
        assert plans == [(120, 3, 3)]

    @staticmethod
    def _count_stacked_fits(monkeypatch):
        """Record the number of designs in each stack that reaches the fits."""
        import interboost.linear

        stacks = []
        for name in ("fit_ols", "fit_logistic"):
            original = getattr(interboost.linear, name)

            def counting(values, y, original=original):
                stacks.append(len(values))
                return original(values, y)

            monkeypatch.setattr(interboost.linear, name, counting)
        return stacks

    @pytest.mark.parametrize(
        "ds",
        [
            make_regression(120, 8, seed=5, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2] * X[:, 3], noise_sd=0.1),
            make_classification(150, 6, seed=22, logit_fn=lambda X: 3 * X[:, 2] * X[:, 4]),
        ],
        ids=["regression", "classification"],
    )
    def test_each_distinct_design_is_fitted_once_per_fold(self, monkeypatch, ds):
        stacks = self._count_stacked_fits(monkeypatch)
        _, steps = discover_constraints_traced(ds, WrapperConfig(seed=3, epsilon=EPS))
        scored, designs, group = 0, set(), []
        for step in steps:
            for c in step.candidates:
                if step.action == "seed":
                    designs.add(((c.feature,), ()))
                else:
                    features = tuple(group + [c.feature])
                    designs.add((features, tuple(sorted(group)) if len(group) > 1 else ()))
                    designs.add((features, tuple(sorted(features))))
                scored += 1 if step.action == "seed" else 2
            group = [] if step.action == "close" else list(step.subset)
        assert sum(stacks) == 3 * len(designs) < 3 * scored  # the seed steps repeat

    def test_a_scope_of_one_feature_shares_the_fit_of_the_empty_scope(self, monkeypatch):
        stacks = self._count_stacked_fits(monkeypatch)
        scorer = FoldScorer(make_regression(60, 3, seed=1), 3, 0)
        designs = [([0, 1], [0]), ([0, 1], []), ([1, 0], []), ([1, 0], [1]), ([0, 1], [1, 0]), ([0, 1], [0, 1])]
        scores = scorer.score_many(designs)
        # per fold, one stack of ((0, 1), ()) and ((1, 0), ()), then ((0, 1), (0, 1)) alone
        assert stacks == [2, 2, 2, 1, 1, 1]
        assert scores[0] == scores[1] and scores[2] == scores[3] and scores[4] == scores[5]
        assert scorer.score_many(designs[::-1]) == scores[::-1]
        assert len(stacks) == 6

    def test_max_group_size_cap(self):
        ds = make_regression(
            300, 4, seed=3, target_fn=lambda X: X[:, 0] * X[:, 1] * X[:, 2], noise_sd=0.05
        )
        part = discover_constraints(ds, WrapperConfig(seed=0, max_group_size=2))
        assert all(len(g) <= 2 for g in part.groups)


class TestDiscoveryTrace:
    def test_monotone_growth_and_bounds(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n_features = int(rng.integers(1, 6))
            n_rows = int(rng.integers(16, 40))
            ds = make_regression(n_rows, n_features, seed=1000 + trial)
            cfg = WrapperConfig(k_folds=2, seed=trial)
            part, steps = discover_constraints_traced(ds, cfg)
            part.validate_for(n_features)

            candidate_evaluations = sum(
                len(s.candidates) for s in steps if s.action == "add" or s.action == "close"
            )
            assert candidate_evaluations <= n_features**2
            assert len(steps) <= 2 * n_features

            for step in steps:
                if step.action == "add":
                    assert step.interaction_score > step.plain_score + cfg.epsilon

    def test_seed_step_records_single_feature_scores(self):
        ds = make_regression(40, 3, seed=5, target_fn=lambda X: X[:, 2], noise_sd=0.1)
        _, steps = discover_constraints_traced(ds, WrapperConfig(seed=1))
        first = steps[0]
        assert first.action == "seed"
        assert first.feature == 2  # only x2 carries signal
        assert {c.feature for c in first.candidates} == {0, 1, 2}


class TestDiscoveryFuzz:
    def test_partition_invariants_on_random_datasets(self):
        # 200 random datasets: output must always be a valid partition
        rng = np.random.default_rng(42)
        for trial in range(200):
            n_features = int(rng.integers(1, 5))
            n_rows = int(rng.integers(12, 32))
            task = Task.REGRESSION if trial % 7 else Task.BINARY_CLASSIFICATION
            X = rng.normal(size=(n_rows, n_features))
            if task is Task.REGRESSION:
                y = rng.normal(size=n_rows)
            else:
                y = rng.integers(0, 2, size=n_rows).astype(float)
            ds = Dataset(X, tuple(f"x{i}" for i in range(n_features)), y, task)
            part = discover_constraints(ds, WrapperConfig(k_folds=2, seed=trial))
            part.validate_for(n_features)
            flat = sorted(f for g in part.groups for f in g)
            assert flat == list(range(n_features))
            assert all(len(g) >= 1 for g in part.groups)


class TestResidualDiscovery:
    def test_same_target_same_partition(self):
        ds = make_regression(
            400, 4, seed=11, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1
        )
        cfg = WrapperConfig(seed=4, epsilon=EPS)
        direct = discover_constraints(ds, cfg)
        via_residuals = discover_constraints_for_residuals(ds, ds.target, cfg)
        assert direct.groups == via_residuals.groups

    def test_zero_residuals_give_singletons(self):
        ds = make_regression(60, 4, seed=2)
        part = discover_constraints_for_residuals(ds, np.zeros(60), WrapperConfig(seed=0))
        assert part.to_json_obj() == [[0], [1], [2], [3]]

    def test_residuals_of_constant_first_tree(self):
        # a depth-0 "tree" predicts the mean; its residuals keep the product
        # structure, so discovery on them must pair features 2 and 3
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            X = rng.uniform(-1.0, 1.0, size=(2000, 6))
            y = X[:, 2] * X[:, 3] + rng.normal(0.0, 0.1, size=2000)
            ds = Dataset(X, tuple(f"x{i}" for i in range(6)), y, Task.REGRESSION)
            residuals = y - y.mean()
            part = discover_constraints_for_residuals(
                ds, residuals, WrapperConfig(seed=seed, epsilon=EPS)
            )
            g = group_map(part)
            hits += g[2] == g[3]
        assert hits >= 8

    def test_residual_length_checked(self):
        ds = make_regression(30, 2, seed=0)
        with pytest.raises(ValueError, match="length"):
            discover_constraints_for_residuals(ds, np.zeros(29), WrapperConfig())

    def test_classification_residuals_use_regression_path(self):
        # continuous residuals from a classification model must not trip the
        # 0/1 target validation
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float)
        ds = Dataset(X, ("a", "b", "c"), y, Task.BINARY_CLASSIFICATION)
        residuals = y - 0.5
        part = discover_constraints_for_residuals(ds, residuals, WrapperConfig(seed=1))
        part.validate_for(3)


class TestScaleInvariance:
    """Multiplying a feature by 2^k is exact, so its standardized columns,
    and with them every discovery score, must not change; tree thresholds
    on it must scale by 2^k and nothing else in a model may change."""

    CFG = WrapperConfig(epsilon=EPS)

    def _log(self, ds):
        partition, steps = discover_constraints_traced(ds, self.CFG)
        return partition, json.dumps([dataclasses.asdict(s) for s in steps])

    @pytest.fixture(scope="class")
    def reference(self):
        ds = paired_products_dataset(300, seed=1)
        partition, log = self._log(ds)
        assert partition.groups == ((2, 3, 1, 0), (4,), (5,))
        params = TrainParams(6, 3, 0.3)
        ens = train(ds, None, params, PerResidual(3, self.CFG, partition))
        assert any((tree.nodes["feature"] == 2).any() for tree in ens.trees)
        return ds, log, params, ens

    @pytest.mark.parametrize("k", [-600, -520, -300, -64, -1, 1, 64, 300, 509, 510, 512, 600])
    def test_power_of_two_scaling(self, reference, k):
        ds, log, params, ens = reference
        X = np.array(ds.features)
        X[:, 2] = np.ldexp(X[:, 2], k)
        scaled = Dataset(X, ds.feature_names, ds.target, ds.task)
        partition, scaled_log = self._log(scaled)
        assert scaled_log == log
        scaled_ens = train(scaled, None, params, PerResidual(3, self.CFG, partition))
        groups = [None if p is None else p.groups for p in ens.constraint_log]
        assert [None if p is None else p.groups for p in scaled_ens.constraint_log] == groups
        trees = zip(ens.trees, ens.constraint_log, scaled_ens.trees, scaled_ens.constraint_log, strict=True)
        for tree, logged, scaled_tree, scaled_logged in trees:
            assert used_group(scaled_tree, scaled_logged) == used_group(tree, logged)
            nodes, scaled_nodes = tree.nodes, scaled_tree.nodes
            for field in ("feature", "weight"):
                np.testing.assert_array_equal(scaled_nodes[field], nodes[field])
            on_2 = nodes["feature"] == 2
            expected = np.where(on_2, np.ldexp(nodes["threshold"], k), nodes["threshold"])
            np.testing.assert_array_equal(scaled_nodes["threshold"], expected)
