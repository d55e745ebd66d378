import gc
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from interboost import boosting
from interboost.boosting import (
    WALK_CELLS,
    Ensemble,
    FixedPartition,
    FlatTrees,
    NODE,
    NoConstraints,
    PerResidual,
    TrainParams,
    Tree,
    _find_split,
    _grow,
    _packed,
    default_base_score,
    presort,
    ensemble_from_json_obj,
    ensemble_to_json_obj,
    grad_hess,
    leaf_weight,
    load_model,
    predict,
    predict_matrix,
    predict_raw_matrix,
    save_model,
    train,
    used_group,
)
from interboost.data import DataError, Dataset, RowIndexSet, Task, replace_target, take_rows
from interboost.discovery import ConstraintPartition, WrapperConfig
from interboost.linear import sigmoid
from oracles import (
    assert_paths_respect_partition,
    brute_force_best_split,
    brute_force_stump,
    direct_split_gain,
    reference_children,
    reference_grow,
    reference_leaf_values,
    reference_stages,
    split_gain,
    tree_paths,
)

from conftest import make_classification, make_regression


class TestGradHess:
    def test_regression_zero_residual(self):
        g, h = grad_hess(Task.REGRESSION, np.array([3.0]), np.array([3.0]))
        assert g[0] == 0.0
        assert h[0] == 1.0

    def test_classification_at_raw_zero(self):
        g, h = grad_hess(Task.BINARY_CLASSIFICATION, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(g, [-0.5, 0.5])
        np.testing.assert_allclose(h, [0.25, 0.25])

    def test_classification_hessian_range(self):
        raw = np.linspace(-30, 30, 101)
        _, h = grad_hess(Task.BINARY_CLASSIFICATION, np.zeros(101), raw)
        assert np.all(h > 0.0)
        assert np.all(h <= 0.25)


class TestLeafWeight:
    def test_arithmetic(self):
        assert leaf_weight(2.0, 3.0, 1.0) == -0.5

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 5.0, 1.0) == 0.0

    def test_mean_residual_when_unregularized(self):
        # squared loss: G = sum(pred - y), H = n, so -G/H is the mean residual
        residuals = np.array([1.0, -2.0, 4.0])
        assert leaf_weight(float(-residuals.sum()), 3.0, 0.0) == pytest.approx(
            residuals.mean()
        )

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            leaf_weight(1.0, 0.0, 0.0)


class TestSplitGain:
    def test_zero_gradients_cost_gamma(self):
        assert split_gain(0.0, 1.0, 0.0, 1.0, 0.0, 0.7) == -0.7

    def test_worked_example(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0) == pytest.approx(2.0)

    @given(
        gl=st.floats(-10, 10),
        hl=st.floats(0.1, 10),
        gr=st.floats(-10, 10),
        hr=st.floats(0.1, 10),
        lam=st.floats(0, 5),
        gamma=st.floats(0, 5),
    )
    def test_symmetric_in_children(self, gl, hl, gr, hr, lam, gamma):
        assert split_gain(gl, hl, gr, hr, lam, gamma) == split_gain(
            gr, hr, gl, hl, lam, gamma
        )


def _stump_params(reg_lambda=0.0, **kw):
    defaults = dict(
        n_trees=1,
        max_depth=1,
        learning_rate=1.0,
        reg_lambda=reg_lambda,
        gamma=0.0,
        min_child_samples=1,
        min_child_hessian=0.0,
    )
    defaults.update(kw)
    return TrainParams(**defaults)


def _find(ds, allowed, gh, params):
    """`_find_split` over every row of `ds` with the gradient and hessian
    pair `gh`: (gain, threshold, feature) or None."""
    rows, xs = presort(ds.features)
    allowed = list(allowed)
    return _find_split(xs[allowed], rows[allowed], _packed(*gh), tuple(allowed), params, params.gamma)


class TestBestSplit:
    def test_known_stump(self):
        # base prediction 0.5 on y = [0,0,1,1]: g = [.5,.5,-.5,-.5], h = 1;
        # best boundary 2.5 gives GL=1, HL=2, GR=-1, HR=2 and gain
        # 0.5*(1/2 + 1/2 - 0/4) = 0.5
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        ds = Dataset(X, ("x0",), np.array([0.0, 0.0, 1.0, 1.0]), Task.REGRESSION)
        gh = (np.array([0.5, 0.5, -0.5, -0.5]), np.ones(4))
        gain, threshold, feature = _find(ds, (0,), gh, _stump_params())
        assert feature == 0
        assert threshold == 2.5
        assert gain == pytest.approx(split_gain(1.0, 2.0, -1.0, 2.0, 0.0, 0.0))
        assert gain == pytest.approx(0.5)
        root = _grow(X, *gh, presort(X), _stump_params(), None)[0].nodes[0]
        goes_left = X[:, root["feature"]] < root["threshold"]
        assert np.nonzero(goes_left)[0].tolist() == [0, 1]
        assert np.nonzero(~goes_left)[0].tolist() == [2, 3]
        # exhaustive oracle agrees
        oracle = brute_force_stump(X, *gh, reg_lambda=0.0)
        assert (oracle[0], oracle[1]) == (feature, threshold)

    def test_constant_feature_gives_none(self):
        X = np.full((5, 1), 2.0)
        ds = Dataset(X, ("x0",), np.arange(5.0), Task.REGRESSION)
        gh = grad_hess(Task.REGRESSION, ds.target, np.zeros(5))
        assert _find(ds, (0,), gh, _stump_params()) is None

    def test_excluded_feature_never_chosen(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.linspace(0, 1, 40), rng.normal(size=40)])
        y = (X[:, 0] > 0.5).astype(float) * 4.0
        ds = Dataset(X, ("a", "b"), y, Task.REGRESSION)
        gh = grad_hess(Task.REGRESSION, y, np.zeros(40))
        split = _find(ds, (1,), gh, _stump_params())
        assert split is None or split[2] == 1

    def test_restriction_monotonicity(self):
        # gain over a subset of features can never beat gain over all of them
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            X = rng.normal(size=(n, 4))
            y = rng.normal(size=n)
            ds = Dataset(X, ("a", "b", "c", "d"), y, Task.REGRESSION)
            gh = grad_hess(Task.REGRESSION, y, np.full(n, y.mean()))
            full = _find(ds, range(4), gh, _stump_params())
            sub = _find(ds, (1, 2), gh, _stump_params())
            if sub is not None:
                assert full is not None
                assert sub[0] <= full[0] + 1e-12

    def test_min_child_samples_respected(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        ds = Dataset(X, ("x0",), np.array([0.0, 0.0, 0.0, 10.0]), Task.REGRESSION)
        gh = grad_hess(Task.REGRESSION, ds.target, np.zeros(4))
        split = _find(ds, (0,), gh, _stump_params(min_child_samples=2))
        assert split is not None
        assert split[1] == 2.5  # the 3.5 boundary would leave one row


# Values whose sums are easy to get wrong: signed zeros, subnormals, and
# magnitudes far apart, so that rounding depends on the order of the adds.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e300, -1e300]),
    st.floats(-1e6, 1e6, allow_subnormal=True),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
)


class TestPackedPrefixSums:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=40),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        regression=st.booleans(),
    )
    @example(pairs=[(-0.0, 1.0), (-0.0, 1.0)], k=1, seed=0, regression=True)
    def test_complex_prefix_sum_has_the_bits_of_two_real_ones(self, pairs, k, seed, regression):
        # The split scan prefix-sums g and h as one complex array (`_packed`),
        # gathered in (k, m) blocks of row ids, and reads the parts back as
        # the sums of g and h: each part must have the bits of the separate
        # real `cumsum`, signed zeros included.
        g, h = np.array(pairs).T
        h = np.ones_like(h) if regression else np.abs(h)  # regression's hessians are all 1
        rows = np.argsort(np.random.default_rng(seed).random((k, len(g))), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            both = np.cumsum(_packed(g, h)[rows], axis=1)
            assert both.real.tobytes() == np.cumsum(g[rows], axis=1).tobytes()
            assert both.imag.tobytes() == np.cumsum(h[rows], axis=1).tobytes()


class TestGrowTree:
    def test_singleton_partition_paths_use_one_feature(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        y = X[:, 0] + 3.0 * X[:, 1]
        gh = grad_hess(Task.REGRESSION, y, np.full(200, y.mean()))
        partition = ConstraintPartition(((0,), (1,)))
        tree = _grow(X, *gh, presort(X), _stump_params(max_depth=4), partition)[0]
        for features in tree_paths(tree):
            assert features <= {0} or features <= {1}
        assert used_group(tree, partition) == 1  # x1 dominates the first split

    def test_single_group_equals_unconstrained(self):
        ds = make_regression(150, 3, seed=5, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2])
        gh = grad_hess(Task.REGRESSION, ds.target, np.full(150, float(ds.target.mean())))
        params = _stump_params(max_depth=4, reg_lambda=1.0)
        free = _grow(ds.features, *gh, presort(ds.features), params, None)[0]
        one_group = ConstraintPartition(((0, 1, 2),))
        vacuous = _grow(ds.features, *gh, presort(ds.features), params, one_group)[0]
        assert np.array_equal(free.nodes, vacuous.nodes)
        assert used_group(free, None) is None
        assert used_group(vacuous, one_group) == 0

    def test_depth_one_matches_stump_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(10, 50))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            gh = grad_hess(Task.REGRESSION, y, np.full(n, y.mean()))
            tree = _grow(X, *gh, presort(X), _stump_params(), None)[0]
            oracle = brute_force_stump(X, *gh, reg_lambda=0.0)
            if oracle is None:
                assert len(tree.nodes) == 1
                continue
            root = tree.nodes[0]
            left, right = reference_children(tree)
            assert (root["feature"], root["threshold"]) == (oracle[0], oracle[1])
            assert tree.nodes[left[0]]["weight"] == oracle[2]
            assert tree.nodes[right[0]]["weight"] == oracle[3]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(8, 40),
        n_features=st.integers(2, 4),
        max_depth=st.integers(2, 5),
        min_child_samples=st.integers(1, 3),
        reg_lambda=st.sampled_from([0.0, 1.0]),
        grouped=st.booleans(),
        integer_valued=st.booleans(),
    )
    def test_every_node_of_a_deep_tree_is_greedy(
        self, seed, n_rows, n_features, max_depth, min_child_samples, reg_lambda, grouped, integer_valued
    ):
        # Only gains are compared with the oracle: in small nodes several
        # features often cut the rows into the same two sets, and rounding
        # decides which of those equal gains wins.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, n_features))
        if integer_valued:
            X = np.round(2.0 * X)
        y = X[:, 0] * X[:, 1] + rng.normal(size=n_rows)
        g, h = grad_hess(Task.REGRESSION, y, np.full(n_rows, y.mean()))
        half = n_features // 2
        partition = (
            ConstraintPartition((tuple(range(half)), tuple(range(half, n_features)))) if grouped else None
        )
        params = _stump_params(reg_lambda, max_depth=max_depth, min_child_samples=min_child_samples)
        tree = _grow(X, g, h, presort(X), params, partition)[0]
        left, right = reference_children(tree)
        stack = [(0, np.arange(n_rows), 0, tuple(range(n_features)))]
        while stack:
            node_id, R, depth, allowed = stack.pop()
            node = tree.nodes[node_id]
            best = brute_force_best_split(
                X[np.ix_(R, allowed)], g[R], h[R], reg_lambda, min_child_samples=min_child_samples
            )
            if node["feature"] < 0:
                assert depth == max_depth or best is None or best[0] <= 1e-9 * max(1.0, abs(best[0]))
                assert node["weight"] == -np.sum(g[R]) / (np.sum(h[R]) + reg_lambda)
                continue
            feature, threshold = int(node["feature"]), node["threshold"]
            assert feature in allowed
            gain = direct_split_gain(X[R, feature], g[R], h[R], threshold, reg_lambda)
            assert best is not None
            assert abs(gain - best[0]) <= 1e-9 * max(1.0, abs(best[0]))
            if partition is not None and depth == 0:
                allowed = next(group for group in partition.groups if feature in group)
            goes_left = X[R, feature] < threshold
            stack.append((left[node_id], R[goes_left], depth + 1, allowed))
            stack.append((right[node_id], R[~goes_left], depth + 1, allowed))


    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 40),
        columns=st.lists(
            st.sampled_from(["normal", "integer", "constant", "copy", "adjacent", "huge"]), min_size=1, max_size=5
        ),
        max_depth=st.integers(1, 5),
        min_child_samples=st.integers(1, 3),
        reg_lambda=st.sampled_from([0.0, 1.0]),
        gamma=st.sampled_from([0.0, 0.01, 0.3, 2.0]),
        min_child_hessian=st.sampled_from([0.0, 1e-6, 0.1, 0.5]),
        grouped=st.booleans(),
        classification=st.booleans(),
    )
    def test_presorted_grower_matches_reference(
        self,
        seed,
        n_rows,
        columns,
        max_depth,
        min_child_samples,
        reg_lambda,
        gamma,
        min_child_hessian,
        grouped,
        classification,
    ):
        # "copy" repeats the previous column, so equal gains on different
        # features must go to the lower one; "adjacent" and "huge" put the
        # threshold rule at the edges of float64.
        rng = np.random.default_rng(seed)
        X = np.empty((n_rows, len(columns)))
        for f, kind in enumerate(columns):
            if kind == "copy" and f > 0:
                X[:, f] = X[:, f - 1]
            elif kind == "constant":
                X[:, f] = 2.0
            elif kind == "adjacent":
                X[:, f] = rng.choice([1.0, np.nextafter(1.0, 2.0)], size=n_rows)
            elif kind == "huge":
                X[:, f] = rng.choice([-1.7e308, 1.0e308, 1.7e308], size=n_rows)
            elif kind == "normal":
                X[:, f] = rng.normal(size=n_rows)
            else:
                X[:, f] = rng.integers(-2, 3, size=n_rows)
        if classification:  # hessians that differ from row to row
            y = rng.integers(0, 2, size=n_rows).astype(float)
            g, h = grad_hess(Task.BINARY_CLASSIFICATION, y, rng.normal(size=n_rows))
        else:  # integer targets, so equal gains are common
            y = rng.integers(-2, 3, size=n_rows).astype(float)
            g, h = grad_hess(Task.REGRESSION, y, np.full(n_rows, y.mean()))
        half = len(columns) // 2
        partition = (
            ConstraintPartition((tuple(range(half)), tuple(range(half, len(columns)))))
            if grouped and half > 0
            else None
        )
        params = _stump_params(
            reg_lambda,
            max_depth=max_depth,
            min_child_samples=min_child_samples,
            gamma=gamma,
            min_child_hessian=min_child_hessian,
        )
        expected, expected_values = reference_grow(X, g, h, params, partition)
        # a block this small is one slice; patched, the scan cuts it into
        # slices of 1 or more features, so "copy" columns tie across slices
        for scan_cells in (boosting.SCAN_CELLS, 1, 2, 7, 64):
            with mock.patch.object(boosting, "SCAN_CELLS", scan_cells):
                tree, values = _grow(X, g, h, presort(X), params, partition)
            assert tree.nodes.tobytes() == expected.nodes.tobytes()
            assert values.tobytes() == expected_values.tobytes()
            assert reference_leaf_values(tree, X).tobytes() == values.tobytes()  # each row's path, read back


class TestTrain:
    def test_zero_trees_predicts_base_score(self):
        ds = make_regression(20, 2, seed=0)
        ens = train(ds, None, TrainParams(0, 3, 0.5))
        np.testing.assert_array_equal(predict(ens, ds), np.full(20, ens.base_score))
        assert ens.base_score == float(ds.target.mean())

    def test_classification_base_score_is_logit(self):
        ds = make_classification(40, 2, seed=1)
        ens = train(ds, None, TrainParams(0, 3, 0.5))
        mean = float(ds.target.mean())
        assert ens.base_score == pytest.approx(np.log(mean / (1 - mean)))
        np.testing.assert_allclose(predict(ens, ds), sigmoid(np.full(40, ens.base_score)))

    def test_single_stump_round_equals_oracle(self):
        rng = np.random.default_rng(13)
        n = 30
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        ds = Dataset(X, ("a", "b"), y, Task.REGRESSION)
        ens = train(ds, None, _stump_params())
        base = float(np.mean(y))
        g = np.full(n, base) - y
        oracle = brute_force_stump(X, g, np.ones(n), reg_lambda=0.0)
        expected = np.where(X[:, oracle[0]] < oracle[1], oracle[2], oracle[3]) + base
        np.testing.assert_array_equal(predict(ens, ds), expected)

    def test_training_mse_non_increasing(self):
        ds = make_regression(
            200, 3, seed=21, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.2
        )
        params = TrainParams(50, 3, 0.3, reg_lambda=0.0, gamma=0.0)
        ens = train(ds, None, params)
        raw = np.full(200, ens.base_score)
        last = float(np.mean((ds.target - raw) ** 2))
        for tree in ens.trees:
            raw = raw + params.learning_rate * reference_leaf_values(tree, ds.features)
            mse = float(np.mean((ds.target - raw) ** 2))
            assert mse <= last + 1e-12 * max(1.0, last)
            last = mse

    def test_bit_identical_reruns(self):
        ds = make_classification(120, 4, seed=3, logit_fn=lambda X: X[:, 0] * X[:, 1])
        params = TrainParams(15, 3, 0.2)
        a = ensemble_to_json_obj(train(ds, None, params))
        b = ensemble_to_json_obj(train(ds, None, params))
        assert json.dumps(a) == json.dumps(b)

    def test_features_are_sorted_once_per_train(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        ds = make_regression(60, 3, seed=4, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2])
        ens = train(ds, None, TrainParams(5, 3, 0.3))
        assert sum(len(tree.nodes) for tree in ens.trees) > 5  # the trees did split
        assert len(calls) == 1

    def test_training_leaves_no_reference_cycles(self):
        # a cycle would keep each tree's copy of the training rows alive
        # until the cyclic collector happens to run
        ds = make_regression(200, 3, seed=5, target_fn=lambda X: X[:, 0] * X[:, 1])
        partition = ConstraintPartition(((0, 1), (2,)))
        gc.collect()
        gc.disable()
        try:
            train(ds, None, TrainParams(5, 3, 0.3))
            train(ds, None, TrainParams(5, 3, 0.3), FixedPartition(partition))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_constraint_log_matches_schedule(self):
        ds = make_regression(100, 3, seed=9, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1)
        partition = ConstraintPartition(((0, 1), (2,)))
        fixed = train(ds, None, TrainParams(4, 2, 0.5), FixedPartition(partition))
        assert all(p is not None and p.groups == partition.groups for p in fixed.constraint_log)

        per_resid = train(
            ds,
            None,
            TrainParams(5, 2, 0.5),
            PerResidual(2, WrapperConfig(seed=0), partition),
        )
        logged = [p is not None for p in per_resid.constraint_log]
        assert logged == [True, True, False, False, False]
        assert per_resid.constraint_log[0].groups == partition.groups

    def test_per_residual_trees_respect_their_partitions(self):
        ds = make_regression(300, 4, seed=30, target_fn=lambda X: X[:, 0] * X[:, 1], noise_sd=0.1)
        schedule = PerResidual(
            3,
            WrapperConfig(seed=2, epsilon=5e-3),
            ConstraintPartition(((0, 1), (2,), (3,))),
        )
        ens = train(ds, None, TrainParams(5, 3, 0.3), schedule)
        for tree, partition in zip(ens.trees, ens.constraint_log):
            if partition is not None:
                assert_paths_respect_partition(tree, partition)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        classification=st.booleans(),
        n_features=st.integers(1, 6),
        max_depth=st.integers(1, 4),
        data=st.data(),
    )
    def test_fixed_partition_reads_its_groups_as_sets(self, seed, classification, n_features, max_depth, data):
        """Reordering the groups of a `FixedPartition`, and the features in
        each group, grows the same trees bit for bit; `experiment.benchmark`
        scores equal groups once on this."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, n_features))
        X[:, 1:2] = X[:, :1]  # feature 1 copies feature 0, so equal gains meet the lower-index tie-break
        y = X[:, 0] * X[:, -1] + X[:, -1] + rng.normal(0.0, 0.1, size=80)
        task = Task.BINARY_CLASSIFICATION if classification else Task.REGRESSION
        ds = Dataset(X, tuple(f"x{f}" for f in range(n_features)), (y > 0) * 1.0 if classification else y, task)
        labels = data.draw(st.lists(st.integers(0, n_features - 1), min_size=n_features, max_size=n_features))
        groups = [tuple(f for f in range(n_features) if labels[f] == label) for label in sorted(set(labels))]
        shuffled = [data.draw(st.permutations(group)) for group in data.draw(st.permutations(groups))]
        params = TrainParams(3, max_depth, 0.5)
        ordered = train(ds, None, params, FixedPartition(ConstraintPartition(tuple(groups))))
        reordered = train(ds, None, params, FixedPartition(ConstraintPartition(tuple(map(tuple, shuffled)))))
        assert [t.nodes.tobytes() for t in reordered.trees] == [t.nodes.tobytes() for t in ordered.trees]
        assert predict(reordered, ds).tobytes() == predict(ordered, ds).tobytes()


class TestTrainingRows:
    """`rows` picks the training set of `ds`; None trains on all of it."""

    def _ds(self):
        return make_regression(120, 3, seed=14, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.1)

    def test_index_past_the_end_is_data_error(self):
        ds = self._ds()
        with pytest.raises(DataError, match="out of range"):
            train(ds, RowIndexSet(np.array([0, 5, ds.n_rows])), TrainParams(2, 2, 0.3))

    def test_empty_row_set_is_data_error(self):
        with pytest.raises(DataError):
            train(self._ds(), RowIndexSet(np.array([], dtype=np.int64)), TrainParams(2, 2, 0.3))

    @pytest.mark.parametrize("per_residual", [False, True])
    def test_rows_train_like_the_dataset_of_those_rows(self, per_residual):
        ds = self._ds()
        rows = RowIndexSet(np.arange(1, ds.n_rows, 2))
        schedule = NoConstraints()
        if per_residual:
            schedule = PerResidual(3, WrapperConfig(seed=0, epsilon=5e-3), ConstraintPartition(((0, 1), (2,))))
        params = TrainParams(5, 3, 0.3)
        picked = train(ds, rows, params, schedule)
        alone = train(take_rows(ds, rows.indices), None, params, schedule)
        assert json.dumps(ensemble_to_json_obj(picked)) == json.dumps(ensemble_to_json_obj(alone))


class TestScaleInvariance:
    """With gamma = 0, a regression target scaled by 2^k grows the same
    trees with leaf weights scaled by 2^k, also where the squared gradient
    sums would overflow or underflow unscaled."""

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(-600, 900))
    @example(k=-600)
    @example(k=-520)
    @example(k=-401)
    @example(k=500)
    @example(k=505)
    @example(k=510)
    @example(k=511)
    @example(k=512)
    @example(k=515)
    @example(k=520)
    @example(k=900)
    def test_power_of_two_target(self, k):
        ds = make_regression(120, 3, seed=16, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.1)
        params = TrainParams(6, 3, 0.3, gamma=0.0)
        plain = train(ds, None, params)
        scaled = train(replace_target(ds, np.ldexp(ds.target, k), ds.task), None, params)
        assert scaled.base_score == math.ldexp(plain.base_score, k)
        for a, b in zip(plain.trees, scaled.trees, strict=True):
            for field in ("feature", "threshold"):
                assert a.nodes[field].tobytes() == b.nodes[field].tobytes()
            assert np.ldexp(a.nodes["weight"], k).tobytes() == b.nodes["weight"].tobytes()
        assert sum(len(tree.nodes) for tree in plain.trees) > 6  # the trees did split

    def test_gradient_that_is_not_finite_is_data_error(self):
        ds = Dataset(np.arange(4.0).reshape(4, 1), ("a",), np.full(4, -1e308), Task.REGRESSION)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="gradient"):
            train(ds, None, TrainParams(1, 1, 0.1, base_score=1e308))


class TestPrefix:
    """`ens[:t]` is the model after the first t rounds of `ens`."""

    def _ds(self):
        return make_regression(90, 3, seed=12, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.1)

    def test_stages_are_the_predictions_of_each_prefix(self):
        ds = self._ds()
        ens = train(ds, None, TrainParams(6, 3, 0.2))
        stages = reference_stages(ens, ds.features)
        assert len(stages) == 7
        with pytest.raises(TypeError):
            ens[0]
        for t, raw in enumerate(stages):
            assert raw.tobytes() == predict_raw_matrix(ens[:t], ds.features).tobytes()


def _hand_built_ensemble(trees, n_features, learning_rate=0.5, base_score=0.0):
    """A regression ensemble of the given trees, as a loaded model would be;
    params.max_depth is 1, whatever the depth of the trees."""
    return Ensemble(
        trees=tuple(trees),
        params=TrainParams(len(trees), 1, learning_rate),
        task=Task.REGRESSION,
        base_score=base_score,
        feature_names=tuple(f"x{i}" for i in range(n_features)),
        constraint_log=(None,) * len(trees),
    )


# thresholds, among them adjacent floats and +-1e308; X also holds NaN,
# infinities, and the floats next to the thresholds and past +-1e308
THRESHOLDS = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.5, 1e308, -1e308, 5e-324]
X_VALUES = THRESHOLDS + [np.nan, np.inf, -np.inf, np.nextafter(1e308, np.inf), np.nextafter(-1e308, -np.inf), -0.0, 2.5]
# mixed magnitudes, so a sum in another order gives other floats
LEAF_WEIGHTS = [1e16, -1e16, 1.0, -0.1, 3.0, 1e-300, 0.3]


def _random_tree(rng, n_features, n_internal, chain):
    """A tree of `n_internal` splits, written in preorder like a grown tree:
    a split's left subtree holds a random share of the splits below it (or
    none, so the right children make a chain that deep)."""
    records = []

    def subtree(n_splits):
        if n_splits == 0:
            records.append((-1, 0.0, rng.choice(LEAF_WEIGHTS)))
            return
        records.append((int(rng.integers(n_features)), rng.choice(THRESHOLDS), 0.0))
        n_left = 0 if chain else int(rng.integers(n_splits))
        subtree(n_left)
        subtree(n_splits - 1 - n_left)

    subtree(n_internal)
    return Tree(np.array(records, dtype=NODE))


class TestPredict:
    def test_tree_nodes_are_read_only(self):
        nodes = np.array([(-1, 0.0, 1.0)], dtype=NODE)
        tree = Tree(nodes)
        with pytest.raises(ValueError, match="read-only"):
            tree.nodes["weight"][0] = 2.0
        trained = train(make_regression(30, 2, seed=0), None, TrainParams(2, 2, 0.5)).trees[0]
        with pytest.raises(ValueError, match="read-only"):
            trained.nodes[0] = (-1, 0.0, 2.0)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.integers(0, 6),
        n_features=st.integers(1, 3),
        n_internal=st.integers(0, 12),
        chain=st.booleans(),
        rows=st.sampled_from(["none", "one", "few", "chunk-1", "chunk", "chunk+1"]),
        order=st.sampled_from(["C", "F"]),
        learning_rate=st.sampled_from([1.0, 0.3, 0.1]),
        base_score=st.sampled_from([0.0, 0.7, -1e16]),
    )
    def test_walk_matches_the_one_tree_oracle_bit_for_bit(
        self, seed, n_trees, n_features, n_internal, chain, rows, order, learning_rate, base_score
    ):
        rng = np.random.default_rng(seed)
        trees = [_random_tree(rng, n_features, n_internal, chain) for _ in range(n_trees)]
        ens = _hand_built_ensemble(trees, n_features, learning_rate, base_score)
        chunk = WALK_CELLS // max(1, n_trees)
        n_rows = {"none": 0, "one": 1, "few": 37, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[rows]
        X = np.asarray(rng.choice(X_VALUES, size=(n_rows, n_features)), order=order)
        expected = [stage.tobytes() for stage in reference_stages(ens, X)]
        assert [predict_raw_matrix(ens[:t], X).tobytes() for t in range(n_trees + 1)] == expected
        assert predict_raw_matrix(ens, X).tobytes() == expected[-1]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shapes=st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=6))
    def test_flat_child_ids_match_the_recursive_reader(self, seed, shapes):
        # no trees, single leaves (0 splits), chains and bushy trees, in one table
        rng = np.random.default_rng(seed)
        trees = tuple(_random_tree(rng, 3, n_internal, chain) for n_internal, chain in shapes)
        left, right, roots = [], [], []
        for tree in trees:
            start = len(left)
            roots.append(start)
            for node_id, (l, r) in enumerate(zip(*reference_children(tree))):
                left.append(start + (node_id if l < 0 else l))  # a leaf loops to itself
                right.append(start + (node_id if r < 0 else r))
        flat = FlatTrees.of(trees)
        assert (flat.left.tolist(), flat.right.tolist(), flat.root.tolist()) == (left, right, roots)

    def test_predict_memory_is_bounded_by_the_row_chunk(self):
        # 20 000 rows x 200 trees: a (rows, trees) matrix of node ids or
        # leaf weights alone takes 32 MB; the walk's row chunk needs about 3
        rng = np.random.default_rng(0)
        trees = [_random_tree(rng, 4, 3, False) for _ in range(200)]
        ens = _hand_built_ensemble(trees, 4)
        X = rng.normal(size=(20_000, 4))
        tracemalloc.start()
        try:
            predict_matrix(ens, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes + 8 * 2**20

    def test_boundary_value_routes_right(self):
        # routing is strict "<": x == threshold goes right
        nodes = np.array(
            [(0, 2.0, 0.0), (-1, 0.0, -1.0), (-1, 0.0, +1.0)],
            dtype=NODE,
        )
        tree = Tree(nodes)
        values = reference_leaf_values(tree, np.array([[1.9], [2.0], [2.1]]))
        np.testing.assert_array_equal(values, [-1.0, 1.0, 1.0])

    def test_single_leaf_scaled_by_learning_rate(self):
        ds = Dataset(np.ones((3, 1)), ("a",), np.array([2.0, 2.0, 2.0]), Task.REGRESSION)
        ens = train(ds, None, TrainParams(1, 1, 0.5, base_score=0.0, reg_lambda=0.0))
        # constant feature: no split, single leaf with the mean residual 2.0
        assert len(ens.trees[0].nodes) == 1
        np.testing.assert_allclose(predict(ens, ds), np.full(3, 0.5 * 2.0))

    def test_feature_count_mismatch(self):
        ds = make_regression(20, 2, seed=0)
        ens = train(ds, None, TrainParams(2, 2, 0.5))
        other = make_regression(5, 3, seed=1)
        with pytest.raises(DataError, match="feature count"):
            predict(ens, other)

    def test_predict_raw_recomputes_from_parts(self):
        ds = make_regression(80, 3, seed=2, target_fn=lambda X: X[:, 0] - X[:, 2], noise_sd=0.1)
        params = TrainParams(7, 3, 0.31)
        ens = train(ds, None, params)
        raw = predict_raw_matrix(ens, ds.features)
        manual = np.full(80, ens.base_score)
        for tree in ens.trees:
            manual = manual + params.learning_rate * reference_leaf_values(tree, ds.features)
        np.testing.assert_array_equal(raw, manual)


class TestSerialization:
    def _trained(self):
        ds = make_classification(90, 3, seed=6, logit_fn=lambda X: 2 * X[:, 0] * X[:, 1])
        schedule = FixedPartition(ConstraintPartition(((0, 1), (2,))))
        return ds, train(ds, None, TrainParams(6, 3, 0.4), schedule)

    def test_round_trip_exact(self, tmp_path):
        ds, ens = self._trained()
        path = tmp_path / "model.json"
        save_model(ens, path)
        back = load_model(path)
        np.testing.assert_array_equal(predict(back, ds), predict(ens, ds))
        assert ensemble_to_json_obj(back) == ensemble_to_json_obj(ens)
        save_model(back, tmp_path / "model2.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_constraint_log_survives(self, tmp_path):
        _, ens = self._trained()
        save_model(ens, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.constraint_log[0].groups == ((0, 1), (2,))
        assert used_group(back.trees[0], back.constraint_log[0]) == used_group(ens.trees[0], ens.constraint_log[0]) == 0

    @staticmethod
    def _schedule_model(seed, schedule, classification, max_depth, n_trees):
        if classification:
            ds = make_classification(60, 4, seed, logit_fn=lambda X: 3 * X[:, 0] * X[:, 1] + X[:, 2])
        else:
            ds = make_regression(60, 4, seed, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.1)
        partition = ConstraintPartition(((0, 1), (2,), (3,)))
        schedule = {
            "none": NoConstraints(),
            "fixed": FixedPartition(partition),
            "per_residual": PerResidual(2, WrapperConfig(seed=seed % 7, epsilon=5e-3), partition),
        }[schedule]
        return train(ds, None, TrainParams(n_trees, max_depth, 0.4), schedule)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        schedule=st.sampled_from(["none", "fixed", "per_residual"]),
        classification=st.booleans(),
        max_depth=st.integers(1, 4),
        n_trees=st.integers(0, 4),
    )
    def test_every_trained_model_round_trips_in_preorder(self, seed, schedule, classification, max_depth, n_trees):
        ens = self._schedule_model(seed, schedule, classification, max_depth, n_trees)
        for tree in ens.trees:
            reference_children(tree)  # asserts that the node list is exactly one tree
        for tree in ensemble_to_json_obj(ens)["trees"]:
            assert all(sorted(node) in (["leaf"], ["feature", "threshold"]) for node in tree["nodes"])
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "model.json", Path(tmp) / "again.json"
            save_model(ens, first)
            back = load_model(first)
            save_model(back, second)
            assert first.read_bytes() == second.read_bytes()
            for t in range(n_trees):  # `ens[:t]` is the model a run of t trees trains
                shorter = self._schedule_model(seed, schedule, classification, max_depth, t)
                assert ensemble_to_json_obj(ens[:t]) == ensemble_to_json_obj(shorter)
                save_model(ens[:t], second)
                assert ensemble_to_json_obj(load_model(second)) == ensemble_to_json_obj(ens[:t])
        assert [tree.nodes.tolist() for tree in back.trees] == [tree.nodes.tolist() for tree in ens.trees]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        schedule=st.sampled_from(["none", "fixed", "per_residual"]),
        classification=st.booleans(),
        max_depth=st.integers(1, 4),
        append=st.booleans(),
        data=st.data(),
    )
    def test_a_tree_cut_short_or_run_on_is_refused(self, seed, schedule, classification, max_depth, append, data):
        """Without child ids, a node list is one tree exactly: dropping its
        last node leaves a split waiting (or no root), and a leaf after it
        comes after the tree is complete."""
        obj = ensemble_to_json_obj(self._schedule_model(seed, schedule, classification, max_depth, 3))
        t = data.draw(st.integers(0, len(obj["trees"]) - 1), label="tree")
        nodes = obj["trees"][t]["nodes"]
        if append:
            nodes.append({"leaf": 0.5})
        else:
            nodes.pop()
        with pytest.raises(DataError, match=f"tree {t}: "):
            ensemble_from_json_obj(obj)

    def test_malformed_model_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"task\": \"regression\"}")
        with pytest.raises(DataError, match="malformed"):
            load_model(bad)
        bad.write_text("not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(bad)
        bad.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataError, match="JSON"):
            load_model(bad)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_trees=-1),
            dict(max_depth=0),
            dict(learning_rate=0.0),
            dict(learning_rate=1.5),
            dict(reg_lambda=-0.1),
            dict(gamma=-0.1),
            dict(min_child_samples=0),
            dict(reg_lambda=float("nan")),
            dict(gamma=float("inf")),
            dict(base_score=float("nan")),
        ],
    )
    def test_bad_params(self, kw):
        base = dict(n_trees=5, max_depth=2, learning_rate=0.1)
        base.update(kw)
        with pytest.raises(ValueError):
            TrainParams(**base)

    @pytest.mark.parametrize(
        "kw", [dict(n_trees=2.5), dict(max_depth=True), dict(learning_rate="0.1"), dict(min_child_samples=1.0)]
    )
    def test_bad_param_types(self, kw):
        with pytest.raises(TypeError):
            TrainParams(**{**dict(n_trees=5, max_depth=2, learning_rate=0.1), **kw})

    def test_default_base_score_regression(self):
        assert default_base_score(Task.REGRESSION, np.array([1.0, 3.0])) == 2.0
