import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interboost.boosting import (
    FixedPartition,
    NODE,
    PerResidual,
    TrainParams,
    Tree,
    _find_split,
    _grow,
    default_base_score,
    presort,
    ensemble_to_json_obj,
    grad_hess,
    leaf_weight,
    load_model,
    predict,
    predict_raw_matrix,
    save_model,
    split_gain,
    train,
)
from interboost.data import DataError, Dataset, Task
from interboost.discovery import ConstraintPartition, WrapperConfig
from interboost.linear import sigmoid
from oracles import (
    assert_paths_respect_partition,
    brute_force_best_split,
    brute_force_stump,
    direct_split_gain,
    reference_grow,
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
    return _find_split(xs[allowed], rows[allowed], *gh, tuple(allowed), params)


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
        assert tree.used_group == 1  # x1 dominates the first split

    def test_single_group_equals_unconstrained(self):
        ds = make_regression(150, 3, seed=5, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2])
        gh = grad_hess(Task.REGRESSION, ds.target, np.full(150, float(ds.target.mean())))
        params = _stump_params(max_depth=4, reg_lambda=1.0)
        free = _grow(ds.features, *gh, presort(ds.features), params, None)[0]
        vacuous = _grow(ds.features, *gh, presort(ds.features), params, ConstraintPartition(((0, 1, 2),)))[0]
        assert np.array_equal(free.nodes, vacuous.nodes)  # bookkeeping (used_group) may differ
        assert free.used_group is None
        assert vacuous.used_group == 0

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
            root = tree.nodes[tree.root]
            assert (root["feature"], root["threshold"]) == (oracle[0], oracle[1])
            assert tree.nodes[root["left"]]["weight"] == oracle[2]
            assert tree.nodes[root["right"]]["weight"] == oracle[3]

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
        stack = [(tree.root, np.arange(n_rows), 0, tuple(range(n_features)))]
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
            stack.append((node["left"], R[goes_left], depth + 1, allowed))
            stack.append((node["right"], R[~goes_left], depth + 1, allowed))


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
        grouped=st.booleans(),
        classification=st.booleans(),
    )
    def test_presorted_grower_matches_reference(
        self, seed, n_rows, columns, max_depth, min_child_samples, reg_lambda, grouped, classification
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
        params = _stump_params(reg_lambda, max_depth=max_depth, min_child_samples=min_child_samples)
        tree, values = _grow(X, g, h, presort(X), params, partition)
        expected, expected_values = reference_grow(X, g, h, params, partition)
        assert tree.nodes.tobytes() == expected.nodes.tobytes()
        assert tree.used_group == expected.used_group
        assert values.tobytes() == expected_values.tobytes()


class TestTrain:
    def test_zero_trees_predicts_base_score(self):
        ds = make_regression(20, 2, seed=0)
        ens = train(ds, None, TrainParams(0, 3, 0.5))
        np.testing.assert_array_equal(predict(ens, ds, None), np.full(20, ens.base_score))
        assert ens.base_score == float(ds.target.mean())

    def test_classification_base_score_is_logit(self):
        ds = make_classification(40, 2, seed=1)
        ens = train(ds, None, TrainParams(0, 3, 0.5))
        mean = float(ds.target.mean())
        assert ens.base_score == pytest.approx(np.log(mean / (1 - mean)))
        np.testing.assert_allclose(predict(ens, ds, None), sigmoid(np.full(40, ens.base_score)))

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
        np.testing.assert_array_equal(predict(ens, ds, None), expected)

    def test_training_mse_non_increasing(self):
        ds = make_regression(
            200, 3, seed=21, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.2
        )
        params = TrainParams(50, 3, 0.3, reg_lambda=0.0, gamma=0.0)
        ens = train(ds, None, params)
        raw = np.full(200, ens.base_score)
        last = float(np.mean((ds.target - raw) ** 2))
        for tree in ens.trees:
            raw = raw + params.learning_rate * tree.leaf_values(ds.features)
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


class TestPredict:
    def test_boundary_value_routes_right(self):
        # routing is strict "<": x == threshold goes right
        nodes = np.array(
            [(0, 2.0, 1, 2, 0.0), (-1, 0.0, -1, -1, -1.0), (-1, 0.0, -1, -1, +1.0)],
            dtype=NODE,
        )
        tree = Tree(nodes)
        values = tree.leaf_values(np.array([[1.9], [2.0], [2.1]]))
        np.testing.assert_array_equal(values, [-1.0, 1.0, 1.0])

    def test_single_leaf_scaled_by_learning_rate(self):
        ds = Dataset(np.ones((3, 1)), ("a",), np.array([2.0, 2.0, 2.0]), Task.REGRESSION)
        ens = train(ds, None, TrainParams(1, 1, 0.5, base_score=0.0, reg_lambda=0.0))
        # constant feature: no split, single leaf with the mean residual 2.0
        assert len(ens.trees[0].nodes) == 1
        np.testing.assert_allclose(predict(ens, ds, None), np.full(3, 0.5 * 2.0))

    def test_feature_count_mismatch(self):
        ds = make_regression(20, 2, seed=0)
        ens = train(ds, None, TrainParams(2, 2, 0.5))
        other = make_regression(5, 3, seed=1)
        with pytest.raises(DataError, match="feature count"):
            predict(ens, other, None)

    def test_predict_raw_recomputes_from_parts(self):
        ds = make_regression(80, 3, seed=2, target_fn=lambda X: X[:, 0] - X[:, 2], noise_sd=0.1)
        params = TrainParams(7, 3, 0.31)
        ens = train(ds, None, params)
        raw = predict_raw_matrix(ens, ds.features)
        manual = np.full(80, ens.base_score)
        for tree in ens.trees:
            manual = manual + params.learning_rate * tree.leaf_values(ds.features)
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
        np.testing.assert_array_equal(predict(back, ds, None), predict(ens, ds, None))
        assert ensemble_to_json_obj(back) == ensemble_to_json_obj(ens)
        save_model(back, tmp_path / "model2.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_constraint_log_survives(self, tmp_path):
        _, ens = self._trained()
        save_model(ens, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.constraint_log[0].groups == ((0, 1), (2,))
        assert back.trees[0].used_group == ens.trees[0].used_group

    @pytest.mark.parametrize("used_group", [2, -1, "0", True, 0.0])
    def test_used_group_must_index_its_partition(self, tmp_path, used_group):
        _, ens = self._trained()
        model = ensemble_to_json_obj(ens)
        model["trees"][0]["used_group"] = used_group
        (tmp_path / "m.json").write_text(json.dumps(model))
        with pytest.raises(DataError, match="tree 0: .*used_group"):
            load_model(tmp_path / "m.json")

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
        "kw", [dict(n_trees=2.5), dict(max_depth=True), dict(learning_rate="0.1"), dict(seed="7")]
    )
    def test_bad_param_types(self, kw):
        with pytest.raises(TypeError):
            TrainParams(**{**dict(n_trees=5, max_depth=2, learning_rate=0.1), **kw})

    def test_default_base_score_regression(self):
        assert default_base_score(Task.REGRESSION, np.array([1.0, 3.0])) == 2.0
