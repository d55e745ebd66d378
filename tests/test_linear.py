import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import interboost.linear
from interboost.data import Dataset, DataError, RowIndexSet, Task, kfold, take_rows
from interboost.discovery import WrapperConfig, discover_constraints_traced
from interboost.linear import (
    OLS_RIDGE,
    FoldScorer,
    LinearModel,
    _design_stack,
    accuracy,
    cv_score_terms,
    fit_for_task,
    fit_logistic,
    fit_ols,
    logistic_grad,
    logistic_loglik,
    materialize,
    predict,
    r_squared,
    score_for_task,
    sigmoid,
)
from oracles import central_difference_grad, pinv_least_squares, reference_fit_logistic, reference_sigmoid

from conftest import make_classification, make_regression


def _columns_of(ds, *terms):
    """One column per tuple of feature indices: the product of those
    features' standardized columns."""
    std, _ = materialize(ds, None, tuple(range(ds.n_features)), ())
    return np.column_stack([np.prod(std[:, list(t)], axis=1) for t in terms])


def _without_ones(values):
    """A design's values before its last column, which must be all ones."""
    assert np.array_equal(values[..., -1], np.ones(values.shape[:-1]))
    return values[..., :-1]


def _with_ones(values):
    """Design values (..., n, q) with a last column of ones appended."""
    return np.concatenate([values, np.ones(values.shape[:-1] + (1,))], axis=-1)


class TestExpandPairwise:
    def test_three_features_with_interactions(self):
        ds = make_regression(10, 3, seed=0)
        values, _ = materialize(ds, None, (0, 1, 2), (0, 1, 2))
        expected = _columns_of(ds, (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
        np.testing.assert_array_equal(_without_ones(values), expected)

    def test_single_feature_has_no_products(self):
        ds = make_regression(10, 6, seed=0)
        values, _ = materialize(ds, None, (5,), (5,))
        np.testing.assert_array_equal(_without_ones(values), _columns_of(ds, (5,)))

    def test_without_interactions(self):
        ds = make_regression(10, 2, seed=0)
        values, _ = materialize(ds, None, (0, 1), ())
        np.testing.assert_array_equal(_without_ones(values), _columns_of(ds, (0,), (1,)))

    def test_subset_order_kept_products_lexicographic(self):
        ds = make_regression(10, 3, seed=0)
        values, _ = materialize(ds, None, (2, 0), (2, 0))
        np.testing.assert_array_equal(_without_ones(values), _columns_of(ds, (2,), (0,), (0, 2)))

    def test_duplicate_rejected(self):
        ds = make_regression(10, 2, seed=0)
        with pytest.raises(ValueError):
            FoldScorer(ds, 3, 0).score_many([((1, 1), ())])
        with pytest.raises(ValueError):
            materialize(ds, None, (1, 1), ())

    @given(st.integers(min_value=1, max_value=20))
    def test_term_count(self, size):
        ds = make_regression(3, 20, seed=0)
        subset = tuple(range(size))
        assert materialize(ds, None, subset, subset)[0].shape[1] == size + size * (size - 1) // 2 + 1
        assert materialize(ds, None, subset, ())[0].shape[1] == size + 1


class TestMaterialize:
    def _ds(self, cols):
        X = np.column_stack(cols)
        names = tuple(f"x{i}" for i in range(X.shape[1]))
        return Dataset(X, names, np.zeros(X.shape[0]), Task.REGRESSION)

    def test_standardizes_to_unit_sample_stddev(self):
        ds = self._ds([np.array([1.0, 2.0, 3.0])])
        values, _ = materialize(ds, None, (0,), ())
        np.testing.assert_allclose(values[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_becomes_zeros(self):
        ds = self._ds([np.array([4.0, 4.0, 4.0])])
        values, stats = materialize(ds, None, (0,), ())
        np.testing.assert_array_equal(values[:, 0], [0.0, 0.0, 0.0])
        assert stats[0] == (4.0, 1.0)

    @pytest.mark.parametrize("k", [-1000, -600, -1, 1, 600, 1000])
    def test_stats_scale_exactly_by_powers_of_two(self, k):
        col = np.array([0.3, -1.7, 2.9, 0.05])
        _, stats = materialize(self._ds([col, np.ldexp(col, k)]), None, (0, 1), ())
        assert stats[1] == (np.ldexp(stats[0][0], k), np.ldexp(stats[0][1], k))

    def test_stats_of_the_largest_floats(self):
        _, stats = materialize(self._ds([np.array([1.7e308, 1.6e308])]), None, (0,), ())
        np.testing.assert_allclose(stats[0], (1.65e308, np.std([1.7, 1.6], ddof=1) * 1e308))

    def test_product_of_standardized_bases(self):
        ds = self._ds([np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])])
        values, _ = materialize(ds, None, (0, 1), (0, 1))
        np.testing.assert_allclose(values[:, 2], [-1.0, 0.0, -1.0])

    def test_fitted_stats_reused(self):
        ds = self._ds([np.array([1.0, 2.0, 3.0, 10.0])])
        _, stats = materialize(ds, np.array([0, 1, 2]), (0,), ())
        values, _ = materialize(ds, np.array([3]), (0,), (), stats)
        np.testing.assert_allclose(values[:, 0], [(10.0 - 2.0) / 1.0])

    def test_empty_rows_rejected(self):
        ds = self._ds([np.array([1.0, 2.0])])
        with pytest.raises(ValueError, match="empty"):
            materialize(ds, np.array([], dtype=np.int64), (0,), ())

    def test_out_of_range_feature(self):
        ds = self._ds([np.array([1.0, 2.0])])
        with pytest.raises(ValueError, match="out of range"):
            materialize(ds, None, (3,), ())

    def test_product_without_base_rejected(self):
        ds = self._ds([np.array([1.0, 2.0]), np.array([3.0, 5.0])])
        with pytest.raises(ValueError, match="no base column"):
            materialize(ds, None, (), (0, 1))


class TestFitOls:
    def test_exact_linear_data(self):
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        ds = Dataset(x[:, None], ("x0",), 2.0 * x, Task.REGRESSION)
        values, _ = materialize(ds, None, (0,), (), {0: (0.0, 1.0)})
        model = fit_ols(values[None], ds.target)
        assert abs(model.coefficients[0, 0] - 2.0) < 1e-8
        assert abs(model.intercept[0]) < 1e-8

    def test_constant_target(self):
        ds = make_regression(20, 3, seed=1, target_fn=lambda X: np.full(X.shape[0], 7.5))
        values, _ = materialize(ds, None, (0, 1, 2), (0, 1, 2))
        model = fit_ols(values[None], ds.target)
        assert np.all(np.abs(model.coefficients) < 1e-8)
        assert abs(model.intercept[0] - 7.5) < 1e-8

    def test_duplicated_column_matches_pinv_oracle(self):
        # fitted values must match a minimum-norm SVD solve even though the
        # normal equations alone would be singular
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(4, 11))
            base = rng.normal(size=(n, 2))
            A = np.column_stack([base, base[:, 0]])  # duplicate first column
            y = rng.normal(size=n)
            with_ones = _with_ones(A)
            model = fit_ols(with_ones[None], y)
            engine_fit = A @ model.coefficients[0] + model.intercept[0]
            oracle_fit = with_ones @ pinv_least_squares(with_ones, y)
            np.testing.assert_allclose(engine_fit, oracle_fit, atol=1e-6)

    def test_stationarity(self):
        # normal equations at the solution: X'(y - yhat) = ridge * beta
        for seed in range(10):
            ds = make_regression(40, 3, seed=seed, target_fn=lambda X: X @ [1.0, -2.0, 0.5], noise_sd=0.3)
            values, _ = materialize(ds, None, (0, 1, 2), (0, 1, 2))
            columns = _without_ones(values)
            model = fit_ols(values[None], ds.target)
            fitted = columns @ model.coefficients[0] + model.intercept[0]
            residual = ds.target - fitted
            np.testing.assert_allclose(
                columns.T @ residual, OLS_RIDGE * model.coefficients[0], atol=1e-6
            )
            assert abs(residual.sum()) < 1e-6


# Derived once from the gradient-ascent oracle in _rederive_logistic_oracle
# below (1e5 steps, step 0.01, seed 42 instance); engine agreed to 9e-16.
_LOGISTIC_ORACLE_LL = -6.656753032615056


def _logistic_oracle_instance():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(20, 2))
    z_true = 1.5 * X[:, 0] - 1.0 * X[:, 1] + 0.3
    y = (rng.uniform(size=20) < sigmoid(z_true)).astype(float)
    ds = Dataset(X, ("a", "b"), y, Task.BINARY_CLASSIFICATION)
    values, _ = materialize(ds, None, (0, 1), (0, 1))
    return values, y


def _rederive_logistic_oracle(steps=100_000, step=0.01):
    A, y = _logistic_oracle_instance()
    theta = np.zeros(A.shape[1])
    for _ in range(steps):
        theta += step * logistic_grad(A, y, theta, sigmoid(A @ theta))
    return logistic_loglik(A @ theta, y, theta)


class TestFitLogistic:
    def test_matches_gradient_ascent_oracle(self):
        A, y = _logistic_oracle_instance()
        model = fit_logistic(A[None], y)
        theta = np.append(model.coefficients[0], model.intercept[0])
        engine_ll = logistic_loglik(A @ theta, y, theta)
        assert abs(engine_ll - _LOGISTIC_ORACLE_LL) <= 1e-6

    def test_separable_data_converges(self):
        x = np.concatenate([np.linspace(-2.0, -0.1, 10), np.linspace(0.1, 2.0, 10)])
        y = (x > 0).astype(float)
        ds = Dataset(x[:, None], ("x0",), y, Task.BINARY_CLASSIFICATION)
        values, _ = materialize(ds, None, (0,), ())
        model = fit_logistic(values[None], y)
        assert np.all(np.isfinite(model.coefficients))
        assert accuracy(y, predict(ds.task, model, values[None])[0]) == 1.0

    def test_all_ones_target(self):
        ds = make_classification(25, 2, seed=3)
        y = np.ones(25)
        values, _ = materialize(ds, None, (0, 1), ())
        model = fit_logistic(values[None], y)
        probs = sigmoid(_without_ones(values) @ model.coefficients[0] + model.intercept[0])
        assert np.all(probs > 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        A, y = _logistic_oracle_instance()
        for _ in range(10):
            theta = rng.normal(scale=0.8, size=A.shape[1])
            analytic = logistic_grad(A, y, theta, sigmoid(A @ theta))
            numeric = central_difference_grad(
                lambda t: logistic_loglik(A @ t, y, t), theta
            )
            denom = max(float(np.max(np.abs(analytic))), 1e-12)
            assert float(np.max(np.abs(analytic - numeric))) / denom <= 1e-4

    def test_loglik_ascends_along_the_iterates(self):
        # fit_logistic takes the oracle's iterates, whose path ascends
        for seed in range(5):
            ds = make_classification(40, 3, seed=seed, logit_fn=lambda X: X[:, 0] - X[:, 1])
            values, _ = materialize(ds, None, (0, 1, 2), (0, 1, 2))
            model = fit_logistic(values[None], ds.target)
            theta, path, steps = reference_fit_logistic(values, ds.target)
            assert np.all(np.diff(path) >= 0.0)
            assert np.array_equal(model.coefficients[0], theta[:-1])
            assert model.intercept[0] == theta[-1]
            assert model.fit_info.n_iter == len(steps)

    def test_equals_reference_loop_bit_for_bit(self):
        # fit_logistic reuses each iterate's A @ theta and sigmoid; the
        # reference recomputes them wherever they are used
        rng = np.random.default_rng(5)
        designs = [
            (rng.normal(size=(n, p)), rng.integers(0, 2, size=n).astype(float))
            for n, p in [(12, 1), (30, 2), (40, 3), (25, 5)]
        ]
        x = np.concatenate([np.linspace(-2.0, -0.1, 10), np.linspace(0.1, 2.0, 10)])
        designs.append((x[:, None], (x > 0).astype(float)))  # separable
        designs.append((rng.normal(size=(25, 2)), np.ones(25)))  # all-ones target
        base = rng.normal(size=(30, 2))
        labels = (base[:, 0] + rng.normal(size=30) > 0).astype(float)
        designs.append((np.column_stack([base, base[:, 0]]), labels))  # collinear
        near = np.random.default_rng(150)  # a near-separable fit that halves a step
        X = near.normal(size=(16, 2))
        designs.append((X, (X[:, 0] + 0.3 * near.normal(size=16) > 0).astype(float)))
        halved = False
        for values, y in designs:
            A = _with_ones(values)
            model = fit_logistic(A[None], y)
            theta, _, steps = reference_fit_logistic(A, y)
            assert np.array_equal(model.coefficients[0], theta[:-1])
            assert model.intercept[0] == theta[-1]
            assert model.fit_info.n_iter == len(steps)
            halved = halved or min(steps, default=1.0) < 1.0
        assert halved

    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    @example([(np.inf, True), (-np.inf, False), (0.5, True)])
    @example([(np.inf, False), (-np.inf, True), (-3.0, False)])
    @example([(np.inf, True), (np.inf, False), (-np.inf, True), (-np.inf, False)])
    def test_loglik_equals_the_two_logaddexp_form(self, rows):
        # finite z: y * log(1 + e^-z) + (1 - y) * log(1 + e^z), bit for bit;
        # z = +-inf: the limit, 0 if the sign agrees with the label, else inf
        z = np.array([zi for zi, _ in rows])
        y = np.array([float(label) for _, label in rows])
        with np.errstate(invalid="ignore"):
            two_calls = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
        agrees = np.where(y == 1.0, z > 0, z < 0)
        summands = np.where(np.isinf(z), np.where(agrees, 0.0, np.inf), two_calls)
        theta = np.array([0.25])  # the intercept alone: no penalty
        with np.errstate(over="ignore"):  # summands near the largest float
            assert logistic_loglik(z, y, theta).tobytes() == (-np.sum(summands)).tobytes()

    def test_rejects_non_binary_target(self):
        A, _ = _logistic_oracle_instance()
        with pytest.raises(ValueError):
            fit_logistic(A[None], np.full(20, 0.5))


class TestSigmoid:
    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=False), st.floats(700.0, 750.0), st.floats(-750.0, -700.0)),
            min_size=1,
            max_size=40,
        )
    )
    @example([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
    @example([709.0, 709.78, 709.79, 710.0, -709.78, -709.79, 745.13, 745.14, -745.13, -745.14, -746.0])
    def test_equals_the_masked_reference_bit_for_bit(self, values):
        z = np.array(values)
        assert sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()

    def test_nan_maps_to_nan(self):
        z = np.array([np.nan, -np.nan, 0.0])
        assert np.isnan(sigmoid(z)[:2]).all() and sigmoid(z)[2] == 0.5


def _assert_stack_equals_each_design_alone(task, values, y):
    """The stacked fit, predict and score of `values` (c, n, q), given a
    ones column, equal those of each design alone, in a stack of one, bit
    for bit. Returns the stacked model and, for classification, each
    design's Newton iterations alone."""
    A = _with_ones(values)
    model = fit_for_task(task, A, y)
    prediction = predict(task, model, A)
    scores = score_for_task(task, y, prediction)
    n_iters = []
    for i in range(len(A)):
        design = A[i : i + 1]
        alone = fit_for_task(task, design, y)
        assert np.array_equal(model.coefficients[i], alone.coefficients[0])
        assert model.intercept[i] == alone.intercept[0]
        [alone_prediction] = predict(task, alone, design)
        assert np.array_equal(prediction[i], alone_prediction)
        assert scores[i] == score_for_task(task, y, alone_prediction)
        if task is Task.BINARY_CLASSIFICATION:
            n_iters.append(alone.fit_info.n_iter)
    if task is Task.BINARY_CLASSIFICATION:
        assert model.fit_info.n_iter == sum(n_iters) and type(model.fit_info.n_iter) is int
    return model, n_iters


class TestStackedFits:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        c, n, q = int(rng.integers(1, 9)), int(rng.integers(3, 80)), int(rng.integers(1, 7))
        values = rng.normal(size=(c, n, q))
        _assert_stack_equals_each_design_alone(Task.REGRESSION, values, rng.normal(size=n))
        labels = (values[0, :, 0] + rng.normal(size=n) > 0).astype(float)
        _assert_stack_equals_each_design_alone(Task.BINARY_CLASSIFICATION, values, labels)

    def test_a_singular_stack_is_solved_one_design_at_a_time(self, monkeypatch):
        # a duplicated column of magnitude 1e10 loses the ridge to rounding,
        # so the normal equations and the Hessian of that design are singular
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, 30, 3)) * 1e10
        values[2, :, 2] = values[2, :, 0]
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        _assert_stack_equals_each_design_alone(Task.REGRESSION, values, rng.normal(size=30))
        assert calls
        calls.clear()
        labels = (values[0, :, 1] > 0).astype(float)
        _assert_stack_equals_each_design_alone(Task.BINARY_CLASSIFICATION, values, labels)
        assert calls

    def test_separable_designs_stop_at_different_iterations(self, monkeypatch):
        # on separable labels, a duplicated column of magnitude 1e11 makes
        # Newton stop where no halving improves; with the cap at 13, the
        # unscaled duplicate stops on the cap, and the rest converge
        rng = np.random.default_rng(0)
        base = rng.normal(size=(27, 3))
        labels = (base[:, 0] > 0).astype(float)
        duplicated = np.column_stack([base, base[:, 0]])
        values = np.stack([duplicated * 1e11, duplicated, duplicated * 1e-8, rng.normal(size=(27, 4))])
        monkeypatch.setattr(interboost.linear, "NEWTON_MAX_ITER", 13)
        model, n_iters = _assert_stack_equals_each_design_alone(Task.BINARY_CLASSIFICATION, values, labels)
        assert n_iters[0] < 13 and n_iters[1] == 13 and len(set(n_iters)) > 2
        A = _with_ones(values[0])
        theta = np.append(model.coefficients[0], model.intercept[0])
        gradient = logistic_grad(A, labels, theta, sigmoid(A @ theta))
        assert np.max(np.abs(gradient)) > 1e-8 * (1 + 27 / 2)  # stopped without converging

    def test_a_design_on_the_iteration_cap(self):
        # features of magnitude 1e-8 and labels they barely predict take all
        # NEWTON_MAX_ITER iterations; the same labels on other designs do not
        rng = np.random.default_rng(276)
        n, q = int(rng.integers(3, 30)), int(rng.integers(1, 4))
        tiny = rng.normal(size=(n, q)) * 10.0 ** rng.integers(-8, 12)
        labels = (tiny[:, 0] + rng.normal(size=n) > 0).astype(float)
        unit = tiny / tiny.std()
        _, n_iters = _assert_stack_equals_each_design_alone(
            Task.BINARY_CLASSIFICATION, np.stack([tiny, unit, unit * 1e-8]), labels
        )
        assert n_iters[0] == interboost.linear.NEWTON_MAX_ITER > max(n_iters[1:])


class TestDesignStack:
    @pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
    @pytest.mark.parametrize(
        "designs",
        [
            [((0,), ()), ((3,), ()), ((4,), ())],
            [((2, 0), (0, 2)), ((4, 1), (1, 4)), ((1, 3), (1, 3))],
            [((1, 3, 0), (0, 1, 3)), ((0, 1, 2), (0, 1, 2))],
            [((0, 1, 2, 3), (0, 2, 3)), ((4, 0, 1, 2), (0, 1, 4))],
        ],
        ids=["seeds", "pairs", "triples", "scope-subsets"],
    )
    def test_each_design_equals_materialize_bit_for_bit(self, task, designs):
        # the scorer's stack and the per-design reference build the same
        # values, ones last, on a fold's rows with its training statistics
        ds = _scoring_table("constant", task)
        scorer = FoldScorer(ds, 3, 6)
        features = np.array([f for f, _ in designs], dtype=np.intp)
        pairs = np.array(
            [list(itertools.combinations(scope, 2)) for _, scope in designs], dtype=np.intp
        ).reshape(len(designs), -1, 2)
        for (tr, va), (train_std, val_std, _, _) in zip(kfold(ds.n_rows, 3, 6), scorer._folds):
            train_stack = _design_stack(train_std, features, pairs)
            val_stack = _design_stack(val_std, features, pairs)
            for i, design in enumerate(designs):
                values, stats = materialize(ds, tr.indices, *design)
                assert train_stack[i].tobytes() == values.tobytes()
                assert val_stack[i].tobytes() == materialize(ds, va.indices, *design, stats)[0].tobytes()
                assert np.all(values[:, -1] == 1.0) and values.shape == train_stack[i].shape


class TestPredict:
    def test_zero_model_logistic_gives_half(self):
        ds = make_classification(10, 2, seed=0)
        values, _ = materialize(ds, None, (0,), ())
        model = LinearModel(np.zeros((1, 1)), np.zeros(1))
        np.testing.assert_array_equal(predict(ds.task, model, values[None]), np.full((1, 10), 0.5))

    def test_zero_coefficients_ols_gives_intercept(self):
        ds = make_regression(10, 2, seed=0)
        values, _ = materialize(ds, None, (0,), ())
        model = fit_ols(values[None], np.full(10, 3.25))
        np.testing.assert_allclose(predict(ds.task, model, values[None]), np.full((1, 10), 3.25), atol=1e-8)

    def test_linear_extrapolation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        train = Dataset(x[:, None], ("x0",), 2.0 * x, Task.REGRESSION)
        values, stats = materialize(train, None, (0,), ())
        model = fit_ols(values[None], train.target)
        probe = Dataset(np.array([[5.0]]), ("x0",), np.array([0.0]), Task.REGRESSION)
        probe_values, _ = materialize(probe, None, (0,), (), stats)
        np.testing.assert_allclose(predict(probe.task, model, probe_values[None]), [[10.0]], atol=1e-7)


class TestScores:
    def test_metric_choice_follows_task(self):
        y, prob = np.array([0.0, 1.0, 1.0]), np.array([0.2, 0.9, 0.4])
        assert score_for_task(Task.REGRESSION, y, prob) == r_squared(y, prob)
        assert score_for_task(Task.BINARY_CLASSIFICATION, y, prob) == accuracy(y, prob)
        assert r_squared(y, prob) != accuracy(y, prob)

    def test_perfect_predictor(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y.copy()) == 1.0
        yc = np.array([0.0, 1.0, 1.0])
        assert accuracy(yc, np.array([0.1, 0.9, 0.8])) == 1.0

    def test_train_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 4.0])
        assert r_squared(y, np.full(3, y.mean())) == 0.0

    @given(
        # magnitudes whose 2^k multiples stay normal floats
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100)),
            min_size=2,
            max_size=30,
        ).filter(any),
        st.integers(-600, 900),
        st.integers(0, 2**32 - 1),
    )
    @example([0.3, -1.7, 2.9, 0.05], 510, 0)
    @example([0.3, -1.7, 2.9, 0.05], -600, 0)
    def test_r_squared_of_a_power_of_two_scale_is_unchanged(self, y, k, seed):
        y = np.array(y)
        prediction = y + np.random.default_rng(seed).normal(size=y.size)
        expected = r_squared(y, prediction)
        assert r_squared(np.ldexp(y, k), np.ldexp(prediction, k)) == expected
        stack = np.stack([prediction, y])
        assert r_squared(np.ldexp(y, k), np.ldexp(stack, k)).tolist() == r_squared(y, stack).tolist()

    def test_accuracy_tie_goes_to_class_one(self):
        assert accuracy(np.array([1.0]), np.array([0.5])) == 1.0
        assert accuracy(np.array([0.0]), np.array([0.5])) == 0.0


class TestCvScore:
    def test_noiseless_linear_target(self):
        ds = make_regression(60, 2, seed=4, target_fn=lambda X: X[:, 0])
        assert cv_score_terms(ds, None, ((0,), ()), k=3, seed=0) > 0.999

    def test_pure_noise_scores_low(self):
        # Monte-Carlo: independent target should never look predictive
        for seed in range(10):
            ds = make_regression(500, 2, seed=100 + seed)
            assert cv_score_terms(ds, None, ((0,), ()), k=3, seed=seed) <= 0.1

    def test_interaction_gap_on_product_target(self):
        # independent check: direct holdout fits with and without the
        # product column, then the cv_score_terms gap must agree in direction
        rng = np.random.default_rng(9)
        X = rng.normal(size=(1000, 2))
        y = X[:, 0] * X[:, 1]
        ds = Dataset(X, ("a", "b"), y, Task.REGRESSION)

        half = 500
        train_idx, val_idx = np.arange(half), np.arange(half, 1000)
        gaps = []
        for with_products in (False, True):
            design = ((0, 1), (0, 1) if with_products else ())
            values, stats = materialize(ds, train_idx, *design)
            model = fit_ols(values[None], y[train_idx])
            [pred] = predict(ds.task, model, materialize(ds, val_idx, *design, stats)[0][None])
            gaps.append(r_squared(y[val_idx], pred))
        oracle_gap = gaps[1] - gaps[0]
        assert oracle_gap > 0.3

        product_score = cv_score_terms(ds, None, ((0, 1), (0, 1)), 3, 0)
        cv_gap = product_score - cv_score_terms(ds, None, ((0, 1), ()), 3, 0)
        assert cv_gap > 0.3

    def test_deterministic_in_seed(self):
        ds = make_regression(90, 3, seed=2, target_fn=lambda X: X[:, 0] + X[:, 1] ** 2)
        design = ((0, 1), (0, 1))
        a = cv_score_terms(ds, None, design, 3, 5)
        assert a == cv_score_terms(ds, None, design, 3, 5)
        assert a != cv_score_terms(ds, None, design, 3, 6)

    def test_empty_subset_rejected(self):
        ds = make_regression(10, 2, seed=0)
        with pytest.raises(ValueError):
            cv_score_terms(ds, None, ((), ()), 3, 0)


def reference_cv_score(ds, rows, design, k, seed):
    """Per-call k-fold loop: a fresh fold plan, and every fold's train and
    validation designs materialized from scratch."""
    rows = np.arange(ds.n_rows) if rows is None else rows.indices
    scores = []
    for fold_train, fold_val in kfold(len(rows), k, seed):
        train_rows, val_rows = rows[fold_train.indices], rows[fold_val.indices]
        values, stats = materialize(ds, train_rows, *design)
        model = fit_for_task(ds.task, values[None], ds.target[train_rows])
        [prediction] = predict(ds.task, model, materialize(ds, val_rows, *design, stats)[0][None])
        scores.append(score_for_task(ds.task, ds.target[val_rows], prediction))
    return float(np.mean(scores))


def _with_constant_column(ds):
    X = np.column_stack([ds.features, np.full(ds.n_rows, 2.5)])
    names = ds.feature_names + ("const",)
    return Dataset(X, names, ds.target, ds.task)


DESIGNS = (
    ((0,), ()),
    ((2, 0), (2, 0)),
    ((1, 3, 0), (3, 0, 1)),  # features and scope out of index order
    ((4, 1), (4, 1)),  # feature 4 is constant: sd clamps to 1
    ((0, 1, 2, 3), (0, 2, 3)),  # scope a strict subset of the features
    ((3,), ()),
)


class TestFoldScorer:
    @pytest.mark.parametrize(
        "ds",
        [
            _with_constant_column(
                make_regression(
                    90, 4, seed=3, target_fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2], noise_sd=0.2
                )
            ),
            _with_constant_column(
                make_classification(90, 4, seed=5, logit_fn=lambda X: 2 * X[:, 0] * X[:, 2])
            ),
        ],
        ids=["regression", "classification"],
    )
    @pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "row-subset"])
    def test_equals_reference_loop(self, ds, subset):
        rows = RowIndexSet(np.arange(1, ds.n_rows, 2)) if subset else None
        scorer = FoldScorer(ds if rows is None else take_rows(ds, rows.indices), 3, 11)
        # one scorer across designs in both orders, and each design twice:
        # columns cached for one design must not leak into another's score
        for design in DESIGNS + DESIGNS[::-1]:
            expected = reference_cv_score(ds, rows, design, 3, 11)
            assert scorer.score_many([design]) == [expected]
            assert cv_score_terms(ds, rows, design, 3, 11) == expected

    def test_rejects_bad_term_lists(self):
        scorer = FoldScorer(make_regression(30, 2, seed=0), 3, 0)
        with pytest.raises(ValueError, match="nonempty"):
            scorer.score_many([((), ())])
        with pytest.raises(ValueError, match="out of range"):
            scorer.score_many([((2,), ())])
        with pytest.raises(ValueError, match="no base column"):
            scorer.score_many([((0,), (0, 1))])
        with pytest.raises(ValueError, match="duplicate"):
            scorer.score_many([((0, 0), ())])
        with pytest.raises(ValueError, match="duplicate"):
            scorer.score_many([((0, 1), (1, 1))])

    @pytest.mark.parametrize(
        "ds",
        [
            make_regression(
                150, 6, seed=21, target_fn=lambda X: X[:, 0] * X[:, 3] + X[:, 1], noise_sd=0.1
            ),
            make_classification(150, 6, seed=22, logit_fn=lambda X: 3 * X[:, 2] * X[:, 4]),
        ],
        ids=["regression", "classification"],
    )
    def test_discovery_candidate_scores_equal_reference(self, ds):
        cfg = WrapperConfig(k_folds=3, seed=4)
        _, steps = discover_constraints_traced(ds, cfg)

        def ref(features, scope):
            return reference_cv_score(ds, None, (features, scope), cfg.k_folds, cfg.seed)

        group: list[int] = []
        checked = 0
        for step in steps:
            for c in step.candidates:
                if step.action == "seed":
                    assert c.plain == ref([c.feature], [])
                else:
                    assert c.plain == ref(group + [c.feature], group)
                    assert c.interaction == ref(group + [c.feature], group + [c.feature])
                checked += 1
            group = [] if step.action == "close" else list(step.subset)
        assert checked > 6


def _scoring_table(kind, task):
    """Five features, target x0*x1 + x2 (plus noise, except on the separable
    table); classification labels its sign. `duplicated`: x4 copies x0;
    `constant`: x4 is 2.5; `scaled`: x3 is multiplied by 2^600; `huge`: the
    target is scaled to a largest magnitude of 1.7e308, so its sums overflow
    (a power-of-two scale alone leaves R-squared as it is)."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 5))
    signal = X[:, 0] * X[:, 1] + X[:, 2]
    y = signal + (0.0 if kind == "separable" else 0.3 * rng.normal(size=120))
    if kind == "duplicated":
        X[:, 4] = X[:, 0]
    elif kind == "constant":
        X[:, 4] = 2.5
    elif kind == "scaled":
        X[:, 3] = np.ldexp(X[:, 3], 600)
    elif kind == "huge":
        y = y / np.max(np.abs(y)) * 1.7e308
    if task is Task.BINARY_CLASSIFICATION:
        y = (y > 0.0).astype(np.float64)
    return Dataset(X, tuple(f"x{i}" for i in range(5)), y, task)


# every design shape a discovery of five features scores, in its order
SCORED_DESIGNS = (
    [([f], []) for f in range(5)]
    + [([a, b], scope) for a in range(5) for b in range(5) if a != b for scope in ([a], [a, b])]
    + [([a, b, c], scope) for a, b, c in [(0, 1, 2), (2, 4, 0), (3, 1, 4)] for scope in ([a, b], [a, b, c])]
    + [([4, 0, 1, 2], [4, 0, 1]), ([4, 0, 1, 2], [4, 0, 1, 2]), ([0], []), ([1, 0], [1])]
)


class TestScoreMany:
    @pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
    @pytest.mark.parametrize("kind", ["duplicated", "constant", "separable", "scaled"])
    def test_equals_the_reference_loop_bit_for_bit(self, kind, task):
        ds = _scoring_table(kind, task)
        expected = [reference_cv_score(ds, None, design, 3, 6) for design in SCORED_DESIGNS]
        assert FoldScorer(ds, 3, 6).score_many(SCORED_DESIGNS) == expected

    def test_a_target_too_large_raises_the_per_design_loops_error(self):
        ds = _scoring_table("huge", Task.REGRESSION)
        with np.errstate(over="ignore", invalid="ignore"):
            means = [reference_cv_score(ds, None, design, 3, 6) for design in SCORED_DESIGNS]
        first = next(mean for mean in means if not np.isfinite(mean))
        with pytest.raises(DataError) as raised:
            FoldScorer(ds, 3, 6).score_many(SCORED_DESIGNS)
        assert str(raised.value) == (
            f"validation score {first} is not finite: a feature or the target is too large"
        )

    @pytest.mark.parametrize(
        "ds",
        [
            make_regression(150, 7, seed=21, target_fn=lambda X: X[:, 0] * X[:, 3] + X[:, 1], noise_sd=0.1),
            make_classification(150, 6, seed=22, logit_fn=lambda X: 3 * X[:, 2] * X[:, 4]),
        ],
        ids=["regression", "classification"],
    )
    @pytest.mark.parametrize("cells", [1, 1000], ids=["one-design-stacks", "small-stacks"])
    def test_discovery_does_not_depend_on_the_stack_cap(self, monkeypatch, ds, cells):
        cfg = WrapperConfig(k_folds=3, seed=4)
        partition, steps = discover_constraints_traced(ds, cfg)
        monkeypatch.setattr(interboost.linear, "STACK_CELLS", cells)
        capped_partition, capped_steps = discover_constraints_traced(ds, cfg)
        assert capped_partition.groups == partition.groups
        assert capped_steps == steps


if __name__ == "__main__":
    # regenerate the frozen gradient-ascent constant
    print("logistic oracle LL:", repr(_rederive_logistic_oracle()))
