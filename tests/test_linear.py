import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from interboost.data import Dataset, RowIndexSet, Task, kfold
from interboost.discovery import WrapperConfig, discover_constraints_traced
from interboost.linear import (
    Base,
    DesignMatrix,
    FoldScorer,
    Product,
    _with_intercept,
    accuracy,
    cv_score,
    cv_score_terms,
    expand_pairwise,
    fit_for_task,
    fit_logistic,
    fit_ols,
    fit_standardization,
    logistic_grad,
    logistic_loglik,
    materialize,
    predict,
    r_squared,
    score_for_task,
    sigmoid,
)
from oracles import central_difference_grad, pinv_least_squares

from conftest import make_classification, make_regression


class TestExpandPairwise:
    def test_three_features_with_interactions(self):
        terms = expand_pairwise((0, 1, 2), True)
        assert terms == (
            Base(0),
            Base(1),
            Base(2),
            Product(0, 1),
            Product(0, 2),
            Product(1, 2),
        )

    def test_single_feature_has_no_products(self):
        assert expand_pairwise((5,), True) == (Base(5),)

    def test_without_interactions(self):
        assert expand_pairwise((0, 1), False) == (Base(0), Base(1))

    def test_subset_order_kept_products_lexicographic(self):
        terms = expand_pairwise((2, 0), True)
        assert terms == (Base(2), Base(0), Product(0, 2))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            expand_pairwise((1, 1), True)

    @given(st.integers(min_value=1, max_value=20))
    def test_term_count(self, size):
        subset = tuple(range(size))
        assert len(expand_pairwise(subset, True)) == size + size * (size - 1) // 2
        assert len(expand_pairwise(subset, False)) == size


class TestMaterialize:
    def _ds(self, cols):
        X = np.column_stack(cols)
        names = tuple(f"x{i}" for i in range(X.shape[1]))
        return Dataset(X, names, np.zeros(X.shape[0]), Task.REGRESSION)

    def test_standardizes_to_unit_sample_stddev(self):
        ds = self._ds([np.array([1.0, 2.0, 3.0])])
        design = materialize(ds, None, (Base(0),))
        np.testing.assert_allclose(design.values[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_becomes_zeros(self):
        ds = self._ds([np.array([4.0, 4.0, 4.0])])
        design = materialize(ds, None, (Base(0),))
        np.testing.assert_array_equal(design.values[:, 0], [0.0, 0.0, 0.0])
        assert design.standardization[0] == (4.0, 1.0)

    def test_product_of_standardized_bases(self):
        ds = self._ds([np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])])
        design = materialize(ds, None, expand_pairwise((0, 1), True))
        np.testing.assert_allclose(design.values[:, 2], [-1.0, 0.0, -1.0])

    def test_fitted_stats_reused(self):
        ds = self._ds([np.array([1.0, 2.0, 3.0, 10.0])])
        stats = fit_standardization(ds, RowIndexSet(np.array([0, 1, 2])), (Base(0),))
        design = materialize(ds, RowIndexSet(np.array([3])), (Base(0),), stats)
        np.testing.assert_allclose(design.values[:, 0], [(10.0 - 2.0) / 1.0])

    def test_empty_rows_rejected(self):
        ds = self._ds([np.array([1.0, 2.0])])
        with pytest.raises(ValueError, match="empty"):
            materialize(ds, RowIndexSet(np.array([], dtype=np.int64)), (Base(0),))

    def test_out_of_range_feature(self):
        ds = self._ds([np.array([1.0, 2.0])])
        with pytest.raises(ValueError, match="out of range"):
            materialize(ds, None, (Base(3),))

    def test_product_without_base_rejected(self):
        with pytest.raises(ValueError, match="no base column"):
            DesignMatrix(np.ones((2, 1)), (Product(0, 1),), {})


class TestFitOls:
    def test_exact_linear_data(self):
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        ds = Dataset(x[:, None], ("x0",), 2.0 * x, Task.REGRESSION)
        design = materialize(ds, None, (Base(0),), {0: (0.0, 1.0)})
        model = fit_ols(design, ds.target)
        assert abs(model.coefficients[0] - 2.0) < 1e-8
        assert abs(model.intercept) < 1e-8

    def test_constant_target(self):
        ds = make_regression(20, 3, seed=1, target_fn=lambda X: np.full(X.shape[0], 7.5))
        design = materialize(ds, None, expand_pairwise((0, 1, 2), True))
        model = fit_ols(design, ds.target)
        assert np.all(np.abs(model.coefficients) < 1e-8)
        assert abs(model.intercept - 7.5) < 1e-8

    def test_duplicated_column_matches_pinv_oracle(self):
        # fitted values must match a minimum-norm SVD solve even though the
        # normal equations alone would be singular
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(4, 11))
            base = rng.normal(size=(n, 2))
            A = np.column_stack([base, base[:, 0]])  # duplicate first column
            y = rng.normal(size=n)
            design = DesignMatrix(A, (Base(0), Base(1), Base(2)), {})
            model = fit_ols(design, y, ridge=1e-8)
            engine_fit = A @ model.coefficients + model.intercept
            with_ones = np.column_stack([A, np.ones(n)])
            oracle_fit = with_ones @ pinv_least_squares(with_ones, y)
            np.testing.assert_allclose(engine_fit, oracle_fit, atol=1e-6)

    def test_stationarity(self):
        # normal equations at the solution: X'(y - yhat) = ridge * beta
        for seed in range(10):
            ds = make_regression(40, 3, seed=seed, target_fn=lambda X: X @ [1.0, -2.0, 0.5], noise_sd=0.3)
            design = materialize(ds, None, expand_pairwise((0, 1, 2), True))
            ridge = 1e-8
            model = fit_ols(design, ds.target, ridge=ridge)
            fitted = design.values @ model.coefficients + model.intercept
            residual = ds.target - fitted
            np.testing.assert_allclose(
                design.values.T @ residual, ridge * model.coefficients, atol=1e-6
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
    design = materialize(ds, None, expand_pairwise((0, 1), True))
    return design, y


def _rederive_logistic_oracle(steps=100_000, step=0.01):
    design, y = _logistic_oracle_instance()
    A = _with_intercept(design)
    theta = np.zeros(A.shape[1])
    for _ in range(steps):
        theta += step * logistic_grad(A, y, theta, 1e-6)
    return logistic_loglik(A, y, theta, 1e-6)


class TestFitLogistic:
    def test_matches_gradient_ascent_oracle(self):
        design, y = _logistic_oracle_instance()
        model = fit_logistic(design, y, ridge=1e-6)
        theta = np.append(model.coefficients, model.intercept)
        engine_ll = logistic_loglik(_with_intercept(design), y, theta, 1e-6)
        assert abs(engine_ll - _LOGISTIC_ORACLE_LL) <= 1e-6

    def test_separable_data_converges(self):
        x = np.concatenate([np.linspace(-2.0, -0.1, 10), np.linspace(0.1, 2.0, 10)])
        y = (x > 0).astype(float)
        ds = Dataset(x[:, None], ("x0",), y, Task.BINARY_CLASSIFICATION)
        design = materialize(ds, None, (Base(0),))
        model = fit_logistic(design, y, ridge=1e-6)
        assert np.all(np.isfinite(model.coefficients))
        assert accuracy(y, predict(model, ds, None)) == 1.0

    def test_all_ones_target(self):
        ds = make_classification(25, 2, seed=3)
        y = np.ones(25)
        design = materialize(ds, None, expand_pairwise((0, 1), False))
        model = fit_logistic(design, y)
        probs = sigmoid(design.values @ model.coefficients + model.intercept)
        assert np.all(probs > 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        design, y = _logistic_oracle_instance()
        A = _with_intercept(design)
        for _ in range(10):
            theta = rng.normal(scale=0.8, size=A.shape[1])
            analytic = logistic_grad(A, y, theta, 1e-6)
            numeric = central_difference_grad(
                lambda t: logistic_loglik(A, y, t, 1e-6), theta
            )
            denom = max(float(np.max(np.abs(analytic))), 1e-12)
            assert float(np.max(np.abs(analytic - numeric))) / denom <= 1e-4

    def test_loglik_path_monotone(self):
        for seed in range(5):
            ds = make_classification(40, 3, seed=seed, logit_fn=lambda X: X[:, 0] - X[:, 1])
            design = materialize(ds, None, expand_pairwise((0, 1, 2), True))
            model = fit_logistic(design, ds.target)
            path = np.array(model.fit_info.loglik_path)
            assert np.all(np.diff(path) >= 0.0)

    def test_rejects_non_binary_target(self):
        design, _ = _logistic_oracle_instance()
        with pytest.raises(ValueError):
            fit_logistic(design, np.full(20, 0.5))


class TestPredict:
    def test_zero_model_logistic_gives_half(self):
        ds = make_classification(10, 2, seed=0)
        model_kind = fit_logistic(
            materialize(ds, None, (Base(0),)), ds.target, max_iter=0
        )
        assert model_kind.fit_info.n_iter == 0
        np.testing.assert_array_equal(predict(model_kind, ds, None), np.full(10, 0.5))

    def test_zero_coefficients_ols_gives_intercept(self):
        ds = make_regression(10, 2, seed=0)
        model = fit_ols(materialize(ds, None, (Base(0),)), np.full(10, 3.25))
        np.testing.assert_allclose(predict(model, ds, None), np.full(10, 3.25), atol=1e-8)

    def test_linear_extrapolation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        train = Dataset(x[:, None], ("x0",), 2.0 * x, Task.REGRESSION)
        design = materialize(train, None, (Base(0),))
        model = fit_ols(design, train.target)
        probe = Dataset(np.array([[5.0]]), ("x0",), np.array([0.0]), Task.REGRESSION)
        np.testing.assert_allclose(predict(model, probe, None), [10.0], atol=1e-7)


class TestScores:
    def test_metric_choice_follows_task(self):
        from interboost.linear import ScoreMetric, metric_for_task

        assert metric_for_task(Task.REGRESSION) is ScoreMetric.R_SQUARED
        assert metric_for_task(Task.BINARY_CLASSIFICATION) is ScoreMetric.ACCURACY

    def test_perfect_predictor(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y.copy()) == 1.0
        yc = np.array([0.0, 1.0, 1.0])
        assert accuracy(yc, np.array([0.1, 0.9, 0.8])) == 1.0

    def test_train_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 4.0])
        assert r_squared(y, np.full(3, y.mean())) == 0.0

    def test_accuracy_tie_goes_to_class_one(self):
        assert accuracy(np.array([1.0]), np.array([0.5])) == 1.0
        assert accuracy(np.array([0.0]), np.array([0.5])) == 0.0


class TestCvScore:
    def test_noiseless_linear_target(self):
        ds = make_regression(60, 2, seed=4, target_fn=lambda X: X[:, 0])
        assert cv_score(ds, None, (0,), False, k=3, seed=0) > 0.999

    def test_pure_noise_scores_low(self):
        # Monte-Carlo: independent target should never look predictive
        for seed in range(10):
            ds = make_regression(500, 2, seed=100 + seed)
            assert cv_score(ds, None, (0,), False, k=3, seed=seed) <= 0.1

    def test_interaction_gap_on_product_target(self):
        # independent check: direct holdout fits with and without the
        # product column, then the cv_score gap must agree in direction
        rng = np.random.default_rng(9)
        X = rng.normal(size=(1000, 2))
        y = X[:, 0] * X[:, 1]
        ds = Dataset(X, ("a", "b"), y, Task.REGRESSION)

        half = 500
        train_idx, val_idx = np.arange(half), np.arange(half, 1000)
        gaps = []
        for with_products in (False, True):
            terms = expand_pairwise((0, 1), with_products)
            design = materialize(ds, RowIndexSet(train_idx), terms)
            model = fit_ols(design, y[train_idx])
            pred = predict(model, ds, RowIndexSet(val_idx))
            gaps.append(r_squared(y[val_idx], pred))
        oracle_gap = gaps[1] - gaps[0]
        assert oracle_gap > 0.3

        cv_gap = cv_score(ds, None, (0, 1), True, 3, 0) - cv_score(ds, None, (0, 1), False, 3, 0)
        assert cv_gap > 0.3

    def test_deterministic_in_seed(self):
        ds = make_regression(90, 3, seed=2, target_fn=lambda X: X[:, 0] + X[:, 1] ** 2)
        a = cv_score(ds, None, (0, 1), True, 3, 5)
        assert a == cv_score(ds, None, (0, 1), True, 3, 5)
        assert a != cv_score(ds, None, (0, 1), True, 3, 6)

    def test_empty_subset_rejected(self):
        ds = make_regression(10, 2, seed=0)
        with pytest.raises(ValueError):
            cv_score(ds, None, (), False, 3, 0)


def reference_cv_score(ds, rows, terms, k, seed):
    """Per-call k-fold loop: a fresh fold plan, and every fold's train and
    validation designs materialized from scratch."""
    rows = RowIndexSet.all_rows(ds.n_rows) if rows is None else rows
    scores = []
    for fold_train, fold_val in kfold(len(rows), k, seed).folds:
        train_rows = RowIndexSet(rows.indices[fold_train.indices])
        val_rows = RowIndexSet(rows.indices[fold_val.indices])
        model = fit_for_task(ds.task, materialize(ds, train_rows, terms), ds.target[train_rows.indices])
        prediction = predict(model, ds, val_rows)
        scores.append(score_for_task(ds.task, ds.target[val_rows.indices], prediction))
    return float(np.mean(scores))


def _with_constant_column(ds):
    X = np.column_stack([ds.features, np.full(ds.n_rows, 2.5)])
    names = ds.feature_names + ("const",)
    return Dataset(X, names, ds.target, ds.task)


TERM_LISTS = (
    (Base(0),),
    (Base(2), Base(0), Product(0, 2)),
    (Base(1), Base(3), Base(0), Product(0, 1), Product(1, 3)),
    (Base(4), Base(1), Product(1, 4)),  # feature 4 is constant: sd clamps to 1
    (Base(0), Base(1), Base(2), Base(3), Product(0, 1), Product(0, 2), Product(2, 3)),
    (Base(3),),
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
        scorer = FoldScorer(ds, rows, 3, 11)
        # one scorer across term lists in both orders, and each list twice:
        # columns cached for one list must not leak into another's score
        for terms in TERM_LISTS + TERM_LISTS[::-1]:
            expected = reference_cv_score(ds, rows, terms, 3, 11)
            assert scorer.score(terms) == expected
            assert cv_score_terms(ds, rows, terms, 3, 11) == expected

    def test_rejects_bad_term_lists(self):
        scorer = FoldScorer(make_regression(30, 2, seed=0), None, 3, 0)
        with pytest.raises(ValueError, match="nonempty"):
            scorer.score(())
        with pytest.raises(ValueError, match="out of range"):
            scorer.score((Base(2),))
        with pytest.raises(ValueError, match="no base column"):
            scorer.score((Base(0), Product(0, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            scorer.score((Base(0), Base(0)))

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
        _, steps = discover_constraints_traced(ds, None, cfg)

        def terms(features, scope):
            pairs = itertools.combinations(sorted(scope), 2)
            return tuple(Base(f) for f in features) + tuple(Product(a, b) for a, b in pairs)

        def ref(features, scope):
            return reference_cv_score(ds, None, terms(features, scope), cfg.k_folds, cfg.seed)

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


if __name__ == "__main__":
    # regenerate the frozen gradient-ascent constant
    print("logistic oracle LL:", repr(_rederive_logistic_oracle()))
