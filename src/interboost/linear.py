"""Linear and logistic regression over pairwise product designs.

These models are the scoring engine behind constraint-partition discovery:
candidate feature groups are compared by cross-validated fit quality with
and without product columns. A design is a pair `(features, scope)`: the
standardized `features` in the given order, then the elementwise product of
every pair of `sorted(scope)` in lexicographic order. Features are
standardized with statistics fitted on training rows, which keeps the
normal equations well conditioned.

`fit_ols` and `fit_logistic` take only the design values and the target:
their ridges and Newton's stop rule are the module constants below.
`raw_to_prediction` is the link of each task, for these fits and for
boosting's raw sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, RowIndexSet, Task, kfold, take_rows


def _check_design(n_features: int, features, scope) -> None:
    """`features` are distinct indices into `n_features` features, and
    `scope` is distinct features among them."""
    for f in features:
        if not 0 <= f < n_features:
            raise ValueError(f"feature index {f} out of range for {n_features} features")
    if len(set(features)) != len(features) or len(set(scope)) != len(scope):
        raise ValueError(f"duplicate features in design ({features}, {scope})")
    if not set(scope) <= set(features):
        raise ValueError(f"interaction scope {scope} names a feature with no base column")


def _design_columns(std, features, scope) -> list[np.ndarray]:
    """Columns of the design `(features, scope)`; `std[f]` is feature f's
    standardized column."""
    products = itertools.combinations(sorted(scope), 2)
    return [std[f] for f in features] + [std[a] * std[b] for a, b in products]


OLS_RIDGE = 1e-8  # neither ridge penalizes the intercept
LOGISTIC_RIDGE = 1e-6
NEWTON_TOL = 1e-8  # of fit_logistic's stop test
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class FitInfo:
    n_iter: int
    loglik_path: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class LinearModel:
    coefficients: np.ndarray  # aligned with the design's columns
    intercept: float
    fit_info: FitInfo | None = None


def _column_stats(col: np.ndarray) -> tuple[float, float]:
    """(mean, sample stddev) of one column, taken on the column divided by
    2^e, e the binary exponent of its largest magnitude, and scaled back.
    Powers of two scale exactly, so the stats of 2^k * col are 2^k times
    those of col, and no scale makes the squared deviations overflow or
    underflow. A degenerate stddev (constant column, or a single row) is
    clamped to 1 so the standardized column is all zeros rather than NaN."""
    e = math.frexp(float(np.max(np.abs(col))))[1]
    scaled = np.ldexp(col, -e)
    with np.errstate(over="ignore"):  # an overflowed stddev is clamped below
        mean = float(np.ldexp(scaled.mean(), e))
        sd = float(np.ldexp(scaled.std(ddof=1), e)) if col.size > 1 else 0.0
    if not np.isfinite(sd) or sd <= 0.0:
        sd = 1.0
    return mean, sd


def materialize(
    ds: Dataset,
    rows: np.ndarray | None,
    features,
    scope,
    standardization: dict[int, tuple[float, float]] | None = None,
) -> tuple[np.ndarray, dict[int, tuple[float, float]]]:
    """The values of the design `(features, scope)` over the row indices
    `rows` (None: all rows), and the standardization statistics that built
    them.

    With `standardization=None` each feature's (mean, sample stddev) is
    fitted on these rows; otherwise the supplied (train-fitted) statistics
    are applied. Discovery scores with `FoldScorer`, which builds the same
    columns; this per-call path is the reference for it.
    """
    idx = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot materialize a design over an empty row set")
    _check_design(ds.n_features, features, scope)
    stats = standardization
    if stats is None:
        stats = {f: _column_stats(ds.features[idx, f]) for f in features}
    std = {f: (ds.features[idx, f] - stats[f][0]) / stats[f][1] for f in features}
    columns = _design_columns(std, features, scope)
    values = np.column_stack(columns) if columns else np.empty((idx.size, 0))
    return values, stats


def _with_intercept(values: np.ndarray) -> np.ndarray:
    return np.column_stack([values, np.ones(values.shape[0])])


def fit_ols(values: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ridge-stabilized least squares via the normal equations.

    Minimizes ||y - A theta||^2 + OLS_RIDGE * ||coefficients||^2 with the
    intercept unpenalized; the tiny ridge makes duplicated or collinear
    columns solvable without materially biasing scores.
    """
    A = _with_intercept(values)
    y = np.asarray(y, dtype=np.float64)
    # products that overflow give a non-finite score, which the scorer rejects
    with np.errstate(over="ignore", invalid="ignore"):
        M = A.T @ A
        b = A.T @ y
    diag = np.arange(A.shape[1] - 1)
    M[diag, diag] += OLS_RIDGE
    try:
        theta = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        theta = np.linalg.lstsq(M, b, rcond=None)[0]
    return LinearModel(theta[:-1].copy(), float(theta[-1]))


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def raw_to_prediction(task: Task, raw: np.ndarray) -> np.ndarray:
    """The task's link: raw scores for regression, sigmoid(raw) otherwise."""
    if task is Task.REGRESSION:
        return raw
    return sigmoid(raw)


def logistic_loglik(z: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
    """Penalized Bernoulli log-likelihood at theta, given z = A @ theta; the
    intercept (last entry of theta) is unpenalized."""
    ll = -float(np.sum(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))
    return ll - 0.5 * LOGISTIC_RIDGE * float(np.sum(theta[:-1] ** 2))


def logistic_grad(A: np.ndarray, y: np.ndarray, theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of `logistic_loglik` at theta, given p = sigmoid(A @ theta)."""
    grad = A.T @ (y - p)
    grad[:-1] -= LOGISTIC_RIDGE * theta[:-1]
    return grad


def fit_logistic(values: np.ndarray, y: np.ndarray) -> LinearModel:
    """Damped Newton ascent on the penalized log-likelihood.

    Each iteration halves the step (at most 30 times) until the penalized
    log-likelihood does not decrease, so the accepted path is monotone.
    Each tried step computes A @ theta once; the accepted one keeps it for
    the gradient and the next Hessian. Stops when the gradient infinity-norm
    is <= NEWTON_TOL * (1 + gradient norm at theta = 0), after
    NEWTON_MAX_ITER iterations, or when no step improves.
    """
    A = _with_intercept(values)
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic regression requires a 0/1 target")
    theta = np.zeros(A.shape[1])
    diag = np.arange(A.shape[1] - 1)
    z = A @ theta
    p = sigmoid(z)
    grad = logistic_grad(A, y, theta, p)
    threshold = NEWTON_TOL * (1.0 + float(np.max(np.abs(grad))))
    ll = logistic_loglik(z, y, theta)
    path = [ll]
    while float(np.max(np.abs(grad))) > threshold and len(path) - 1 < NEWTON_MAX_ITER:
        w = p * (1.0 - p)
        H = (A * w[:, None]).T @ A
        H[diag, diag] += LOGISTIC_RIDGE
        try:
            direction = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(H, grad, rcond=None)[0]
        if not np.all(np.isfinite(direction)):
            break
        step = 1.0
        for _ in range(31):  # full step plus at most 30 halvings
            candidate = theta + step * direction
            candidate_z = A @ candidate
            candidate_ll = logistic_loglik(candidate_z, y, candidate)
            if candidate_ll >= ll:
                break
            step *= 0.5
        else:  # no step improved
            break
        theta, z, ll = candidate, candidate_z, candidate_ll
        path.append(ll)
        p = sigmoid(z)
        grad = logistic_grad(A, y, theta, p)
    return LinearModel(theta[:-1].copy(), float(theta[-1]), FitInfo(len(path) - 1, tuple(path)))


def predict(task: Task, model: LinearModel, values: np.ndarray) -> np.ndarray:
    """Output of the task's model on design values (no intercept column)
    built with the fit's standardization: the linear response of an OLS fit
    for regression, the probability of a logistic fit for classification."""
    return raw_to_prediction(task, values @ model.coefficients + model.intercept)


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def accuracy(y_true: np.ndarray, prob: np.ndarray) -> float:
    """Fraction classified correctly at threshold 0.5; ties go to class 1."""
    labels = (np.asarray(prob) >= 0.5).astype(np.float64)
    return float(np.mean(labels == np.asarray(y_true, dtype=np.float64)))


def score_for_task(task: Task, y_true: np.ndarray, prediction: np.ndarray) -> float:
    """R-squared scores regression models, accuracy scores classifiers."""
    if task is Task.REGRESSION:
        return r_squared(y_true, prediction)
    return accuracy(y_true, prediction)


def fit_for_task(task: Task, values: np.ndarray, y: np.ndarray) -> LinearModel:
    if task is Task.REGRESSION:
        return fit_ols(values, y)
    return fit_logistic(values, y)


class FoldScorer:
    """k-fold validation scores of designs over all rows of a dataset.

    The fold plan and each fold's data are built once: every feature
    standardized with statistics from that fold's training rows (one row per
    feature, for the training and the validation rows), and both target
    slices. A score then only stacks rows and runs the k fits, with the
    same arithmetic as materializing every fold's design afresh.
    """

    def __init__(self, ds: Dataset, k: int = 3, seed: int = 0):
        self._ds = ds
        xt, y = ds.features.T, ds.target  # one row per feature
        self._folds = []
        for tr, va in kfold(ds.n_rows, k, seed):
            train_x, val_x = xt[:, tr.indices], xt[:, va.indices]
            stats = np.array([_column_stats(col) for col in train_x])
            mean, sd = stats[:, :1], stats[:, 1:]
            self._folds.append(
                ((train_x - mean) / sd, (val_x - mean) / sd, y[tr.indices], y[va.indices])
            )

    def score(self, features, scope) -> float:
        """Mean validation score of the task-appropriate linear model over
        the design `(features, scope)`: R-squared of an OLS fit for
        regression, accuracy of a logistic fit for classification. A mean
        that is not finite (features too large to standardize) is a
        DataError."""
        if not features:
            raise ValueError("feature list must be nonempty")
        _check_design(self._ds.n_features, features, scope)
        task = self._ds.task
        scores = []
        # a score that overflows is not finite, which is the DataError below
        with np.errstate(over="ignore", invalid="ignore"):
            for train_std, val_std, y_train, y_val in self._folds:
                train_values = np.column_stack(_design_columns(train_std, features, scope))
                model = fit_for_task(task, train_values, y_train)
                val_values = np.column_stack(_design_columns(val_std, features, scope))
                scores.append(score_for_task(task, y_val, predict(task, model, val_values)))
        mean = float(np.mean(scores))
        if not np.isfinite(mean):
            raise DataError(
                f"validation score {mean} is not finite: a feature or the target is too large"
            )
        return mean


def cv_score_terms(
    ds: Dataset,
    rows: RowIndexSet | None,
    terms,
    k: int = 3,
    seed: int = 0,
) -> float:
    """Mean k-fold validation score of the task-appropriate linear model over
    the design `terms`, a pair `(features, scope)`, and the given rows (None:
    all rows). Standardization statistics come from each fold's training
    part only."""
    return FoldScorer(ds if rows is None else take_rows(ds, rows.indices), k, seed).score(*terms)
