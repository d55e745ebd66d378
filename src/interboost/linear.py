"""Linear and logistic regression with pairwise product expansion.

These models are the scoring engine behind constraint-partition discovery:
candidate feature groups are compared by cross-validated fit quality with
and without product columns. Base columns are standardized with statistics
fitted on training rows; product columns are elementwise products of the
standardized bases, which keeps the normal equations well conditioned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, RowIndexSet, Task, kfold, take_rows


@dataclass(frozen=True)
class Base:
    """A raw feature column, referenced by feature index."""

    index: int


@dataclass(frozen=True)
class Product:
    """Elementwise product of two standardized base columns, a < b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a >= self.b:
            raise ValueError(f"product term requires a < b, got ({self.a}, {self.b})")


Term = Base | Product


def pairwise_terms(features, interaction_scope) -> tuple[Term, ...]:
    """Bases for `features` in the given order, then every unordered pair of
    `interaction_scope` as a product term in lexicographic index order."""
    products = itertools.combinations(sorted(interaction_scope), 2)
    return tuple([Base(i) for i in features] + [Product(a, b) for a, b in products])


def _check_terms(ds: Dataset, terms: tuple[Term, ...]) -> None:
    """Every term's features index `ds`, no term repeats, and every
    product's features have base columns."""
    for t in terms:
        for idx in (t.index,) if isinstance(t, Base) else (t.a, t.b):
            if not 0 <= idx < ds.n_features:
                raise ValueError(f"feature index {idx} out of range for {ds.n_features} features")
    if len(set(terms)) != len(terms):
        raise ValueError("duplicate terms in design")
    base_set = {t.index for t in terms if isinstance(t, Base)}
    for t in terms:
        if isinstance(t, Product) and not (t.a in base_set and t.b in base_set):
            raise ValueError(f"product term {t} references a feature with no base column")


@dataclass(frozen=True)
class FitInfo:
    converged: bool
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
    terms,
    standardization: dict[int, tuple[float, float]] | None = None,
) -> tuple[np.ndarray, dict[int, tuple[float, float]]]:
    """The design values for `terms` over the row indices `rows` (None: all
    rows), and the standardization statistics that built them.

    With `standardization=None` each base feature's (mean, sample stddev)
    is fitted on these rows; otherwise the supplied (train-fitted)
    statistics are applied. Discovery scores with `FoldScorer`, which
    builds the same columns; this per-call path is the reference for it.
    """
    idx = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot materialize a design over an empty row set")
    terms = tuple(terms)
    _check_terms(ds, terms)
    stats = standardization
    if stats is None:
        stats = {
            t.index: _column_stats(ds.features[idx, t.index]) for t in terms if isinstance(t, Base)
        }
    std_cols: dict[int, np.ndarray] = {}
    for t in terms:
        if isinstance(t, Base):
            if t.index not in stats:
                raise ValueError(f"no standardization statistics for feature {t.index}")
            mean, sd = stats[t.index]
            std_cols[t.index] = (ds.features[idx, t.index] - mean) / sd
    columns = _design_columns(terms, std_cols)
    values = np.column_stack(columns) if columns else np.empty((idx.size, 0))
    return values, stats


def _design_columns(terms, std_cols: dict[int, np.ndarray]) -> list[np.ndarray]:
    """Design columns for `terms` from standardized base columns: bases as
    they are, products as elementwise products, in term order."""
    return [
        std_cols[t.index] if isinstance(t, Base) else std_cols[t.a] * std_cols[t.b] for t in terms
    ]


def _with_intercept(values: np.ndarray) -> np.ndarray:
    return np.column_stack([values, np.ones(values.shape[0])])


def fit_ols(values: np.ndarray, y: np.ndarray, ridge: float = 1e-8) -> LinearModel:
    """Ridge-stabilized least squares via the normal equations.

    Minimizes ||y - A theta||^2 + ridge * ||coefficients||^2 with the
    intercept unpenalized; the default tiny ridge makes duplicated or
    collinear columns solvable without materially biasing scores.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    A = _with_intercept(values)
    y = np.asarray(y, dtype=np.float64)
    n_coef = A.shape[1] - 1
    # products that overflow give a non-finite score, which the scorer rejects
    with np.errstate(over="ignore", invalid="ignore"):
        M = A.T @ A
        b = A.T @ y
    diag = np.arange(n_coef)
    M[diag, diag] += ridge
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


def logistic_loglik(A: np.ndarray, y: np.ndarray, theta: np.ndarray, ridge: float) -> float:
    """Penalized Bernoulli log-likelihood; the intercept (last entry of
    theta) is unpenalized."""
    z = A @ theta
    ll = -float(np.sum(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))
    return ll - 0.5 * ridge * float(np.sum(theta[:-1] ** 2))


def logistic_grad(A: np.ndarray, y: np.ndarray, theta: np.ndarray, ridge: float) -> np.ndarray:
    p = sigmoid(A @ theta)
    grad = A.T @ (y - p)
    grad[:-1] -= ridge * theta[:-1]
    return grad


def fit_logistic(
    values: np.ndarray,
    y: np.ndarray,
    ridge: float = 1e-6,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> LinearModel:
    """Damped Newton ascent on the penalized log-likelihood.

    Each iteration halves the step (at most 30 times) until the penalized
    log-likelihood does not decrease, so the accepted path is monotone.
    Convergence: gradient infinity-norm <= tol * (1 + gradient norm at
    theta = 0). Hitting max_iter is flagged on fit_info, not an error.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    A = _with_intercept(values)
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic regression requires a 0/1 target")
    p_cols = A.shape[1]
    theta = np.zeros(p_cols)
    penalty = np.ones(p_cols)
    penalty[-1] = 0.0
    threshold = tol * (1.0 + float(np.max(np.abs(logistic_grad(A, y, theta, ridge)))))
    ll = logistic_loglik(A, y, theta, ridge)
    path = [ll]
    converged = False
    iterations = 0
    while True:
        grad = logistic_grad(A, y, theta, ridge)
        if float(np.max(np.abs(grad))) <= threshold:
            converged = True
            break
        if iterations >= max_iter:
            break
        p = sigmoid(A @ theta)
        w = p * (1.0 - p)
        H = (A * w[:, None]).T @ A
        H[np.diag_indices(p_cols)] += ridge * penalty
        try:
            direction = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(H, grad, rcond=None)[0]
        if not np.all(np.isfinite(direction)):
            break
        step = 1.0
        improved = False
        for _ in range(31):  # full step plus at most 30 halvings
            candidate = theta + step * direction
            candidate_ll = logistic_loglik(A, y, candidate, ridge)
            if candidate_ll >= ll:
                theta, ll = candidate, candidate_ll
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        path.append(ll)
        iterations += 1
    fit_info = FitInfo(converged, iterations, tuple(path))
    return LinearModel(theta[:-1].copy(), float(theta[-1]), fit_info)


# Probabilities are nudged off exact 0/1 so downstream log/odds stay finite.
_P_EPS = 1e-15


def predict(task: Task, model: LinearModel, values: np.ndarray) -> np.ndarray:
    """Output of the task's model on design values (no intercept column)
    built with the fit's standardization: the linear response of an OLS fit
    for regression, the probability of a logistic fit for classification."""
    z = values @ model.coefficients + model.intercept
    if task is Task.REGRESSION:
        return z
    return np.clip(sigmoid(z), _P_EPS, 1.0 - _P_EPS)


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
    """k-fold validation scores of term lists over all rows of a dataset.

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

    def score(self, terms) -> float:
        """Mean validation score of the task-appropriate linear model over
        `terms`: R-squared of an OLS fit for regression, accuracy of a
        logistic fit for classification. A mean that is not finite (features
        too large to standardize) is a DataError."""
        terms = tuple(terms)
        if not terms:
            raise ValueError("term list must be nonempty")
        _check_terms(self._ds, terms)
        task = self._ds.task
        scores = []
        # a score that overflows is not finite, which is the DataError below
        with np.errstate(over="ignore", invalid="ignore"):
            for train_std, val_std, y_train, y_val in self._folds:
                train_values = np.column_stack(_design_columns(terms, train_std))
                model = fit_for_task(task, train_values, y_train)
                val_values = np.column_stack(_design_columns(terms, val_std))
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
    an explicit term list and the given rows (None: all rows).
    Standardization statistics come from each fold's training part only."""
    return FoldScorer(ds if rows is None else take_rows(ds, rows.indices), k, seed).score(terms)
