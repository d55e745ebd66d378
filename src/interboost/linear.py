"""Linear and logistic regression with pairwise product expansion.

These models are the scoring engine behind constraint-partition discovery:
candidate feature groups are compared by cross-validated fit quality with
and without product columns. Base columns are standardized with statistics
fitted on training rows; product columns are elementwise products of the
standardized bases, which keeps the normal equations well conditioned.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, RowIndexSet, Task, kfold, resolve_rows


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


class ModelKind(enum.Enum):
    OLS = "ols"
    LOGISTIC = "logistic"


def pairwise_terms(features, interaction_scope) -> tuple[Term, ...]:
    """Bases for `features` in the given order, then every unordered pair of
    `interaction_scope` as a product term in lexicographic index order."""
    products = itertools.combinations(sorted(interaction_scope), 2)
    return tuple([Base(i) for i in features] + [Product(a, b) for a, b in products])


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Materialized model columns plus the spec and statistics that built them."""

    values: np.ndarray
    terms: tuple[Term, ...]
    standardization: dict[int, tuple[float, float]]

    def __post_init__(self):
        _check_term_spec(self.terms)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.terms):
            raise ValueError(
                f"design has {self.values.shape} values for {len(self.terms)} terms"
            )


def _check_term_spec(terms: tuple[Term, ...]) -> None:
    """No duplicate terms, and every product's features have base columns."""
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
    coefficients: np.ndarray  # aligned with terms
    intercept: float
    kind: ModelKind
    terms: tuple[Term, ...]
    standardization: dict[int, tuple[float, float]]
    fit_info: FitInfo | None = None


def _column_stats(col: np.ndarray) -> tuple[float, float]:
    """(mean, sample stddev) of one column. A degenerate stddev (constant
    column, or a single row) is clamped to 1 so the standardized column is
    all zeros rather than NaN."""
    mean = float(col.mean())
    sd = float(col.std(ddof=1)) if col.size > 1 else 0.0
    if not np.isfinite(sd) or sd <= 0.0:
        sd = 1.0
    return mean, sd


def _check_feature_indices(ds: Dataset, terms) -> None:
    for t in terms:
        for idx in (t.index,) if isinstance(t, Base) else (t.a, t.b):
            if not 0 <= idx < ds.n_features:
                raise ValueError(f"feature index {idx} out of range for {ds.n_features} features")


def materialize(
    ds: Dataset,
    rows: RowIndexSet | None,
    terms,
    standardization: dict[int, tuple[float, float]] | None = None,
) -> DesignMatrix:
    """Build the model matrix for `terms` over `rows`.

    With `standardization=None` each base feature's (mean, sample stddev)
    is fitted on these rows; otherwise the supplied (train-fitted)
    statistics are applied.
    """
    rows = resolve_rows(ds, rows)
    if len(rows) == 0:
        raise ValueError("cannot materialize a design over an empty row set")
    terms = tuple(terms)
    _check_feature_indices(ds, terms)
    stats = standardization
    if stats is None:
        stats = {
            t.index: _column_stats(ds.features[rows.indices, t.index])
            for t in terms
            if isinstance(t, Base)
        }
    std_cols: dict[int, np.ndarray] = {}
    for t in terms:
        if isinstance(t, Base):
            if t.index not in stats:
                raise ValueError(f"no standardization statistics for feature {t.index}")
            mean, sd = stats[t.index]
            std_cols[t.index] = (ds.features[rows.indices, t.index] - mean) / sd
    columns = _design_columns(terms, std_cols)
    values = np.column_stack(columns) if columns else np.empty((len(rows), 0))
    return DesignMatrix(values, terms, stats)


def _design_columns(terms, std_cols: dict[int, np.ndarray]) -> list[np.ndarray]:
    """Design columns for `terms` from standardized base columns: bases as
    they are, products as elementwise products, in term order."""
    return [
        std_cols[t.index] if isinstance(t, Base) else std_cols[t.a] * std_cols[t.b] for t in terms
    ]


def _with_intercept(X: DesignMatrix) -> np.ndarray:
    return np.column_stack([X.values, np.ones(X.values.shape[0])])


def fit_ols(X: DesignMatrix, y: np.ndarray, ridge: float = 1e-8) -> LinearModel:
    """Ridge-stabilized least squares via the normal equations.

    Minimizes ||y - A theta||^2 + ridge * ||coefficients||^2 with the
    intercept unpenalized; the default tiny ridge makes duplicated or
    collinear columns solvable without materially biasing scores.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    A = _with_intercept(X)
    y = np.asarray(y, dtype=np.float64)
    n_coef = A.shape[1] - 1
    M = A.T @ A
    diag = np.arange(n_coef)
    M[diag, diag] += ridge
    b = A.T @ y
    try:
        theta = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        theta = np.linalg.lstsq(M, b, rcond=None)[0]
    return LinearModel(
        coefficients=theta[:-1].copy(),
        intercept=float(theta[-1]),
        kind=ModelKind.OLS,
        terms=X.terms,
        standardization=dict(X.standardization),
    )


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
    X: DesignMatrix,
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
    A = _with_intercept(X)
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
    return LinearModel(
        coefficients=theta[:-1].copy(),
        intercept=float(theta[-1]),
        kind=ModelKind.LOGISTIC,
        terms=X.terms,
        standardization=dict(X.standardization),
        fit_info=FitInfo(converged, iterations, tuple(path)),
    )


# Probabilities are nudged off exact 0/1 so downstream log/odds stay finite.
_P_EPS = 1e-15


def predict(model: LinearModel, ds: Dataset, rows: RowIndexSet | None = None) -> np.ndarray:
    """Model outputs over rows: linear response for OLS, probability for logistic."""
    X = materialize(ds, rows, model.terms, model.standardization)
    return _response(model, X.values)


def _response(model: LinearModel, values: np.ndarray) -> np.ndarray:
    """Model output for design values (no intercept column) built with the
    model's own standardization."""
    z = values @ model.coefficients + model.intercept
    if model.kind is ModelKind.OLS:
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


def fit_for_task(task: Task, X: DesignMatrix, y: np.ndarray) -> LinearModel:
    if task is Task.REGRESSION:
        return fit_ols(X, y)
    return fit_logistic(X, y)


class FoldScorer:
    """k-fold validation scores of term lists over one fixed set of rows.

    The fold plan is built once. Each base feature is standardized once per
    fold, on first use, with statistics from that fold's training rows, and
    its standardized training and validation columns are kept. A score then
    only stacks cached columns and runs the k fits, with the same arithmetic
    as materializing every fold's design afresh.
    """

    def __init__(self, ds: Dataset, rows: RowIndexSet | None, k: int = 3, seed: int = 0):
        rows = resolve_rows(ds, rows)
        self._ds = ds
        self._folds = tuple(
            (rows.indices[fold_train.indices], rows.indices[fold_val.indices])
            for fold_train, fold_val in kfold(len(rows), k, seed)
        )
        # Per fold, feature -> (mean, sd) and standardized train / validation columns.
        self._stats: list[dict[int, tuple[float, float]]] = [{} for _ in self._folds]
        self._train: list[dict[int, np.ndarray]] = [{} for _ in self._folds]
        self._val: list[dict[int, np.ndarray]] = [{} for _ in self._folds]

    def _standardize(self, feature: int) -> None:
        if feature in self._stats[0]:
            return
        x = self._ds.features
        for fold, (train_idx, val_idx) in enumerate(self._folds):
            mean, sd = _column_stats(x[train_idx, feature])
            self._stats[fold][feature] = (mean, sd)
            self._train[fold][feature] = (x[train_idx, feature] - mean) / sd
            self._val[fold][feature] = (x[val_idx, feature] - mean) / sd

    def score(self, terms) -> float:
        """Mean validation score of the task-appropriate linear model over
        `terms`: R-squared of an OLS fit for regression, accuracy of a
        logistic fit for classification."""
        terms = tuple(terms)
        if not terms:
            raise ValueError("term list must be nonempty")
        _check_feature_indices(self._ds, terms)
        _check_term_spec(terms)
        bases = [t.index for t in terms if isinstance(t, Base)]
        for f in bases:
            self._standardize(f)
        task, y = self._ds.task, self._ds.target
        scores = []
        for fold, (train_idx, val_idx) in enumerate(self._folds):
            train_values = np.column_stack(_design_columns(terms, self._train[fold]))
            stats = {f: self._stats[fold][f] for f in bases}
            model = fit_for_task(task, DesignMatrix(train_values, terms, stats), y[train_idx])
            val_values = np.column_stack(_design_columns(terms, self._val[fold]))
            scores.append(score_for_task(task, y[val_idx], _response(model, val_values)))
        return float(np.mean(scores))


def cv_score_terms(
    ds: Dataset,
    rows: RowIndexSet | None,
    terms,
    k: int = 3,
    seed: int = 0,
) -> float:
    """Mean k-fold validation score of the task-appropriate linear model over
    an explicit term list. Standardization statistics come from each fold's
    training part only."""
    return FoldScorer(ds, rows, k, seed).score(terms)

