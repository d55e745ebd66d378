"""Linear and logistic regression over pairwise product designs.

These models are the scoring engine behind constraint-partition discovery:
candidate feature groups are compared by cross-validated fit quality with
and without product columns. A design is a pair `(features, scope)`: the
standardized `features` in the given order, then the elementwise product of
every pair of `sorted(scope)` in lexicographic order. Features are
standardized with statistics fitted on training rows, which keeps the
normal equations well conditioned.

A design's values `A` carry their intercept column: `materialize` gives
one design `(n, q + 1)` with a last column of ones, and the fits, `predict`
and `FoldScorer` take a stack `(c, n, q + 1)` of c such designs over the
same rows (`A[None]` is a stack of one). Each design of a stack gets the
arithmetic it gets in a stack of one, bit for bit. `fit_ols` and
`fit_logistic` take only the stack and the target: their ridges and
Newton's stop rule are the module constants below. `raw_to_prediction` is
the link of each task, for these fits and for boosting's raw sums.
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
STACK_CELLS = 2**16  # design cells (designs x rows x columns) in one stacked fit


@dataclass(frozen=True)
class FitInfo:
    """Newton iterations of a logistic fit, summed over the designs of its
    stack."""

    n_iter: int


@dataclass(frozen=True, eq=False)
class LinearModel:
    """The fit of a stack of c designs: coefficients (c, q), one row per
    design aligned with its columns before the ones column, and c
    intercepts."""

    coefficients: np.ndarray
    intercept: np.ndarray
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
    """The values `(n, q + 1)` of the design `(features, scope)` over the
    row indices `rows` (None: all rows), ones in the last column, and the
    standardization statistics that built them.

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
    values = np.column_stack(_design_columns(std, features, scope) + [np.ones(idx.size)])
    return values, stats


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x per design: (..., m, n) by (..., n) gives (..., m)."""
    return (M @ x[..., None])[..., 0]


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M[i] @ theta[i] = b[i] for each design. A singular stack is
    solved one design at a time, with least squares for a singular one."""
    try:
        return np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        theta = np.empty_like(b)
        for i, (Mi, bi) in enumerate(zip(M, b)):
            try:
                theta[i] = np.linalg.solve(Mi, bi)
            except np.linalg.LinAlgError:
                theta[i] = np.linalg.lstsq(Mi, bi, rcond=None)[0]
        return theta


def fit_ols(A: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ridge-stabilized least squares via the normal equations.

    Minimizes ||y - A theta||^2 + OLS_RIDGE * ||coefficients||^2 with the
    intercept unpenalized; the tiny ridge makes duplicated or collinear
    columns solvable without materially biasing scores.
    """
    At = A.transpose(0, 2, 1)
    y = np.asarray(y, dtype=np.float64)
    # products that overflow give a non-finite score, which the scorer rejects
    with np.errstate(over="ignore", invalid="ignore"):
        M = At @ A
        b = At @ y
    diag = np.arange(A.shape[2] - 1)
    M[:, diag, diag] += OLS_RIDGE
    theta = _solve(M, b)
    return LinearModel(theta[:, :-1], theta[:, -1])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), as e / (1 + e) with e = exp(z) where z < 0, so
    that exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def raw_to_prediction(task: Task, raw: np.ndarray) -> np.ndarray:
    """The task's link: raw scores for regression, sigmoid(raw) otherwise."""
    if task is Task.REGRESSION:
        return raw
    return sigmoid(raw)


def logistic_loglik(z: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Penalized Bernoulli log-likelihood at theta, given z = A @ theta and
    0/1 labels y; the intercept (last entry of theta) is unpenalized. One
    value per design.

    A row's loss is log(1 + exp(-z)) for label 1 and log(1 + exp(z)) for
    label 0. At z = +-inf it is the limit: 0 where the sign of z agrees
    with the label, +inf where it does not."""
    ll = -np.sum(np.logaddexp(0.0, np.where(y == 1.0, -z, z)), axis=-1)
    return ll - 0.5 * LOGISTIC_RIDGE * np.sum(theta[..., :-1] ** 2, axis=-1)


def logistic_grad(A: np.ndarray, y: np.ndarray, theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of `logistic_loglik` at theta, given p = sigmoid(A @ theta)."""
    grad = _matvec(np.swapaxes(A, -1, -2), y - p)
    grad[..., :-1] -= LOGISTIC_RIDGE * theta[..., :-1]
    return grad


def fit_logistic(A: np.ndarray, y: np.ndarray) -> LinearModel:
    """Damped Newton ascent on the penalized log-likelihood.

    Each iteration halves the step (at most 30 times) until the penalized
    log-likelihood does not decrease, so the accepted path is monotone.
    Each tried step computes A @ theta once; the accepted one keeps it for
    the gradient and the next Hessian. Stops when the gradient infinity-norm
    is <= NEWTON_TOL * (1 + gradient norm at theta = 0), after
    NEWTON_MAX_ITER iterations, or when no step improves. The designs of a
    stack share each numpy call, but each keeps its own step, stop test and
    iteration count.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic regression requires a 0/1 target")
    c, _, width = A.shape
    theta = np.zeros((c, width))
    diag = np.arange(width - 1)
    z = _matvec(A, theta)
    p = sigmoid(z)
    grad = logistic_grad(A, y, theta, p)
    threshold = NEWTON_TOL * (1.0 + np.max(np.abs(grad), axis=-1))
    ll = logistic_loglik(z, y, theta)
    n_iter = np.zeros(c, dtype=int)
    live, A_live = np.arange(c), A  # the designs still iterating, and their values
    while True:
        going = (np.max(np.abs(grad[live]), axis=-1) > threshold[live]) & (n_iter[live] < NEWTON_MAX_ITER)
        if not going.all():
            live, A_live = live[going], A_live[going]
        if not live.size:
            break
        w = p[live] * (1.0 - p[live])
        H = np.swapaxes(A_live * w[..., None], 1, 2) @ A_live
        H[:, diag, diag] += LOGISTIC_RIDGE
        direction = _solve(H, grad[live])
        finite = np.all(np.isfinite(direction), axis=-1)
        if not finite.all():
            live, A_live, direction = live[finite], A_live[finite], direction[finite]
        # the designs still trying have all halved their steps equally often
        step, trying = 1.0, np.arange(live.size)  # positions in live
        for _ in range(31):  # full step plus at most 30 halvings
            idx = live[trying]
            candidate = theta[idx] + step * direction[trying]
            candidate_z = _matvec(A_live if trying.size == live.size else A_live[trying], candidate)
            candidate_ll = logistic_loglik(candidate_z, y, candidate)
            better = candidate_ll >= ll[idx]
            done = idx[better]
            theta[done], z[done], ll[done] = candidate[better], candidate_z[better], candidate_ll[better]
            trying = trying[~better]
            if not trying.size:
                break
            step *= 0.5
        if trying.size:  # no step improved these designs
            improved = np.ones(live.size, dtype=bool)
            improved[trying] = False
            live, A_live = live[improved], A_live[improved]
        n_iter[live] += 1
        p[live] = sigmoid(z[live])
        grad[live] = logistic_grad(A_live, y, theta[live], p[live])
    return LinearModel(theta[:, :-1], theta[:, -1], FitInfo(int(n_iter.sum())))


def predict(task: Task, model: LinearModel, A: np.ndarray) -> np.ndarray:
    """Output (c, n) of the task's model on the matching stack of designs
    `A` (c, n, q + 1), built with the fit's standardization: the linear
    response of an OLS fit for regression, the probability of a logistic
    fit for classification."""
    # coefficients times the columns, then the intercept added: A @ theta
    # would round differently
    raw = _matvec(A[..., :-1], model.coefficients)
    return raw_to_prediction(task, raw + model.intercept[:, None])


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float | np.ndarray:
    """R-squared of one prediction (n,), or of each row of a (c, n) stack.
    Both are divided by 2^e, e the binary exponent of max |y_true|, as in
    `_column_stats`: R-squared of 2^k * y is that of y, and no scale makes
    the squares overflow."""
    e = math.frexp(float(np.max(np.abs(y_true))))[1]
    y_true, y_pred = np.ldexp(y_true, -e), np.ldexp(y_pred, -e)
    ss_res = np.sum((y_true - y_pred) ** 2, axis=-1)
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = np.where(ss_res == 0.0, 1.0, 0.0)
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(r2) if r2.ndim == 0 else r2


def accuracy(y_true: np.ndarray, prob: np.ndarray) -> float | np.ndarray:
    """Fraction classified correctly at threshold 0.5; ties go to class 1.
    One value for one prediction (n,), one per row of a (c, n) stack."""
    labels = (np.asarray(prob) >= 0.5).astype(np.float64)
    acc = np.mean(labels == np.asarray(y_true, dtype=np.float64), axis=-1)
    return float(acc) if acc.ndim == 0 else acc


def score_for_task(task: Task, y_true: np.ndarray, prediction: np.ndarray) -> float | np.ndarray:
    """R-squared scores regression models, accuracy scores classifiers."""
    if task is Task.REGRESSION:
        return r_squared(y_true, prediction)
    return accuracy(y_true, prediction)


def fit_for_task(task: Task, A: np.ndarray, y: np.ndarray) -> LinearModel:
    if task is Task.REGRESSION:
        return fit_ols(A, y)
    return fit_logistic(A, y)


def _design_stack(std: np.ndarray, features: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Values (c, rows, columns + 1) of c designs of one shape: the columns
    of `features[i]`, the products of `pairs[i]`, then ones; `std` holds
    one standardized row per feature."""
    c, n_features = features.shape
    values = np.empty((c, std.shape[1], n_features + pairs.shape[1] + 1))
    values[:, :, :n_features] = std[features].transpose(0, 2, 1)
    values[:, :, n_features:-1] = (std[pairs[..., 0]] * std[pairs[..., 1]]).transpose(0, 2, 1)
    values[:, :, -1] = 1.0
    return values


class FoldScorer:
    """k-fold validation scores of designs over all rows of a dataset.

    The fold plan and each fold's data are built once: every feature
    standardized with statistics from that fold's training rows (one row per
    feature, for the training and the validation rows), and both target
    slices. Designs of one shape are scored together: per fold, one stacked
    fit and one stacked predict over up to STACK_CELLS cells, with the
    arithmetic of materializing and fitting each design alone. Each distinct
    design is scored once per scorer.
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
        self._scores: dict[tuple, float] = {}  # by canonical design

    def score_many(self, designs) -> list[float]:
        """Mean validation score of the task-appropriate linear model over
        each design `(features, scope)`, in order: R-squared of an OLS fit
        for regression, accuracy of a logistic fit for classification. A
        mean that is not finite (a feature or the target too large) is a
        DataError, which gives the first such mean."""
        keys = []
        for features, scope in designs:
            if not features:
                raise ValueError("feature list must be nonempty")
            _check_design(self._ds.n_features, features, scope)
            # a scope of one feature has no products
            keys.append((tuple(features), tuple(sorted(scope)) if len(scope) > 1 else ()))
        shapes: dict[tuple[int, int], list[tuple]] = {}
        for key in dict.fromkeys(keys):
            if key not in self._scores:
                shapes.setdefault((len(key[0]), len(key[1])), []).append(key)
        for (n_features, n_scope), group in shapes.items():
            columns = n_features + n_scope * (n_scope - 1) // 2
            size = max(1, STACK_CELLS // (self._ds.n_rows * columns))
            for start in range(0, len(group), size):
                stack = group[start : start + size]
                self._scores.update(zip(stack, self._score_stack(stack)))
        scores = [self._scores[key] for key in keys]
        for mean in scores:
            if not np.isfinite(mean):
                raise DataError(
                    f"validation score {mean} is not finite: a feature or the target is too large"
                )
        return scores

    def _score_stack(self, designs: list[tuple]) -> list[float]:
        """Mean validation scores of canonical designs of one shape."""
        features = np.array([f for f, _ in designs], dtype=np.intp)
        pairs = np.array(
            [list(itertools.combinations(scope, 2)) for _, scope in designs], dtype=np.intp
        ).reshape(len(designs), -1, 2)
        task = self._ds.task
        scores = []
        # a score that overflows is not finite, which score_many rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for train_std, val_std, y_train, y_val in self._folds:
                model = fit_for_task(task, _design_stack(train_std, features, pairs), y_train)
                prediction = predict(task, model, _design_stack(val_std, features, pairs))
                scores.append(score_for_task(task, y_val, prediction))
            return np.mean(np.stack(scores, axis=1), axis=1).tolist()


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
    return FoldScorer(ds if rows is None else take_rows(ds, rows.indices), k, seed).score_many([terms])[0]
