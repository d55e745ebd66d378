"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: stump
search enumerates every candidate with direct sums instead of prefix
scans, least squares goes through an explicit SVD pseudo-inverse, and
gradients are checked by central finite differences. `reference_grow`,
`reference_tune`, `reference_benchmark`, `reference_leaf_values`,
`reference_fit_logistic` and `reference_materialize` are the exceptions:
they are the simpler forms that the library must match bit for bit, so
they share its building blocks. `reference_grow` sorts every allowed
feature again in every node; `reference_tune` trains every grid cell
separately; `reference_benchmark` trains every variant and every random
run from scratch; `reference_leaf_values` walks one tree at a time, and
`reference_stages` adds its trees up one by one; `reference_fit_logistic`
evaluates each Newton iterate afresh for its gradient, its Hessian weights
and its log-likelihood; `reference_sigmoid` splits its input by sign with
boolean masks. `reference_children` reads a tree's child ids recursively,
where the library sorts every node by its level. `reference_read_csv`
converts a CSV one row and one cell at a time, where the library converts
a block of rows column by column. `reference_materialize` builds one
design column by column, where the library builds a stack of designs of
one shape.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
from dataclasses import asdict

import numpy as np

from interboost.boosting import (
    NODE,
    FixedPartition,
    NoConstraints,
    PerResidual,
    TrainParams,
    Tree,
    _split_threshold,
    leaf_weight,
    predict_matrix,
    train,
)
from interboost.data import DataError, kfold, train_test_split
from interboost.discovery import discover_constraints
from interboost.experiment import random_partition
from interboost.linear import _check_design, _column_stats, score_for_task, sigmoid
from interboost.prng import mix_seed


def brute_force_stump(X, g, h, reg_lambda, gamma=0.0, min_child_samples=1, min_child_hessian=0.0):
    """(feature, threshold, w_left, w_right) of `brute_force_best_split`, or None."""
    best = brute_force_best_split(X, g, h, reg_lambda, gamma, min_child_samples, min_child_hessian)
    return None if best is None else best[1:]


def split_gain(left_grad, left_hess, right_grad, right_hess, reg_lambda, gamma):
    """Second-order gain of one split (the formula in `interboost.boosting`'s
    module doc) from its children's gradient and hessian sums."""
    total_grad = left_grad + right_grad
    total_hess = left_hess + right_hess
    return 0.5 * (
        left_grad**2 / (left_hess + reg_lambda)
        + right_grad**2 / (right_hess + reg_lambda)
        - total_grad**2 / (total_hess + reg_lambda)
    ) - gamma


def direct_split_gain(x, g, h, threshold, reg_lambda, gamma=0.0):
    """Gain of routing rows with x < threshold left, from direct masked sums."""
    mask = x < threshold
    GL, HL = float(np.sum(g[mask])), float(np.sum(h[mask]))
    GR, HR = float(np.sum(g[~mask])), float(np.sum(h[~mask]))
    G, H = float(np.sum(g)), float(np.sum(h))
    return 0.5 * (GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - G**2 / (H + reg_lambda)) - gamma


def brute_force_best_split(X, g, h, reg_lambda, gamma=0.0, min_child_samples=1, min_child_hessian=0.0):
    """Exhaustive best depth-1 split.

    Tries every feature and every midpoint between adjacent distinct values,
    computing child sums directly over boolean masks (row order). Returns
    (gain, feature, threshold, w_left, w_right) or None when no candidate
    has strictly positive gain. Tie-break: lower feature, then lower
    threshold, via strict-improvement scanning in ascending order.
    """
    n, n_features = X.shape
    G = float(np.sum(g))
    H = float(np.sum(h))
    best = None
    for f in range(n_features):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            mask = X[:, f] < threshold
            n_left = int(mask.sum())
            if n_left < min_child_samples or n - n_left < min_child_samples:
                continue
            GL = float(np.sum(g[mask]))
            HL = float(np.sum(h[mask]))
            GR = float(np.sum(g[~mask]))
            HR = float(np.sum(h[~mask]))
            if HL < min_child_hessian or HR < min_child_hessian:
                continue
            gain = (
                0.5
                * (
                    GL**2 / (HL + reg_lambda)
                    + GR**2 / (HR + reg_lambda)
                    - G**2 / (H + reg_lambda)
                )
                - gamma
            )
            if gain > 0.0 and (best is None or gain > best[0]):
                w_left = -GL / (HL + reg_lambda)
                w_right = -GR / (HR + reg_lambda)
                best = (gain, f, threshold, w_left, w_right)
    return best


def _reference_find_split(X, pos, g, h, allowed, params):
    """(gain, threshold, feature) of the best split of rows `pos` of X, one
    feature at a time: each allowed feature is argsorted (stably) within the
    node and scanned with 1-D prefix sums; a later feature replaces the best
    only on a strictly larger gain. `g` and `h` are aligned with `pos`."""
    m = pos.size
    min_rows, lam, min_hess = params.min_child_samples, params.reg_lambda, params.min_child_hessian
    if m < 2 * min_rows:
        return None
    best = None
    for f in allowed:
        x = X[pos, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        cg = np.cumsum(g[order])
        ch = np.cumsum(h[order])
        GL, HL, G, H = cg[:-1], ch[:-1], cg[-1], ch[-1]
        GR = G - GL
        HR = H - HL
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)) - params.gamma
        gains[~(xs[:-1] < xs[1:]) | (HL < min_hess) | (HR < min_hess) | ~np.isfinite(gains)] = -np.inf
        gains[: min_rows - 1] = gains[m - min_rows :] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] > 0.0 and (best is None or gains[i] > best[0]):
            best = (float(gains[i]), _split_threshold(float(xs[i]), float(xs[i + 1])), f)
    return best


def reference_grow(X, g, h, params, partition):
    """(tree, per-row leaf weights) grown like `interboost.boosting._grow`,
    but sorting every allowed feature again in every node and scanning the
    features one by one (`_reference_find_split`)."""
    records = []
    values = np.empty(X.shape[0])
    stack = [(np.arange(X.shape[0]), 0, tuple(range(X.shape[1])))]
    while stack:
        pos, depth, allowed = stack.pop()
        found = None
        if depth < params.max_depth:
            found = _reference_find_split(X, pos, g[pos], h[pos], allowed, params)
        if found is None:
            weight = leaf_weight(float(g[pos].sum()), float(h[pos].sum()), params.reg_lambda)
            records.append((-1, 0.0, weight))
            values[pos] = weight
            continue
        _, threshold, feature = found
        if partition is not None and depth == 0:
            allowed = tuple(sorted(partition.groups[partition.group_index_of(feature)]))
        records.append((feature, threshold, 0.0))
        goes_left = X[pos, feature] < threshold
        stack.append((pos[~goes_left], depth + 1, allowed))
        stack.append((pos[goes_left], depth + 1, allowed))
    return Tree(np.array(records, dtype=NODE)), values


def reference_children(tree):
    """(left, right): the child ids of every node of `tree`, -1 at a leaf,
    read recursively from its preorder node list, where a subtree is its
    root, then its left subtree, then its right one. Asserts that the list
    is exactly one tree."""
    feature = tree.nodes["feature"]
    left, right = np.full(len(feature), -1), np.full(len(feature), -1)

    def subtree_end(node_id):
        """Id of the node after the subtree whose root is `node_id`."""
        if feature[node_id] < 0:
            return node_id + 1
        left[node_id] = node_id + 1
        right[node_id] = subtree_end(node_id + 1)
        return subtree_end(right[node_id])

    assert subtree_end(0) == len(feature), "nodes run on after the tree is complete"
    return left, right


def reference_leaf_values(tree, X):
    """Leaf weight reached by each row of X in one tree: rows start at the
    root, node 0, and rows still on an internal node move one level down per
    step (left iff x < threshold)."""
    feature, threshold = tree.nodes["feature"], tree.nodes["threshold"]
    left, right = reference_children(tree)
    at = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        active = np.nonzero(feature[at] >= 0)[0]
        if active.size == 0:
            break
        node_ids = at[active]
        goes_left = X[active, feature[node_ids]] < threshold[node_ids]
        at[active] = np.where(goes_left, left[node_ids], right[node_ids])
    return tree.nodes["weight"][at]


def reference_stages(ens, X):
    """Raw predictions of the rows of X after 0, 1, ..., len(ens.trees)
    trees: the base score, then raw + learning_rate * leaf values, tree by
    tree in order."""
    raw = np.full(X.shape[0], ens.base_score)
    stages = [raw]
    for tree in ens.trees:
        raw = raw + ens.params.learning_rate * reference_leaf_values(tree, X)
        stages.append(raw)
    return stages


def reference_tune(ds, grid, k, seed):
    """`interboost.experiment.tune` without shared work: every (n_trees,
    max_depth, learning_rate) cell trains its own model per fold and scores
    it with `predict_matrix`; the first cell with the strictly best mean wins."""
    fold_rows = kfold(ds.n_rows, k, seed)
    best_score = -np.inf
    best_params = None
    for n_trees in grid.n_trees:
        for max_depth in grid.max_depth:
            for learning_rate in grid.learning_rate:
                params = TrainParams(n_trees, max_depth, learning_rate)
                scores = []
                for tr, va in fold_rows:
                    ens = train(ds, tr, params, NoConstraints())
                    prediction = predict_matrix(ens, ds.features[va.indices])
                    scores.append(score_for_task(ds.task, ds.target[va.indices], prediction))
                mean_score = float(np.mean(scores))
                if mean_score > best_score:
                    best_score = mean_score
                    best_params = params
    assert best_params is not None
    return best_params


def reference_benchmark(ds, cfg, dataset_name="dataset"):
    """`interboost.experiment.benchmark` without shared work: tuning by
    `reference_tune`, then each variant and each random run trains its own
    model from scratch, each `interaction_x` as its own `PerResidual(x)`
    run, as `benchmark` trains it."""
    train_ds, test_ds = train_test_split(ds, cfg.test_fraction, cfg.split_seed)
    tune_seed = mix_seed(cfg.split_seed, 1)
    params = reference_tune(train_ds, cfg.grid, cfg.k, tune_seed)
    partition = discover_constraints(train_ds, cfg.wrapper_cfg)

    def score(schedule):
        prediction = predict_matrix(train(train_ds, None, params, schedule), test_ds.features)
        return score_for_task(test_ds.task, test_ds.target, prediction)

    baseline = score(NoConstraints())

    def entry(name, constraint, test_score, **runs):
        change = None if baseline == 0.0 else (test_score - baseline) / abs(baseline) * 100.0
        return dict(variant=name, constraint=constraint, test_score=test_score,
                    percent_change_from_baseline=change, **runs)

    groups = [list(g) for g in partition.groups]
    variants = [
        entry("baseline", None, baseline),
        entry("full_interaction", {"partition": groups}, score(FixedPartition(partition))),
    ]
    for x in cfg.partial_x_list:
        constraint = {"first_x": x, "first_tree_partition": groups}
        variants.append(entry(f"interaction_{x}", constraint, score(PerResidual(x, cfg.wrapper_cfg, partition))))
    seeds = [mix_seed(cfg.split_seed, 2, i) for i in range(cfg.random_runs)]
    runs = []
    for seed in seeds:
        drawn = random_partition(train_ds.n_features, cfg.random_groups, seed)
        runs.append(dict(seed=seed, groups=[list(g) for g in drawn.groups], test_score=score(FixedPartition(drawn))))
    mean = float(np.mean([run["test_score"] for run in runs]))
    constraint = {"n_groups": cfg.random_groups, "n_runs": cfg.random_runs}
    variants.append(entry("random_interaction", constraint, mean, runs=runs))
    return {
        "dataset": dataset_name,
        "task": ds.task.value,
        "tuned_params": asdict(params),
        "seeds": {"split_seed": cfg.split_seed, "tune_seed": tune_seed,
                  "wrapper_seed": cfg.wrapper_cfg.seed, "random_seeds": seeds},
        "variants": variants,
    }


def reference_read_csv(path, columns=None):
    """`interboost.data.read_csv` one row and one cell at a time: the same
    names, matrix bytes and DataError messages."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            names = tuple(h.strip() for h in header)
            repeated = sorted(n for n, count in collections.Counter(names).items() if count > 1)
            if repeated:
                raise DataError(f"{path}: repeated header names {repeated}")
            if columns is None:
                positions = range(len(names))
            else:
                missing = [c for c in columns if c not in names]
                if missing:
                    raise DataError(f"{path}: columns {missing} not among headers {list(names)}")
                positions = [names.index(c) for c in columns]
            values: list[list[float]] = []
            for row_no, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and row[0].strip() == ""):
                    continue
                if len(row) != len(names):
                    raise DataError(
                        f"{path}: row {row_no} has {len(row)} cells, expected {len(names)}"
                    )
                parsed = []
                for pos in positions:
                    try:
                        value = float(row[pos])
                    except ValueError:
                        raise DataError(
                            f"{path}: cell {row[pos]!r} at row {row_no}, column {names[pos]!r} "
                            "is not a number"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: non-finite value at row {row_no}, column {names[pos]!r}"
                        )
                    parsed.append(value)
                values.append(parsed)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not values:
        raise DataError(f"{path}: no data rows")
    return names, np.asarray(values, dtype=np.float64)


def reference_sigmoid(z):
    """`interboost.linear.sigmoid` on the masked halves: 1 / (1 + exp(-z))
    where z >= 0, exp(z) / (1 + exp(z)) elsewhere (NaN included)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_materialize(ds, rows, features, scope, standardization=None):
    """The values `(n, q + 1)` of the design `(features, scope)` over the
    row indices `rows` (None: all rows), ones in the last column, and the
    standardization statistics that built them.

    With `standardization=None` each feature's (mean, sample stddev) is
    fitted on these rows; otherwise the supplied (train-fitted) statistics
    are applied."""
    idx = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot materialize a design over an empty row set")
    _check_design(ds.n_features, features, scope)
    stats = standardization
    if stats is None:
        stats = {f: _column_stats(ds.features[idx, f]) for f in features}
    std = {f: (ds.features[idx, f] - stats[f][0]) / stats[f][1] for f in features}
    products = itertools.combinations(sorted(scope), 2)
    columns = [std[f] for f in features] + [std[a] * std[b] for a, b in products]
    return np.column_stack(columns + [np.ones(idx.size)]), stats


def reference_fit_logistic(A, y):
    """`interboost.linear.fit_logistic` on one design `A` (n, q + 1), ones in
    its last column, with every quantity recomputed from theta where it is
    used, and the log-likelihood in its two-`logaddexp` form. Returns (theta,
    loglik path, accepted step sizes); the intercept is theta's last entry."""
    ridge, tol, max_iter = 1e-6, 1e-8, 100  # fit_logistic's constants

    def loglik(theta):
        z = A @ theta
        ll = -float(np.sum(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))
        return ll - 0.5 * ridge * float(np.sum(theta[:-1] ** 2))

    def grad(theta):
        g = A.T @ (y - sigmoid(A @ theta))
        g[:-1] -= ridge * theta[:-1]
        return g

    penalty = np.ones(A.shape[1])
    penalty[-1] = 0.0
    theta = np.zeros(A.shape[1])
    g = grad(theta)
    threshold = tol * (1.0 + float(np.max(np.abs(g))))
    path, steps = [loglik(theta)], []
    while float(np.max(np.abs(g))) > threshold and len(steps) < max_iter:
        p = sigmoid(A @ theta)
        H = (A * (p * (1.0 - p))[:, None]).T @ A
        H[np.diag_indices(A.shape[1])] += ridge * penalty
        try:
            direction = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(H, g, rcond=None)[0]
        if not np.all(np.isfinite(direction)):
            break
        for halvings in range(31):
            step = 0.5**halvings
            if loglik(theta + step * direction) >= path[-1]:
                break
        else:
            break
        theta = theta + step * direction
        path.append(loglik(theta))
        steps.append(step)
        g = grad(theta)
    return theta, path, steps


def pinv_least_squares(A, y, tol=1e-10):
    """Minimum-norm least squares by explicit SVD pseudo-inverse."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    inv = np.where(s > tol * s.max(), 1.0 / np.where(s == 0, 1.0, s), 0.0)
    return Vt.T @ (inv * (U.T @ y))


def central_difference_grad(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    grad = np.empty_like(x, dtype=np.float64)
    for i in range(x.size):
        bumped_up = x.copy()
        bumped_up[i] += step
        bumped_down = x.copy()
        bumped_down[i] -= step
        grad[i] = (fn(bumped_up) - fn(bumped_down)) / (2.0 * step)
    return grad


def tree_paths(tree):
    """Sets of split features along each root-to-leaf path."""
    paths = []
    feature = tree.nodes["feature"].tolist()
    left, right = reference_children(tree)

    def walk(node_id, features):
        if feature[node_id] < 0:
            paths.append(features)
            return
        walk(left[node_id], features | {feature[node_id]})
        walk(right[node_id], features | {feature[node_id]})

    walk(0, frozenset())
    return paths


def assert_paths_respect_partition(tree, partition):
    """Every root-to-leaf path's split features sit inside a single group."""
    for features in tree_paths(tree):
        if not features:
            continue
        holders = [gi for gi, group in enumerate(partition.groups) if features <= set(group)]
        assert holders, f"path features {sorted(features)} span groups {partition.groups}"
