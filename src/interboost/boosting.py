"""Second-order gradient boosted trees with interaction-constraint partitions.

Trees are grown by exact greedy search: in every node, each boundary
between distinct values of every allowed feature is scored with the
second-order gain
    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)) - gamma.
`train` sorts each feature once (`presort`) and every tree reuses that
order: a child's sorted block is a stable filter of its parent's, and one
2-D prefix-sum pass scores all allowed features of a node.
Routing is strictly "go left iff x[feature] < threshold" with thresholds at
midpoints of adjacent distinct values (or the upper value, when the
midpoint would not separate them); ties on gain break toward the lower
feature index, then the lower threshold, so training is bit-reproducible.

Constraint semantics: the root may split on any feature; once the root
splits on feature f under a partition, every split below is restricted to
f's group (`used_group`). A per-residual schedule re-runs partition
discovery against the current negative gradients for each of the first x
trees.

A tree has one layout, from growth through prediction to the model file:
its nodes in depth-first preorder, left subtree first, so node 0 is the
root. Neither memory nor the file holds child ids; `FlatTrees`, which
lays the trees out for prediction, works them out.

Training has no randomness, so the first t trees of a run depend only on
the schedule's first t rounds: `ens[:t]` is the model after t rounds, and
`train` can continue such a prefix of another run (`prefix=`).

Prediction walks every tree of an ensemble at once: the trees are laid out
once per `Ensemble` in one flat node table (`FlatTrees`), and each walk step
moves every (tree, row) cell one level down with a few numpy gathers. Rows
are walked in chunks of at most WALK_CELLS cells, so predict's temporary
memory grows with the rows, not with rows times trees.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
import numpy as np

from .data import DataError, Dataset, RowIndexSet, Task, take_rows
from .data import checked_feature_names, checked_int, checked_real, read_json, write_json
from .discovery import (
    ConstraintPartition,
    WrapperConfig,
    discover_constraints_for_residuals,
)
from .linear import raw_to_prediction, sigmoid


@dataclass(frozen=True)
class TrainParams:
    n_trees: int
    max_depth: int
    learning_rate: float
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_samples: int = 1
    min_child_hessian: float = 1e-6
    base_score: float | None = None  # None: mean target / log-odds of target mean

    def __post_init__(self):
        if checked_int("n_trees", self.n_trees) < 0:
            raise ValueError("n_trees must be >= 0")
        if checked_int("max_depth", self.max_depth) < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < checked_real("learning_rate", self.learning_rate) <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if checked_real("reg_lambda", self.reg_lambda) < 0 or checked_real("gamma", self.gamma) < 0:
            raise ValueError("reg_lambda and gamma must be >= 0")
        if checked_int("min_child_samples", self.min_child_samples) < 1:
            raise ValueError("min_child_samples must be >= 1")
        if checked_real("min_child_hessian", self.min_child_hessian) < 0:
            raise ValueError("min_child_hessian must be >= 0")
        if self.base_score is not None:
            checked_real("base_score", self.base_score)


NODE = np.dtype(
    [
        ("feature", np.int64),
        ("threshold", np.float64),
        ("weight", np.float64),
    ]
)


@dataclass(frozen=True, eq=False)
class Tree:
    """Binary regression tree: `nodes` is a read-only NODE structured array
    with one record per node id, in depth-first preorder with the left
    subtree first: node 0 is the root, and a split's left child is the next
    node and its right child the node after its left subtree.

    A leaf has feature -1, threshold 0.0 and its weight; a split has
    feature >= 0, its threshold and weight 0.0.
    """

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)  # so an ensemble's cached `FlatTrees` cannot go stale


@dataclass(frozen=True)
class NoConstraints:
    def for_round(self, tree_number: int, train_ds: Dataset, g: np.ndarray | None) -> None:
        return None


@dataclass(frozen=True)
class FixedPartition:
    partition: ConstraintPartition

    def for_round(self, tree_number: int, train_ds: Dataset, g: np.ndarray | None) -> ConstraintPartition:
        return self.partition


@dataclass(frozen=True)
class PerResidual:
    """Constrain the first `first_x` trees; tree 1 uses the original-target
    partition, trees 2..first_x each rediscover one from current residuals."""

    first_x: int
    wrapper_cfg: WrapperConfig
    first_tree_partition: ConstraintPartition

    def __post_init__(self):
        if checked_int("first_x", self.first_x) < 1:
            raise ValueError("first_x must be >= 1")

    def for_round(self, tree_number: int, train_ds: Dataset, g: np.ndarray | None) -> ConstraintPartition | None:
        if tree_number == 1:
            return self.first_tree_partition
        if tree_number <= self.first_x:
            return discover_constraints_for_residuals(train_ds, -g, self.wrapper_cfg)
        return None


# A schedule's `for_round(tree_number, train_ds, g)` is the partition of that
# round (None: unconstrained); `g` holds the round's gradients on `train_ds`,
# the training set, and round 1 never reads it.
ConstraintSchedule = NoConstraints | FixedPartition | PerResidual


WALK_CELLS = 2**16  # (tree, row) cells in one chunk of a prediction walk


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """Every tree of an ensemble in one read-only node table, with child ids.

    Tree t's nodes are numbered on from the end of tree t-1's, so `root[t]`
    is where its nodes start. A split's left child is the next node; its
    right child is the next node at the split's level (the sum of +1 per
    split and -1 per leaf over the nodes before), since the left subtree
    between them lies above it, so one sort by level, then id, finds them all.
    A leaf loops to itself (feature 0, left = right = its own id), so a walk
    step moves every cell without a mask and a cell on a leaf stays there."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray
    is_leaf: np.ndarray
    root: np.ndarray

    @classmethod
    def of(cls, trees: tuple[Tree, ...]) -> FlatTrees:
        nodes = np.concatenate([np.empty(0, dtype=NODE), *(tree.nodes for tree in trees)])
        sizes = np.array([len(tree.nodes) for tree in trees], dtype=np.int64)
        is_leaf = nodes["feature"] < 0
        own = np.arange(len(nodes))
        step = np.where(is_leaf, -1, 1)
        by_level = np.lexsort((own, np.cumsum(step) - step))  # by level, then node id
        after = np.empty_like(own)  # the next node at the same level, for all but the last (a leaf)
        after[by_level[:-1]] = by_level[1:]
        flat = cls(
            feature=np.where(is_leaf, 0, nodes["feature"]),
            threshold=np.ascontiguousarray(nodes["threshold"]),
            left=np.where(is_leaf, own, own + 1),
            right=np.where(is_leaf, own, after),
            weight=np.ascontiguousarray(nodes["weight"]),
            is_leaf=is_leaf,
            root=np.cumsum(sizes) - sizes,
        )
        for array in vars(flat).values():
            array.setflags(write=False)
        return flat


@dataclass(frozen=True, eq=False)
class Ensemble:
    trees: tuple[Tree, ...]
    params: TrainParams
    task: Task
    base_score: float
    feature_names: tuple[str, ...]
    constraint_log: tuple[ConstraintPartition | None, ...]

    @functools.cached_property
    def flat(self) -> FlatTrees:
        """The trees as one node table, built on first use."""
        return FlatTrees.of(self.trees)

    def __getitem__(self, index: slice) -> Ensemble:
        """The ensemble of `trees[index]` and their constraint-log entries;
        `ens[:t]` is the model after its first t rounds. Only slices are
        accepted, so an Ensemble is not a sequence of Ensembles."""
        if not isinstance(index, slice):
            raise TypeError(f"an Ensemble takes a slice of its trees, not {index!r}")
        return dataclasses.replace(self, trees=self.trees[index], constraint_log=self.constraint_log[index])


def grad_hess(task: Task, y: np.ndarray, raw_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first and second derivatives (g, h) of the loss at the raw
    predictions. Squared loss: g = raw - y, h = 1. Logistic: g = p - y,
    h = p(1-p)."""
    y = np.asarray(y, dtype=np.float64)
    raw_pred = np.asarray(raw_pred, dtype=np.float64)
    if y.shape != raw_pred.shape:
        raise ValueError("target and prediction lengths differ")
    if task is Task.REGRESSION:
        return raw_pred - y, np.ones_like(y)
    p = np.clip(sigmoid(raw_pred), 1e-15, 1.0 - 1e-15)
    return p - y, p * (1.0 - p)


def leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    denom = hess_sum + reg_lambda
    if denom <= 0.0:
        raise ValueError(f"leaf weight undefined: hessian sum + lambda = {denom}")
    return -grad_sum / denom


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature-major `(rows, xs)` of X, both shaped (features, rows): rows[f]
    lists the row ids in stable ascending order of feature f, and xs[f] the
    values of feature f in that order."""
    rows = np.argsort(X.T, axis=1, kind="stable")
    return rows, np.take_along_axis(X.T, rows, axis=1)


def _split_threshold(a: float, b: float) -> float:
    """A threshold t with a < t <= b, so "x < t" sends a left and b right:
    the midpoint, halved before adding when the sum overflows, or b when
    the midpoint rounds down to a (adjacent floats)."""
    t = (a + b) / 2.0
    if not math.isfinite(t):
        t = a / 2.0 + b / 2.0
    return t if t > a else b


def _find_split(xs, rows, g, h, allowed, params: TrainParams, gamma: float):
    """(gain, threshold, feature) of the best split of one node, or None.

    `rows` and `xs` are the node's presorted block: row k holds the node's
    row ids and values of feature allowed[k] (ascending), in stable
    ascending order of that feature. All features are scored in one 2-D
    pass; each feature's m-1 positions between adjacent rows get the gain
    from prefix sums of g and h in that feature's order. A position between
    equal values, leaving a child below min_child_samples or
    min_child_hessian, or with a non-finite gain (possible when reg_lambda
    and min_child_hessian are both zero) scores -inf. The first maximum in
    row-major order wins, so ties go to the lower feature index, then the
    lower threshold; a best gain that is not positive gives None. `gamma`
    stands for params.gamma in the units of g squared."""
    m = xs.shape[1]
    min_rows, lam, min_hess = params.min_child_samples, params.reg_lambda, params.min_child_hessian
    if m < 2 * min_rows:
        return None
    cg = np.cumsum(g[rows], axis=1)
    ch = np.cumsum(h[rows], axis=1)
    GL, HL, G, H = cg[:, :-1], ch[:, :-1], cg[:, -1:], ch[:, -1:]
    invalid = ~(xs[:, :-1] < xs[:, 1:]) | (HL < min_hess) | (H - HL < min_hess)
    # The gain expression of the module doc, term by term in its order of
    # operations; in place, so that few (features, rows) arrays are alive.
    with np.errstate(divide="ignore", invalid="ignore"):
        right = G - GL
        right *= right
        right /= H - HL + lam
        gains = GL * GL / (HL + lam)
        gains += right
        gains = 0.5 * (gains - G * G / (H + lam)) - gamma
    gains[invalid | ~np.isfinite(gains)] = -np.inf
    gains[:, : min_rows - 1] = gains[:, m - min_rows :] = -np.inf  # a child below min_child_samples
    k, i = divmod(int(np.argmax(gains)), m - 1)
    if not gains[k, i] > 0.0:
        return None
    return float(gains[k, i]), _split_threshold(float(xs[k, i]), float(xs[k, i + 1])), allowed[k]


def _grow(
    X, g, h, presorted: tuple[np.ndarray, np.ndarray], params: TrainParams, partition: ConstraintPartition | None
) -> tuple[Tree, np.ndarray]:
    """Exact greedy growth of one tree on the gradients `g` and hessians `h`
    of the rows of X (see module doc for constraint rules); also returns
    each row's leaf weight. `presorted` is `presort(X)`, the root's block.
    A child's block is a stable boolean filter of its parent's, which keeps
    each feature sorted with ties in row order, so no node sorts. Nodes are
    recorded in depth-first preorder: the stack pushes a node's right child
    before its left one.

    Splits are scored on ldexp(g, -e), its largest |g| in [0.5, 1), against
    ldexp(gamma, -2e), so squared sums of g neither overflow nor sink into
    the subnormals. A power-of-two scale is exact: the gains scale by
    2^-2e, the splits stay those of g, and leaf weights come from g. A
    gradient that is not finite is a DataError."""
    largest = float(np.max(np.abs(g)))
    if not math.isfinite(largest):
        raise DataError("a gradient is not finite: the targets are too large")
    e = math.frexp(largest)[1]
    with np.errstate(over="ignore"):  # a gamma past the largest float allows no split
        scan_g, gamma = np.ldexp(g, -e), np.ldexp(params.gamma, -2 * e)
    n = X.shape[0]
    records: list[tuple] = []
    values = np.empty(n)
    in_left = np.zeros(n, dtype=bool)  # valid on the rows of the node being split
    # (row ids ascending, block rows, block values (None at max_depth), depth, allowed features)
    stack = [(np.arange(n), *presorted, 0, tuple(range(X.shape[1])))]
    while stack:
        pos, rows, xs, depth, allowed = stack.pop()
        found = None
        if depth < params.max_depth:
            found = _find_split(xs, rows, scan_g, h, allowed, params, gamma)
        if found is None:
            with np.errstate(over="ignore"):  # `train` refuses a weight that is not finite
                weight = leaf_weight(float(g[pos].sum()), float(h[pos].sum()), params.reg_lambda)
            records.append((-1, 0.0, weight))
            values[pos] = weight
            continue
        _, threshold, feature = found
        if partition is not None and depth == 0:
            # ascending order keeps the lower-feature-index tie-break exact
            allowed = tuple(sorted(partition.groups[partition.group_index_of(feature)]))
            rows, xs = rows[list(allowed)], xs[list(allowed)]
        records.append((feature, threshold, 0.0))
        goes_left = X[pos, feature] < threshold
        blocks = [(None, None), (None, None)]  # children at max_depth become leaves: no block
        if depth + 1 < params.max_depth:
            in_left[pos] = goes_left
            block_left = in_left[rows].ravel()
            k = rows.shape[0]
            blocks = [  # a stable filter: every block row stays sorted
                (rows.take(at).reshape(k, -1), xs.take(at).reshape(k, -1))
                for at in (np.flatnonzero(~block_left), np.flatnonzero(block_left))
            ]
        for picked, block in zip((~goes_left, goes_left), blocks):
            stack.append((pos[picked], *block, depth + 1, allowed))
    return Tree(np.array(records, dtype=NODE)), values


def used_group(tree: Tree, partition: ConstraintPartition | None) -> int | None:
    """The group of `partition` that holds every split of `tree`: None when
    the partition is None or the root is a leaf, else the root feature's."""
    root_feature = int(tree.nodes[0]["feature"])
    return None if partition is None or root_feature < 0 else partition.group_index_of(root_feature)


def default_base_score(task: Task, y: np.ndarray) -> float:
    """Mean target for regression; log-odds of the clamped target mean otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):  # `train` rejects a mean that is not finite
        mean = float(np.mean(y))
    if task is Task.REGRESSION:
        return mean
    p = min(max(mean, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


def _check_prefix(prefix: Ensemble, ds: Dataset, params: TrainParams, base: float) -> None:
    """Raise ValueError unless `train` on `ds` with `params` can continue `prefix`."""
    ours = (ds.task, ds.feature_names, params.learning_rate, base)
    if (prefix.task, prefix.feature_names, prefix.params.learning_rate, prefix.base_score) != ours:
        raise ValueError("prefix does not fit this training run: task, feature names, learning_rate or base score differ")
    if len(prefix.trees) > params.n_trees:
        raise ValueError(f"prefix has {len(prefix.trees)} trees, more than n_trees={params.n_trees}")


def train(
    ds: Dataset,
    rows: RowIndexSet | None,
    params: TrainParams,
    schedule: ConstraintSchedule = NoConstraints(),
    prefix: Ensemble | None = None,
) -> Ensemble:
    """Boost `params.n_trees` trees under the given constraint schedule.

    Each round fits a tree to the current gradients/hessians and adds
    learning_rate times its leaf outputs to the raw predictions. The
    partition applied to each tree is recorded in the constraint log.

    With `prefix`, the run keeps the prefix's trees and constraint log as
    its first rounds and boosts rounds len(prefix.trees)+1 .. n_trees under
    `schedule`. Prediction routes the training rows exactly as growing
    them did, so the raw predictions rebuilt from the prefix equal those of
    the run that grew it. A prefix of another task, other feature names,
    learning rate or base score, or with more than n_trees trees, is a
    ValueError.

    `rows` picks the training rows of `ds`; None trains on all of them.
    An index past the end is a DataError, and so is an empty row set.
    """
    if rows is not None:
        if len(rows) and rows.indices[-1] >= ds.n_rows:
            raise DataError(f"row index {int(rows.indices[-1])} out of range for {ds.n_rows} rows")
        ds = take_rows(ds, rows.indices)
    first = schedule.for_round(1, ds, None)
    if first is not None:
        first.validate_for(ds.n_features)
    X, y = ds.features, ds.target
    base = params.base_score if params.base_score is not None else default_base_score(ds.task, y)
    if not math.isfinite(base):
        raise DataError(f"base score {base} is not finite: the targets are too large")
    if prefix is None:
        prefix = Ensemble((), params, ds.task, float(base), ds.feature_names, ())
    else:
        _check_prefix(prefix, ds, params, float(base))
    raw = predict_raw_matrix(prefix, X)
    presorted = presort(X)
    trees = list(prefix.trees)
    log = list(prefix.constraint_log)
    for tree_number in range(len(trees) + 1, params.n_trees + 1):
        g, h = grad_hess(ds.task, y, raw)
        partition = schedule.for_round(tree_number, ds, g)
        tree, contribution = _grow(X, g, h, presorted, params, partition)
        if not np.all(np.isfinite(contribution)):
            raise DataError(f"tree {tree_number} has a leaf weight that is not finite: the targets are too large")
        raw = raw + params.learning_rate * contribution
        trees.append(tree)
        log.append(partition)
    return dataclasses.replace(prefix, params=params, trees=tuple(trees), constraint_log=tuple(log))


def _checked_features(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(ens.feature_names):
        raise DataError(f"feature count mismatch: model expects {len(ens.feature_names)}, got {X.shape}")
    return X


def _leaf_weights(ens: Ensemble, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, weights) for consecutive chunks of the rows of X, where
    weights[t, i] is the leaf weight that row i of the chunk reaches in
    tree t. Every (tree, row) cell starts at its tree's root; each step
    sends every cell left where x[feature] < threshold and right otherwise
    (NaN goes right), until all cells stand on leaves. A chunk has at most
    WALK_CELLS cells (one row, when there are more trees than that)."""
    flat = ens.flat
    n_rows, n_features = X.shape
    chunk = max(1, WALK_CELLS // max(1, len(flat.root)))
    for start in range(0, n_rows, chunk):
        rows = slice(start, min(start + chunk, n_rows))
        cells = np.ascontiguousarray(X[rows]).ravel()
        row_start = np.arange(rows.stop - start) * n_features
        at = np.repeat(flat.root[:, None], rows.stop - start, axis=1)
        while not flat.is_leaf[at].all():
            x = cells[row_start + flat.feature[at]]
            at = np.where(x < flat.threshold[at], flat.left[at], flat.right[at])
        yield rows, flat.weight[at]


def predict_raw_matrix(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    """Raw predictions of the rows of X: the base score, then
    raw = raw + learning_rate * weights[t] for each tree t in order, one row
    chunk at a time. `train` sums its rounds the same way, so the prediction
    of `ens[:t]` is the raw sum after its round t bit for bit."""
    X = _checked_features(ens, X)
    raw = np.full(X.shape[0], ens.base_score)
    for rows, chunk_weights in _leaf_weights(ens, X):
        chunk_raw = raw[rows]  # a view: adding to it adds to raw
        for tree_terms in ens.params.learning_rate * chunk_weights:
            chunk_raw += tree_terms
    return raw


def predict_matrix(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    return raw_to_prediction(ens.task, predict_raw_matrix(ens, X))


def predict(ens: Ensemble, ds: Dataset) -> np.ndarray:
    """Raw sum for regression; sigmoid of the raw sum for classification."""
    return predict_matrix(ens, ds.features)


# --- JSON serialization (schema documented in the README) -------------------


def _node_to_obj(node: tuple) -> dict:
    feature, threshold, weight = node
    return {"leaf": weight} if feature < 0 else {"feature": feature, "threshold": threshold}


def _list(obj: dict, key: str) -> list:
    if not isinstance(obj[key], list):
        raise DataError(f"{key} must be a list, got {type(obj[key]).__name__}")
    return obj[key]


def _only(obj: dict, keys: tuple[str, ...], what: str) -> dict:
    """`obj`, refused when it holds a key other than `keys`."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise DataError(f"unknown {what} key {unknown[0]!r}; a {what} holds {', '.join(keys)}")
    return obj


def _tree_from_obj(obj: dict, n_features: int, partition: ConstraintPartition | None) -> Tree:
    """Parse one tree from its node list in `_grow`'s preorder, checking
    that the list is exactly one complete tree: each node fills the slot of
    the latest split still waiting for a child (the root's slot first), so
    a node after the tree is complete, or an end while a split still waits,
    is refused. A node holds exactly `leaf`, or exactly `feature` (in
    [0, n_features)) and `threshold`, all finite, and every split lies in
    `used_group(tree, partition)`. Each error names the node."""
    records: list[tuple] = []
    waiting = [-1]  # ids of the splits still waiting for a child, one entry per child; -1 for the root
    for node_id, node in enumerate(_list(_only(obj, ("nodes",), "tree"), "nodes")):
        if not waiting:
            raise DataError(f"node {node_id} comes after the tree is complete")
        waiting.pop()
        keys = sorted(node) if isinstance(node, dict) else type(node).__name__
        if keys not in (["leaf"], ["feature", "threshold"]):
            raise DataError(f"node {node_id} holds {keys}: a node holds exactly leaf, or exactly feature and threshold")
        try:
            if keys == ["leaf"]:
                records.append((-1, 0.0, checked_real("leaf weight", node["leaf"])))
                continue
            feature = checked_int("feature", node["feature"])
            records.append((feature, checked_real("threshold", node["threshold"]), 0.0))
        except (TypeError, ValueError) as exc:
            raise DataError(f"node {node_id}: {exc}") from exc
        if not 0 <= feature < n_features:
            raise DataError(f"node {node_id}: feature {feature} out of range for {n_features} features")
        waiting += [node_id, node_id]
    if not records:
        raise DataError("nodes is empty: a tree has at least its root")
    if waiting:
        raise DataError(f"nodes end while node {waiting[-1]} waits for a child")
    tree = Tree(np.array(records, dtype=NODE))
    group = used_group(tree, partition)
    for node_id, feature in enumerate(tree.nodes["feature"].tolist()):
        if group is not None and feature >= 0 and partition.group_index_of(feature) != group:
            raise DataError(f"node {node_id} splits on feature {feature}, outside the root's group {group}")
    return tree


def ensemble_to_json_obj(ens: Ensemble) -> dict:
    return {
        "task": ens.task.value,
        "params": dataclasses.asdict(ens.params),
        "base_score": ens.base_score,
        "feature_names": list(ens.feature_names),
        "trees": [{"nodes": [_node_to_obj(n) for n in tree.nodes.tolist()]} for tree in ens.trees],
        "constraint_log": [
            None if p is None else p.to_json_obj() for p in ens.constraint_log
        ],
    }


def ensemble_from_json_obj(obj: dict) -> Ensemble:
    """Parse and validate a model document; every defect is a DataError."""
    try:
        params = TrainParams(**obj["params"])
        _only(obj, ("task", "params", "base_score", "feature_names", "trees", "constraint_log"), "model")
        n_features = len(_list(obj, "feature_names"))
        names = checked_feature_names(obj["feature_names"], n_features)
        log = tuple(
            None if p is None else ConstraintPartition.from_json_obj(p, n_features)
            for p in _list(obj, "constraint_log")
        )
        tree_objs = _list(obj, "trees")
        if len(log) != len(tree_objs):
            raise DataError(f"constraint_log has {len(log)} entries for {len(tree_objs)} trees")
        trees = []
        for i, (t, partition) in enumerate(zip(tree_objs, log)):
            try:
                trees.append(_tree_from_obj(t, n_features, partition))
            except (TypeError, ValueError) as exc:
                raise DataError(f"tree {i}: {exc}") from exc
        return Ensemble(
            trees=tuple(trees),
            params=params,
            task=Task.parse(obj["task"]),
            base_score=float(checked_real("base_score", obj["base_score"])),
            feature_names=names,
            constraint_log=log,
        )
    except DataError as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model document: {type(exc).__name__}: {exc}") from exc


def save_model(ens: Ensemble, path) -> None:
    write_json(path, ensemble_to_json_obj(ens))


def load_model(path) -> Ensemble:
    return ensemble_from_json_obj(read_json(path, DataError))
