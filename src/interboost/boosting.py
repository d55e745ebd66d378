"""Second-order gradient boosted trees with interaction-constraint partitions.

Trees are grown by exact greedy search: in every node, each boundary
between distinct values of every allowed feature is scored with the
second-order gain
    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)) - gamma.
`train` sorts each feature once (`presort`) and every tree reuses that
order: a child's sorted block is a stable filter of its parent's, and a
node's allowed features are scored by 2-D prefix-sum passes over slices of
at most SCAN_CELLS block cells (one pass for all but the largest nodes).
g and h are prefix-summed together, as the real and imaginary parts of one
complex128 array: a complex add adds the two parts separately, so each part
has the bits of its own real prefix sum.
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
the schedule's first t rounds: `ens[:t]` is the model after t rounds.

Prediction walks every tree of an ensemble at once: the trees are laid out
once per `Ensemble` in one flat slot table (`FlatTrees`), and each of the
deepest tree's `depth` walk steps moves every (tree, row) cell one level
down with one slot lookup; a cell that reaches a leaf early loops on it.
Rows are walked in chunks of at most WALK_CELLS cells, so predict's
temporary memory grows with the rows, not with rows times trees.
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
SCAN_CELLS = 2**15  # (feature, row) cells in one slice of a node's split scan


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """Every tree of an ensemble in one read-only slot table.

    Tree t's nodes are numbered on from the end of tree t-1's; node i owns
    slots 2i and 2i+1, both holding its feature, threshold and weight, and
    `root[t]` is tree t's root slot. `child[2i]` is the first slot of i's
    right child and `child[2i+1]` that of its left one, so a walk step from
    slot s is `child[s + (x[feature[s]] < threshold[s])]`. A leaf has
    feature 0 and both slots point back to 2i, so a cell on a leaf stays
    there. `depth` is the deepest leaf's depth (0 without splits): the steps
    that bring every cell to its leaf.

    A split's left child is the next node; its right child is the next node
    at the split's level (the sum of +1 per split and -1 per leaf over the
    nodes before), since the left subtree between them lies above it, so
    one sort by level, then id, finds them all."""

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    weight: np.ndarray
    root: np.ndarray
    depth: int

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
        left = np.where(is_leaf, own, own + 1)
        right = np.where(is_leaf, own, after)
        root = np.cumsum(sizes) - sizes
        depth, splits = 0, root[~is_leaf[root]]
        while splits.size:
            depth += 1
            below = np.concatenate((left[splits], right[splits]))
            splits = below[~is_leaf[below]]
        flat = cls(
            feature=np.repeat(np.where(is_leaf, 0, nodes["feature"]), 2),
            threshold=np.repeat(nodes["threshold"], 2),
            child=2 * np.column_stack((right, left)).ravel(),
            weight=np.repeat(nodes["weight"], 2),
            root=2 * root,
            depth=depth,
        )
        for name, array in vars(flat).items():
            if name != "depth":
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
        """The ensemble of `trees[index]` and their constraint-log entries,
        with `params.n_trees` their count; `ens[:t]` is the model that
        training t trees gives. Only slices are accepted, so an Ensemble is
        not a sequence of Ensembles."""
        if not isinstance(index, slice):
            raise TypeError(f"an Ensemble takes a slice of its trees, not {index!r}")
        trees = self.trees[index]
        params = dataclasses.replace(self.params, n_trees=len(trees))
        return dataclasses.replace(self, trees=trees, params=params, constraint_log=self.constraint_log[index])


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


def _packed(g, h):
    """One complex128 array with real part g and imaginary part h, each
    with the bits of its input (`g + 1j * h` would turn -0.0 into +0.0)."""
    gh = np.empty(len(g), np.complex128)
    gh.real, gh.imag = g, h
    return gh


def _find_split(xs, rows, gh, allowed, params: TrainParams, gamma: float):
    """(gain, threshold, feature) of the best split of one node, or None.

    `rows` and `xs` are the node's presorted block: row k holds the node's
    row ids and values of feature allowed[k] (ascending), in stable
    ascending order of that feature. `gh` holds each row's g as the real
    part and its h as the imaginary part of one complex128. The block is
    scored in slices of max(1, SCAN_CELLS // m) features, one 2-D pass
    each, so a large node's temporaries stay cache-sized; each feature's
    m-1 positions between adjacent rows get the gain from prefix sums of g
    and h in that feature's order. One complex prefix sum gives both: a
    complex add adds the real parts and the imaginary parts separately, so
    each part has the bits of the real prefix sum of g or h. A position
    between equal values, leaving a child below min_child_samples or
    min_child_hessian, or with a non-finite gain (possible when reg_lambda
    and min_child_hessian are both zero) scores -inf. A slice's first
    maximum in row-major order replaces the best of the slices before only
    when it is strictly greater, so ties go to the lower feature index,
    then the lower threshold; a best gain that is not positive gives None.
    `gamma` stands for params.gamma in the units of g squared."""
    m = xs.shape[1]
    min_rows, lam, min_hess = params.min_child_samples, params.reg_lambda, params.min_child_hessian
    if m < 2 * min_rows:
        return None
    step = max(1, SCAN_CELLS // m)
    best_gain, best = 0.0, None
    for lo in range(0, xs.shape[0], step):
        part = slice(lo, lo + step)
        c = np.cumsum(gh[rows[part]], axis=1)
        G, H = c.real[:, -1:], c.imag[:, -1:]
        GL, HL = c.real[:, :-1].copy(), c.imag[:, :-1].copy()  # contiguous: strided views are slow
        HR = H - HL
        invalid = xs[part, :-1] == xs[part, 1:]  # a tie: block rows are sorted and hold no NaN
        invalid |= HL < min_hess
        invalid |= HR < min_hess
        # The gain expression of the module doc, term by term in its order of
        # operations; in place, so that few (features, rows) arrays are alive.
        with np.errstate(divide="ignore", invalid="ignore"):
            right = G - GL
            right *= right
            HR += lam
            right /= HR
            gains = GL
            gains *= gains
            HL += lam
            gains /= HL
            gains += right
            gains -= G * G / (H + lam)
            gains *= 0.5
            gains -= gamma
        invalid |= ~np.isfinite(gains)
        np.copyto(gains, -np.inf, where=invalid)
        gains[:, : min_rows - 1] = gains[:, m - min_rows :] = -np.inf  # a child below min_child_samples
        k, i = divmod(int(np.argmax(gains)), m - 1)
        if gains[k, i] > best_gain:
            best_gain, best = float(gains[k, i]), (lo + k, i)
    if best is None:
        return None
    k, i = best
    return best_gain, _split_threshold(float(xs[k, i]), float(xs[k, i + 1])), allowed[k]


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
    gh = _packed(scan_g, h)
    records: list[tuple] = []
    values = np.empty(n)
    in_left = np.zeros(n, dtype=bool)  # valid on the rows of the node being split
    # (row ids ascending, block rows, block values (None at max_depth), depth, allowed features)
    stack = [(np.arange(n), *presorted, 0, tuple(range(X.shape[1])))]
    while stack:
        pos, rows, xs, depth, allowed = stack.pop()
        found = None
        if depth < params.max_depth:
            found = _find_split(xs, rows, gh, allowed, params, gamma)
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


def train(
    ds: Dataset,
    rows: RowIndexSet | None,
    params: TrainParams,
    schedule: ConstraintSchedule = NoConstraints(),
) -> Ensemble:
    """Boost `params.n_trees` trees under the given constraint schedule.

    Each round fits a tree to the current gradients/hessians and adds
    learning_rate times its leaf outputs to the raw predictions. The
    partition applied to each tree is recorded in the constraint log.

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
    base = float(params.base_score) if params.base_score is not None else default_base_score(ds.task, y)
    if not math.isfinite(base):
        raise DataError(f"base score {base} is not finite: the targets are too large")
    raw = np.full(ds.n_rows, base)
    presorted = presort(X)
    trees, log = [], []
    for tree_number in range(1, params.n_trees + 1):
        g, h = grad_hess(ds.task, y, raw)
        partition = schedule.for_round(tree_number, ds, g)
        tree, contribution = _grow(X, g, h, presorted, params, partition)
        if not np.all(np.isfinite(contribution)):
            raise DataError(f"tree {tree_number} has a leaf weight that is not finite: the targets are too large")
        raw = raw + params.learning_rate * contribution
        trees.append(tree)
        log.append(partition)
    return Ensemble(tuple(trees), params, ds.task, base, ds.feature_names, tuple(log))


def _checked_features(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(ens.feature_names):
        raise DataError(f"feature count mismatch: model expects {len(ens.feature_names)}, got {X.shape}")
    return X


def _leaf_weights(ens: Ensemble, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, weights) for consecutive chunks of the rows of X, where
    weights[t, i] is the leaf weight that row i of the chunk reaches in
    tree t. Every (tree, row) cell starts at its tree's root slot; each of
    `flat.depth` steps sends every cell left where x[feature] < threshold
    and right otherwise (NaN goes right). A chunk has at most WALK_CELLS
    cells (one row, when there are more trees than that)."""
    flat = ens.flat
    n_rows, n_features = X.shape
    chunk = max(1, WALK_CELLS // max(1, len(flat.root)))
    for start in range(0, n_rows, chunk):
        rows = slice(start, min(start + chunk, n_rows))
        cells = np.ascontiguousarray(X[rows]).ravel()
        row_start = np.arange(rows.stop - start) * n_features
        at = np.repeat(flat.root[:, None], rows.stop - start, axis=1)
        for _ in range(flat.depth):
            at = flat.child[at + (cells[row_start + flat.feature[at]] < flat.threshold[at])]
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
        # tree by tree: np.add.reduce would sum a one-row chunk pairwise, in another order
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


def _tree_from_obj(obj: dict, n_features: int, max_depth: int, partition: ConstraintPartition | None) -> Tree:
    """Parse one tree from its node list in `_grow`'s preorder, checking
    that the list is exactly one complete tree: each node fills the slot of
    the latest split still waiting for a child (the root's slot first), so
    a node after the tree is complete, or an end while a split still waits,
    is refused. No node lies deeper than `max_depth` (the root at depth 0),
    so predict's walk takes at most `max_depth` steps. A node holds exactly
    `leaf`, or exactly `feature` (in [0, n_features)) and `threshold`, all
    finite, and every split lies in `used_group(tree, partition)`. Each
    error names the node."""
    records: list[tuple] = []
    waiting = [(-1, 0)]  # (split id, child depth) per child still to come; -1 for the root
    for node_id, node in enumerate(_list(_only(obj, ("nodes",), "tree"), "nodes")):
        if not waiting:
            raise DataError(f"node {node_id} comes after the tree is complete")
        _, depth = waiting.pop()
        if depth > max_depth:
            raise DataError(f"node {node_id} lies at depth {depth}, deeper than max_depth={max_depth}")
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
        waiting += [(node_id, depth + 1)] * 2
    if not records:
        raise DataError("nodes is empty: a tree has at least its root")
    if waiting:
        raise DataError(f"nodes end while node {waiting[-1][0]} waits for a child")
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
        if len(tree_objs) != params.n_trees:
            raise DataError(f"trees holds {len(tree_objs)} trees, but n_trees={params.n_trees}")
        if len(log) != len(tree_objs):
            raise DataError(f"constraint_log has {len(log)} entries for {len(tree_objs)} trees")
        trees = []
        for i, (t, partition) in enumerate(zip(tree_objs, log)):
            try:
                trees.append(_tree_from_obj(t, n_features, params.max_depth, partition))
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
