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
f's group. A per-residual schedule re-runs partition discovery against the
current negative gradients for each of the first x trees.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
import numpy as np

from .data import DataError, Dataset, RowIndexSet, Task, resolve_rows
from .data import checked_int, checked_real, read_json, write_json
from .discovery import (
    ConstraintPartition,
    WrapperConfig,
    discover_constraints_for_residuals,
)
from .linear import sigmoid


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
    seed: int = 0

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
        checked_int("seed", self.seed)

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


NODE = np.dtype(
    [
        ("feature", np.int64),
        ("threshold", np.float64),
        ("left", np.int64),
        ("right", np.int64),
        ("weight", np.float64),
    ]
)


@dataclass(frozen=True, eq=False)
class Tree:
    """Binary regression tree addressed by node id; node 0 is the root.

    `nodes` is a NODE structured array with one record per node id. A leaf
    has feature -1, children -1, threshold 0.0 and its weight; an internal
    node has feature >= 0, its threshold and child ids, and weight 0.0.
    """

    nodes: np.ndarray
    root: int = 0
    used_group: int | None = None

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight reached by each row of X (vectorized level-walk)."""
        feature, threshold = self.nodes["feature"], self.nodes["threshold"]
        left, right = self.nodes["left"], self.nodes["right"]
        at = np.full(X.shape[0], self.root, dtype=np.int64)
        while True:
            active = np.nonzero(feature[at] >= 0)[0]
            if active.size == 0:
                break
            node_ids = at[active]
            goes_left = X[active, feature[node_ids]] < threshold[node_ids]
            at[active] = np.where(goes_left, left[node_ids], right[node_ids])
        return self.nodes["weight"][at]


@dataclass(frozen=True)
class NoConstraints:
    pass


@dataclass(frozen=True)
class FixedPartition:
    partition: ConstraintPartition


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


ConstraintSchedule = NoConstraints | FixedPartition | PerResidual


@dataclass(frozen=True, eq=False)
class Ensemble:
    trees: tuple[Tree, ...]
    params: TrainParams
    task: Task
    base_score: float
    n_features: int
    feature_names: tuple[str, ...]
    constraint_log: tuple[ConstraintPartition | None, ...]


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


def split_gain(
    left_grad: float,
    left_hess: float,
    right_grad: float,
    right_hess: float,
    reg_lambda: float,
    gamma: float,
) -> float:
    total_grad = left_grad + right_grad
    total_hess = left_hess + right_hess
    return 0.5 * (
        left_grad**2 / (left_hess + reg_lambda)
        + right_grad**2 / (right_hess + reg_lambda)
        - total_grad**2 / (total_hess + reg_lambda)
    ) - gamma


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


def _find_split(xs, rows, g, h, allowed, params: TrainParams):
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
    lower threshold; a best gain that is not positive gives None."""
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
        gains = 0.5 * (gains - G * G / (H + lam)) - params.gamma
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
    each feature sorted with ties in row order, so no node sorts. Node ids
    are in depth-first preorder: the stack pushes a node's right child
    before its left one, and each popped child writes its id into its
    parent's record."""
    n = X.shape[0]
    records: list[list] = []
    values = np.empty(n)
    in_left = np.zeros(n, dtype=bool)  # valid on the rows of the node being split
    used_group = None
    # (row ids ascending, block rows, block values, depth, allowed features,
    #  parent id, parent's field for this child: 2 left, 3 right)
    stack = [(np.arange(n), *presorted, 0, tuple(range(X.shape[1])), -1, 0)]
    while stack:
        pos, rows, xs, depth, allowed, parent, side = stack.pop()
        node_id = len(records)
        if parent >= 0:
            records[parent][side] = node_id
        found = None
        if depth < params.max_depth:
            found = _find_split(xs, rows, g, h, allowed, params)
        if found is None:
            weight = leaf_weight(float(g[pos].sum()), float(h[pos].sum()), params.reg_lambda)
            records.append([-1, 0.0, -1, -1, weight])
            values[pos] = weight
            continue
        _, threshold, feature = found
        if partition is not None and depth == 0:
            used_group = partition.group_index_of(feature)
            # ascending order keeps the lower-feature-index tie-break exact
            allowed = tuple(sorted(partition.groups[used_group]))
            rows, xs = rows[list(allowed)], xs[list(allowed)]
        records.append([feature, threshold, -1, -1, 0.0])
        goes_left = X[pos, feature] < threshold
        in_left[pos] = goes_left
        block_left = in_left[rows].ravel()
        k = rows.shape[0]
        for side, picked, in_block in ((3, ~goes_left, ~block_left), (2, goes_left, block_left)):
            at = np.flatnonzero(in_block)  # a stable filter: every block row stays sorted
            child_rows, child_xs = rows.take(at).reshape(k, -1), xs.take(at).reshape(k, -1)
            stack.append((pos[picked], child_rows, child_xs, depth + 1, allowed, node_id, side))
    return Tree(np.array([tuple(r) for r in records], dtype=NODE), 0, used_group), values


def default_base_score(task: Task, y: np.ndarray) -> float:
    """Mean target for regression; log-odds of the clamped target mean otherwise."""
    if task is Task.REGRESSION:
        return float(np.mean(y))
    p = min(max(float(np.mean(y)), 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


def _partition_for_round(
    schedule: ConstraintSchedule,
    tree_number: int,
    ds: Dataset,
    rows: RowIndexSet,
    g: np.ndarray,
) -> ConstraintPartition | None:
    if isinstance(schedule, NoConstraints):
        return None
    if isinstance(schedule, FixedPartition):
        return schedule.partition
    if tree_number == 1:
        return schedule.first_tree_partition
    if tree_number <= schedule.first_x:
        return discover_constraints_for_residuals(ds, rows, -g, schedule.wrapper_cfg)
    return None


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
    """
    rows = resolve_rows(ds, rows)
    if len(rows) == 0:
        raise ValueError("training requires a nonempty row set")
    if isinstance(schedule, FixedPartition):
        schedule.partition.validate_for(ds.n_features)
    elif isinstance(schedule, PerResidual):
        schedule.first_tree_partition.validate_for(ds.n_features)
    X = ds.features[rows.indices]
    y = ds.target[rows.indices]
    base = params.base_score if params.base_score is not None else default_base_score(ds.task, y)
    if not math.isfinite(base):
        raise DataError(f"base score {base} is not finite: the targets are too large")
    raw = np.full(len(rows), base)
    presorted = presort(X)
    trees: list[Tree] = []
    log: list[ConstraintPartition | None] = []
    for tree_number in range(1, params.n_trees + 1):
        g, h = grad_hess(ds.task, y, raw)
        partition = _partition_for_round(schedule, tree_number, ds, rows, g)
        tree, contribution = _grow(X, g, h, presorted, params, partition)
        if not np.all(np.isfinite(contribution)):
            raise DataError(f"tree {tree_number} has a leaf weight that is not finite: the targets are too large")
        raw = raw + params.learning_rate * contribution
        trees.append(tree)
        log.append(partition)
    return Ensemble(
        trees=tuple(trees),
        params=params,
        task=ds.task,
        base_score=float(base),
        n_features=ds.n_features,
        feature_names=ds.feature_names,
        constraint_log=tuple(log),
    )


def predict_raw_matrix(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ens.n_features:
        raise DataError(
            f"feature count mismatch: model expects {ens.n_features}, got {X.shape}"
        )
    raw = np.full(X.shape[0], ens.base_score)
    for tree in ens.trees:
        raw = raw + ens.params.learning_rate * tree.leaf_values(X)
    return raw


def predict_matrix(ens: Ensemble, X: np.ndarray) -> np.ndarray:
    raw = predict_raw_matrix(ens, X)
    if ens.task is Task.REGRESSION:
        return raw
    return sigmoid(raw)


def predict(ens: Ensemble, ds: Dataset, rows: RowIndexSet | None = None) -> np.ndarray:
    """Raw sum for regression; sigmoid of the raw sum for classification."""
    rows = resolve_rows(ds, rows)
    return predict_matrix(ens, ds.features[rows.indices, :])


# --- JSON serialization (schema documented in the README) -------------------


def _node_to_obj(node: tuple) -> dict:
    feature, threshold, left, right, weight = node
    if feature < 0:
        return {"leaf": weight}
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


def _node_from_obj(obj: dict, n_nodes: int, n_features: int) -> tuple:
    if "leaf" in obj:
        return (-1, 0.0, -1, -1, checked_real("leaf weight", obj["leaf"]))
    feature = checked_int("feature", obj["feature"])
    if not 0 <= feature < n_features:
        raise DataError(f"feature {feature} out of range for {n_features} features")
    children = []
    for key in ("left", "right"):
        child = checked_int(f"{key} child", obj[key])
        if not 0 <= child < n_nodes:
            raise DataError(f"{key} child {child} out of range for {n_nodes} nodes")
        children.append(child)
    return (feature, checked_real("threshold", obj["threshold"]), *children, 0.0)


def _list(obj: dict, key: str) -> list:
    if not isinstance(obj[key], list):
        raise DataError(f"{key} must be a list, got {type(obj[key]).__name__}")
    return obj[key]


def _tree_from_obj(obj: dict, n_features: int, partition: ConstraintPartition | None) -> Tree:
    """Parse one tree, checking each node once: children in range, features
    in [0, n_features), finite thresholds and leaf weights, and no node
    reached twice from the root (so prediction cannot cycle). `used_group`
    must be null or index the tree's constraint-log `partition`."""
    n_nodes = len(_list(obj, "nodes"))
    nodes = [_node_from_obj(n, n_nodes, n_features) for n in obj["nodes"]]
    root = checked_int("root", obj["root"])
    if not 0 <= root < n_nodes:
        raise DataError(f"root {root} out of range for {n_nodes} nodes")
    reached = [False] * n_nodes
    stack = [root]
    while stack:
        node_id = stack.pop()
        if reached[node_id]:
            raise DataError(f"node {node_id} is reached twice from the root")
        reached[node_id] = True
        feature, _, left, right, _ = nodes[node_id]
        if feature >= 0:
            stack += (left, right)
    used_group = obj["used_group"]
    if used_group is not None and (
        partition is None or not 0 <= checked_int("used_group", used_group) < len(partition.groups)
    ):
        raise DataError(f"used_group {used_group} does not index the tree's constraint partition")
    return Tree(nodes=np.array(nodes, dtype=NODE), root=root, used_group=used_group)


def ensemble_to_json_obj(ens: Ensemble) -> dict:
    return {
        "task": ens.task.value,
        "params": ens.params.to_json_obj(),
        "base_score": ens.base_score,
        "n_features": ens.n_features,
        "feature_names": list(ens.feature_names),
        "trees": [
            {
                "nodes": [_node_to_obj(n) for n in tree.nodes.tolist()],
                "root": tree.root,
                "used_group": tree.used_group,
            }
            for tree in ens.trees
        ],
        "constraint_log": [
            None if p is None else p.to_json_obj() for p in ens.constraint_log
        ],
    }


def ensemble_from_json_obj(obj: dict) -> Ensemble:
    """Parse and validate a model document; every defect is a DataError."""
    try:
        params = TrainParams(**obj["params"])
        n_features = checked_int("n_features", obj["n_features"])
        names = _list(obj, "feature_names")
        if not all(isinstance(n, str) for n in names) or not len(set(names)) == len(names) == n_features:
            raise DataError(f"feature_names must be {n_features} distinct strings")
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
            n_features=n_features,
            feature_names=tuple(names),
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
