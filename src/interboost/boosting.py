"""Second-order gradient boosted trees with interaction-constraint partitions.

Trees are grown by exact greedy search: for every allowed feature the rows
are sorted and every boundary between distinct values is scored with the
second-order gain
    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)) - gamma.
Routing is strictly "go left iff x[feature] < threshold" with thresholds at
midpoints of adjacent distinct values; ties on gain break toward the lower
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


def _scan_feature(x, g, h, params: TrainParams):
    """Best boundary for one feature over one node's rows.

    Returns (gain, threshold) for the best valid positive-gain boundary, or
    None. Candidates with non-finite gain (possible when both reg_lambda and
    min_child_hessian are zero) are treated as invalid.
    """
    m = x.size
    if m < 2 * params.min_child_samples:
        return None
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if xs[0] == xs[-1]:
        return None
    cg = np.cumsum(g[order])
    ch = np.cumsum(h[order])
    boundary = np.nonzero(xs[:-1] < xs[1:])[0]
    left_count = boundary + 1
    GL = cg[boundary]
    HL = ch[boundary]
    G = cg[-1]
    H = ch[-1]
    GR = G - GL
    HR = H - HL
    valid = (
        (left_count >= params.min_child_samples)
        & (m - left_count >= params.min_child_samples)
        & (HL >= params.min_child_hessian)
        & (HR >= params.min_child_hessian)
    )
    if not valid.any():
        return None
    lam = params.reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)) - params.gamma
    gains[~valid | ~np.isfinite(gains)] = -np.inf
    best = int(np.argmax(gains))  # first max: lowest threshold wins ties
    if not gains[best] > 0.0:
        return None
    threshold = (xs[boundary[best]] + xs[boundary[best] + 1]) / 2.0
    return float(gains[best]), float(threshold)


def _find_split(X, pos, g, h, allowed, params: TrainParams):
    """(gain, threshold, feature) of the best split of rows `pos` of X over
    the `allowed` features in ascending order, or None; `g` and `h` are
    aligned with `pos`. The first maximum wins, so ties go to the lower
    feature index. Only the allowed columns of the rows are copied."""
    best = None
    for f in allowed:
        found = _scan_feature(X[pos, f], g, h, params)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], found[1], f)
    return best


def _grow(
    rows: RowIndexSet,
    g: np.ndarray,
    h: np.ndarray,
    ds: Dataset,
    params: TrainParams,
    partition: ConstraintPartition | None,
) -> tuple[Tree, np.ndarray]:
    """Depth-first exact greedy growth of one tree on the gradients `g` and
    hessians `h` of `rows` (see module doc for constraint rules); also
    returns each training row's leaf weight."""
    Xsub = ds.features[rows.indices, :]
    if g.shape != (len(rows),) or h.shape != (len(rows),):
        raise ValueError("gradient vectors must align with the row set")
    all_features = tuple(range(ds.n_features))
    nodes: list[tuple | None] = []
    train_values = np.empty(len(rows))
    used_group: list[int | None] = [None]

    def build(pos: np.ndarray, depth: int, allowed) -> int:
        found = None
        if depth < params.max_depth:
            found = _find_split(Xsub, pos, g[pos], h[pos], allowed, params)
        if found is None:
            weight = leaf_weight(float(g[pos].sum()), float(h[pos].sum()), params.reg_lambda)
            nodes.append((-1, 0.0, -1, -1, weight))
            train_values[pos] = weight
            return len(nodes) - 1
        _, threshold, feature = found
        if partition is not None and depth == 0:
            group_index = partition.group_index_of(feature)
            used_group[0] = group_index
            # ascending order keeps the lower-feature-index tie-break exact
            child_allowed = tuple(sorted(partition.groups[group_index]))
        else:
            child_allowed = allowed
        node_id = len(nodes)
        nodes.append(None)
        goes_left = Xsub[pos, feature] < threshold
        left_id = build(pos[goes_left], depth + 1, child_allowed)
        right_id = build(pos[~goes_left], depth + 1, child_allowed)
        nodes[node_id] = (feature, threshold, left_id, right_id, 0.0)
        return node_id

    root = build(np.arange(len(rows)), 0, all_features)
    # `build` refers to itself through its closure; emptying that cell breaks
    # the cycle, so Xsub is freed now rather than at the next cyclic GC.
    del build
    return Tree(np.array(nodes, dtype=NODE), root, used_group[0]), train_values


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def default_base_score(task: Task, y: np.ndarray) -> float:
    """Mean target for regression; log-odds of the clamped target mean otherwise."""
    if task is Task.REGRESSION:
        return float(np.mean(y))
    return _logit(min(max(float(np.mean(y)), 1e-6), 1.0 - 1e-6))


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
    y = ds.target[rows.indices]
    base = params.base_score if params.base_score is not None else default_base_score(ds.task, y)
    raw = np.full(len(rows), base)
    trees: list[Tree] = []
    log: list[ConstraintPartition | None] = []
    for tree_number in range(1, params.n_trees + 1):
        g, h = grad_hess(ds.task, y, raw)
        partition = _partition_for_round(schedule, tree_number, ds, rows, g)
        tree, contribution = _grow(rows, g, h, ds, params, partition)
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
