"""Automatic discovery of feature-interaction constraint partitions.

A forward-selection wrapper grows one group at a time. A new group is
seeded with the single best-scoring feature; then, for each remaining
feature f, two cross-validated models over the open group plus f are
compared: one whose product terms stop at the group's own pairs, and one
that also has f's products with the group. f is a candidate when the
latter wins by more than epsilon, so candidacy measures exactly the value
of f's interactions with the group (the group's established products are
in both models and cannot recount). The best candidate by interaction
score joins; when none qualifies the group is closed and a fresh one
starts, until every feature is placed. Groups are disjoint and exhaustive,
and product terms never span closed groups.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DataError, Task, replace_target
from .data import checked_int, checked_real
from .linear import FoldScorer
from .linear import cv_score_terms  # noqa: F401  (perfbench/tracer.py wraps this name here)


@dataclass(frozen=True, eq=False)
class ConstraintPartition:
    """Disjoint, exhaustive groups of feature indices.

    Group and within-group order reflect discovery order. Exhaustiveness is
    relative to a feature count, checked via `validate_for`.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise DataError("constraint groups must be nonempty")
            for f in group:
                if not isinstance(f, numbers.Integral) or isinstance(f, bool):
                    raise DataError(f"constraint group entry {f!r} is not an integer")
                if f < 0:
                    raise DataError(f"negative feature index {f} in constraint group")
                if f in seen:
                    raise DataError(f"feature {f} appears in more than one constraint group")
                seen.add(f)
        groups = tuple(tuple(int(f) for f in g) for g in self.groups)
        lookup = {f: gi for gi, group in enumerate(groups) for f in group}
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "_lookup", lookup)

    def validate_for(self, n_features: int) -> "ConstraintPartition":
        covered = set(self._lookup)
        if covered != set(range(n_features)):
            raise DataError(
                f"constraint groups must cover features 0..{n_features - 1} exactly; "
                f"got {sorted(covered)}"
            )
        return self

    def group_index_of(self, feature: int) -> int:
        return self._lookup[feature]

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """The groups as sets: each sorted, in sorted order. Partitions with
        equal canonical forms grow the same trees, since growth reads a
        group only as the sorted features of the root split's group."""
        return tuple(sorted(tuple(sorted(g)) for g in self.groups))

    def to_json_obj(self) -> list[list[int]]:
        return [list(g) for g in self.groups]

    @classmethod
    def from_json_obj(cls, obj, n_features: int) -> "ConstraintPartition":
        if not isinstance(obj, list) or not all(isinstance(g, list) for g in obj):
            raise DataError("constraint file must be a JSON array of arrays of feature indices")
        return cls(tuple(tuple(g) for g in obj)).validate_for(n_features)


@dataclass(frozen=True)
class WrapperConfig:
    """The wrapper's settings, in the order `discovery_log.json` gives them."""

    seed: int = 0
    k_folds: int = 3
    epsilon: float = 1e-6
    max_group_size: int | None = None

    def __post_init__(self):
        if checked_int("k_folds", self.k_folds) < 2:
            raise ValueError("k_folds must be >= 2")
        checked_int("seed", self.seed)
        if checked_real("epsilon", self.epsilon) < 0:
            raise ValueError("epsilon must be >= 0")
        size = self.max_group_size
        if size is not None and checked_int("max_group_size", size) < 1:
            raise ValueError("max_group_size must be >= 1 (or None for unlimited)")


@dataclass(frozen=True)
class CandidateScore:
    """Cross-validation scores for one candidate feature at one step."""

    feature: int
    plain: float
    interaction: float | None


@dataclass(frozen=True)
class DiscoveryStep:
    """One step of the discovery loop; `subset` is the open group afterwards."""

    action: str  # "seed" | "add" | "close"
    feature: int | None
    plain_score: float | None
    interaction_score: float | None
    subset: tuple[int, ...]
    candidates: tuple[CandidateScore, ...]


def discover_constraints_traced(
    ds: Dataset, cfg: WrapperConfig
) -> tuple[ConstraintPartition, tuple[DiscoveryStep, ...]]:
    """Like discover_constraints but also returns the per-step score log."""
    score_many = FoldScorer(ds, cfg.k_folds, cfg.seed).score_many

    remaining = list(range(ds.n_features))
    groups: list[list[int]] = []
    subset: list[int] = []
    steps: list[DiscoveryStep] = []
    while remaining or subset:
        # Score a fresh group's seeds or an open group's candidates; with no
        # best feature (none left, the group full, or no candidate) it closes.
        evals, best = (), None
        if not subset:
            scores = score_many([([f], []) for f in remaining])
            evals = tuple(CandidateScore(f, plain, None) for f, plain in zip(remaining, scores))
            best = max(evals, key=lambda c: (c.plain, -c.feature))
        elif remaining and (cfg.max_group_size is None or len(subset) < cfg.max_group_size):
            # each candidate's plain design, then its interaction design
            scores = score_many([(subset + [f], scope) for f in remaining for scope in (subset, subset + [f])])
            evals = tuple(map(CandidateScore, remaining, scores[::2], scores[1::2]))
            candidates = [c for c in evals if c.interaction > c.plain + cfg.epsilon]
            best = max(candidates, key=lambda c: (c.interaction, -c.feature), default=None)
        action = "close" if best is None else "add" if subset else "seed"
        if best is not None:
            subset.append(best.feature)
            remaining.remove(best.feature)
        scores = (None, None, None) if best is None else (best.feature, best.plain, best.interaction)
        steps.append(DiscoveryStep(action, *scores, tuple(subset), evals))
        if best is None:
            groups.append(subset)
            subset = []
    partition = ConstraintPartition(tuple(tuple(g) for g in groups)).validate_for(ds.n_features)
    return partition, tuple(steps)


def discover_constraints(ds: Dataset, cfg: WrapperConfig) -> ConstraintPartition:
    """Partition the feature set of `ds` by iterative wrapper selection over
    all its rows (see module doc)."""
    return discover_constraints_traced(ds, cfg)[0]


def discover_constraints_for_residuals(
    ds: Dataset, residual_target: np.ndarray, cfg: WrapperConfig
) -> ConstraintPartition:
    """Discovery against a residual vector, one entry per row of `ds`,
    instead of the original target; `Dataset` refuses one of another
    length. Residuals are continuous even for classification tasks, so
    scoring always takes the regression (least squares / R-squared) path.
    """
    return discover_constraints(replace_target(ds, residual_target, Task.REGRESSION), cfg)
