"""Gradient boosted trees with feature-interaction constraint partitions.

The package provides: a boosting engine that restricts each tree's splits
to one group of a feature partition; a wrapper algorithm that discovers
such partitions by comparing linear models with and without pairwise
product terms; and a benchmark harness comparing unconstrained, fully
constrained, partially constrained, and randomly constrained ensembles.
"""

from .boosting import (
    ConstraintSchedule,
    Ensemble,
    FixedPartition,
    GradHess,
    NoConstraints,
    PerResidual,
    TrainParams,
    Tree,
    grad_hess,
    grow_tree,
    leaf_weight,
    load_model,
    predict,
    predict_raw,
    save_model,
    split_gain,
    train,
)
from .data import (
    DataError,
    Dataset,
    FoldPlan,
    RowIndexSet,
    Task,
    kfold,
    load_csv,
    save_csv,
    take_rows,
    train_test_split,
)
from .discovery import (
    ConstraintPartition,
    WrapperConfig,
    discover_constraints,
    discover_constraints_for_residuals,
    discover_constraints_traced,
)
from .experiment import (
    BenchmarkConfig,
    BenchmarkReport,
    TuningGrid,
    benchmark,
    random_partition,
    tune,
)
from .linear import cv_score, expand_pairwise, fit_logistic, fit_ols, materialize

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkReport",
    "ConstraintPartition",
    "ConstraintSchedule",
    "DataError",
    "Dataset",
    "Ensemble",
    "FixedPartition",
    "FoldPlan",
    "GradHess",
    "NoConstraints",
    "PerResidual",
    "RowIndexSet",
    "Task",
    "TrainParams",
    "Tree",
    "TuningGrid",
    "WrapperConfig",
    "benchmark",
    "cv_score",
    "discover_constraints",
    "discover_constraints_for_residuals",
    "discover_constraints_traced",
    "expand_pairwise",
    "fit_logistic",
    "fit_ols",
    "grad_hess",
    "grow_tree",
    "kfold",
    "leaf_weight",
    "load_csv",
    "load_model",
    "materialize",
    "predict",
    "predict_raw",
    "random_partition",
    "save_csv",
    "save_model",
    "split_gain",
    "take_rows",
    "train",
    "train_test_split",
    "tune",
]
