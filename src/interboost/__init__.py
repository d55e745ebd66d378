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
    NoConstraints,
    PerResidual,
    TrainParams,
    load_model,
    predict,
    save_model,
    train,
)
from .data import DataError, Dataset, RowIndexSet, Task, load_csv, save_csv
from .discovery import ConstraintPartition, WrapperConfig, discover_constraints
from .experiment import BenchmarkConfig, TuningGrid, benchmark, tune

__version__ = "0.1.0"

# What the CLI, the scripts and the README's library example use; engine
# internals are imported from their own modules.
__all__ = [
    "BenchmarkConfig",
    "ConstraintPartition",
    "ConstraintSchedule",
    "DataError",
    "Dataset",
    "Ensemble",
    "FixedPartition",
    "NoConstraints",
    "PerResidual",
    "RowIndexSet",
    "Task",
    "TrainParams",
    "TuningGrid",
    "WrapperConfig",
    "benchmark",
    "discover_constraints",
    "load_csv",
    "load_model",
    "predict",
    "save_csv",
    "save_model",
    "train",
    "tune",
]
