"""Tabular dataset container, user-file readers (CSV and JSON), value
checks, and deterministic splitting."""

from __future__ import annotations

import collections
import csv
import enum
import io
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .prng import permutation


class DataError(ValueError):
    """Malformed input data: files, targets, shapes, or constraint files."""


class Task(enum.Enum):
    REGRESSION = "regression"
    BINARY_CLASSIFICATION = "classification"

    @classmethod
    def parse(cls, text: str) -> "Task":
        for member in cls:
            if member.value == text:
                return member
        raise DataError(f"unknown task {text!r}; expected 'regression' or 'classification'")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric feature matrix plus target vector.

    `features` has shape (n_rows, n_features) and is kept column-major so
    per-feature scans (standardization, split finding) touch contiguous
    memory. Instances are immutable; arrays are marked read-only.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray
    task: Task

    def __post_init__(self):
        feats = np.asfortranarray(self.features, dtype=np.float64)
        tgt = np.ascontiguousarray(self.target, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n_rows, n_features = feats.shape
        if n_rows == 0 or n_features == 0:
            raise DataError("dataset must have at least one row and one feature")
        names = checked_feature_names(self.feature_names, n_features)
        if tgt.shape != (n_rows,):
            raise DataError(f"target length {tgt.shape} does not match {n_rows} rows")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(tgt)):
            raise DataError("features and target must be finite (no NaN or infinity)")
        if self.task is Task.BINARY_CLASSIFICATION and not np.all((tgt == 0.0) | (tgt == 1.0)):
            bad = tgt[(tgt != 0.0) & (tgt != 1.0)][0]
            raise DataError(f"classification target value {bad!r} outside {{0, 1}}")
        feats.setflags(write=False)
        tgt.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "target", tgt)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class RowIndexSet:
    """Strictly increasing row positions into a Dataset."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise DataError("row indices must be one-dimensional")
        if idx.size and (idx[0] < 0 or np.any(np.diff(idx) <= 0)):
            raise DataError("row indices must be strictly increasing and non-negative")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)


def read_csv(path, columns=None) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a numeric CSV (header row, UTF-8 with or without a byte-order
    mark, decimal-point reals).

    Returns the header names and a float64 matrix of the named `columns`
    in that order, or of every column when `columns` is None. Only those
    columns are parsed; each of their cells must be a finite real, and
    every row must have one cell per header name. Header names must be
    distinct. Blank lines are skipped.
    """
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


def load_csv(path, target_column: str, task: Task) -> Dataset:
    """Load a numeric CSV (see `read_csv`) as a Dataset.

    The target column is extracted; the remaining columns become features
    in header order.
    """
    names, matrix = read_csv(path)
    if target_column not in names:
        raise DataError(f"{path}: target column {target_column!r} not among headers {list(names)}")
    target_pos = names.index(target_column)
    target = matrix[:, target_pos]
    features = np.delete(matrix, target_pos, axis=1)
    feature_names = tuple(n for i, n in enumerate(names) if i != target_pos)
    return Dataset(features, feature_names, target, task)


def read_json(path, error: type[Exception]):
    """Parse the UTF-8 JSON file at `path` (a leading byte-order mark is
    skipped); a file that is not valid JSON raises `error`. ValueError covers
    JSONDecodeError, UnicodeDecodeError and integers over the interpreter's
    digit limit; RecursionError is nesting too deep for the parser."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON: {type(exc).__name__}: {exc}") from exc


def write_json(path, obj) -> None:
    """Write `obj` to `path` atomically as 2-space indented JSON plus a newline."""
    write_atomic(Path(path), json.dumps(obj, indent=2, allow_nan=False) + "\n")


def checked_int(name: str, value):
    """`value` if it is an integer and not a bool; otherwise TypeError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def checked_real(name: str, value):
    """`value` if it is a finite real and not a bool; otherwise TypeError or
    ValueError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} {value!r} is not finite")
    return value


def checked_feature_names(names, n_features: int) -> tuple[str, ...]:
    """`names` as a tuple if it holds `n_features` distinct strings that
    `save_csv` then `read_csv` give back unchanged; otherwise DataError.
    So no name has leading or trailing whitespace (`read_csv` strips header
    cells), a leading byte-order mark (`read_csv` skips one at the start of
    the file) or a carriage return (`save_csv` leaves it unquoted, so it
    would end the header row)."""
    names = tuple(names)
    readable = all(
        isinstance(n, str) and n == n.strip() and not n.startswith("\ufeff") and "\r" not in n for n in names
    )
    if not readable or not len(set(names)) == len(names) == n_features:
        raise DataError(
            f"feature names must be {n_features} distinct strings without leading or trailing whitespace, "
            "a leading byte-order mark or a carriage return"
        )
    return names


def format_real(value: float) -> str:
    """17-significant-digit decimal, enough to round-trip any float64."""
    return format(float(value), ".17g")


def save_csv(ds: Dataset, path, target_name: str = "target") -> None:
    """Write the dataset to CSV through `write_atomic`; feature columns first, target last.

    Reals are written with 17 significant digits so a reload reproduces the
    dataset exactly.
    """
    if target_name in ds.feature_names:
        raise DataError(f"target name {target_name!r} collides with a feature name")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(ds.feature_names) + [target_name])
    for i in range(ds.n_rows):
        writer.writerow([format_real(v) for v in ds.features[i, :]] + [format_real(ds.target[i])])
    write_atomic(Path(path), buf.getvalue())


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same directory
    and a rename, so readers never see a partial file. The file gets the
    mode `open` gives it: 0666 less the umask at the time of writing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def take_rows(ds: Dataset, idx: np.ndarray) -> Dataset:
    """The rows of `ds` at the index array `idx`, in that order."""
    return Dataset(ds.features[idx, :], ds.feature_names, ds.target[idx], ds.task)


def replace_target(ds: Dataset, target: np.ndarray, task: Task) -> Dataset:
    return Dataset(ds.features, ds.feature_names, np.asarray(target, dtype=np.float64), task)


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled holdout split.

    The seeded permutation's first floor(n * test_fraction) entries become
    the test part, the rest the train part; both are re-sorted to original
    row order before materializing.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test fraction must be in (0, 1), got {test_fraction}")
    n = ds.n_rows
    n_test = int(n * test_fraction + 1e-9)
    if n_test == 0 or n_test == n:
        raise DataError(f"test fraction {test_fraction} leaves an empty part for {n} rows")
    perm = permutation(n, seed)
    test_idx = np.asarray(sorted(perm[:n_test]), dtype=np.int64)
    train_idx = np.asarray(sorted(perm[n_test:]), dtype=np.int64)
    return take_rows(ds, train_idx), take_rows(ds, test_idx)


def kfold(n_rows: int, k: int, seed: int) -> tuple[tuple[RowIndexSet, RowIndexSet], ...]:
    """Seeded k-fold plan as (train, validation) pairs; validation sets
    partition the rows, sizes differ by <= 1.

    The seeded permutation is dealt round-robin: fold j's validation rows
    are permutation positions j, j+k, j+2k, ...
    """
    if k < 2 or k > n_rows:
        raise DataError(f"k must satisfy 2 <= k <= n_rows, got k={k} for {n_rows} rows")
    perm = permutation(n_rows, seed)
    folds = []
    for j in range(k):
        validation = np.asarray(sorted(perm[j::k]), dtype=np.int64)
        mask = np.ones(n_rows, dtype=bool)
        mask[validation] = False
        train = np.nonzero(mask)[0].astype(np.int64)
        folds.append((RowIndexSet(train), RowIndexSet(validation)))
    return tuple(folds)
