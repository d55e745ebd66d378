import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from interboost import data
from interboost.data import (
    DataError,
    Dataset,
    RowIndexSet,
    Task,
    kfold,
    load_csv,
    read_csv,
    read_json,
    save_csv,
    take_rows,
    train_test_split,
    write_json,
)
from oracles import reference_read_csv


class TestLoadCsv:
    def test_basic_parse(self, tmp_csv):
        path = tmp_csv("x0,x1,y\n1,2,0\n3,4,1\n")
        ds = load_csv(path, "y", Task.BINARY_CLASSIFICATION)
        assert ds.n_rows == 2
        assert ds.n_features == 2
        assert ds.feature_names == ("x0", "x1")
        np.testing.assert_array_equal(ds.target, [0.0, 1.0])
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_unknown_target_column(self, tmp_csv):
        path = tmp_csv("x0,x1,y\n1,2,0\n")
        with pytest.raises(DataError, match="'z'"):
            load_csv(path, "z", Task.BINARY_CLASSIFICATION)

    def test_parse_error_names_row_and_column(self, tmp_csv):
        rows = ["x0,y"] + [f"{i},0" for i in range(1, 5)] + ["abc,0", "6,0"]
        path = tmp_csv("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 5"):
            load_csv(path, "y", Task.REGRESSION)

    def test_classification_target_must_be_binary(self, tmp_csv):
        path = tmp_csv("x0,y\n1,0\n2,2\n")
        with pytest.raises(DataError, match=r"classification target value 2\.0 outside \{0, 1\}$"):
            load_csv(path, "y", Task.BINARY_CLASSIFICATION)
        # same file is a fine regression dataset
        assert load_csv(path, "y", Task.REGRESSION).n_rows == 2

    def test_empty_data(self, tmp_csv):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(tmp_csv("x0,y\n"), "y", Task.REGRESSION)
        with pytest.raises(DataError, match="empty"):
            load_csv(tmp_csv(""), "y", Task.REGRESSION)

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x0,y\n1,caf\u00e9\n".encode("latin-1"))
        with pytest.raises(DataError, match="utf-8"):
            load_csv(path, "y", Task.REGRESSION)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,c,y\n1,2,3,4\n")
        names, matrix = read_csv(path)
        assert names == ("a", "b", "c", "y")
        np.testing.assert_array_equal(matrix, [[1.0, 2.0, 3.0, 4.0]])

    def test_json_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf[[0, 1], [2]]\n')
        assert read_json(path, DataError) == [[0, 1], [2]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y", Task.REGRESSION)

    def test_rejects_non_finite(self, tmp_csv):
        with pytest.raises(DataError, match="non-finite"):
            load_csv(tmp_csv("x0,y\nnan,0\n"), "y", Task.REGRESSION)
        with pytest.raises(DataError, match="non-finite"):
            load_csv(tmp_csv("x0,y\ninf,0\n"), "y", Task.REGRESSION)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(17, 3)) * np.array([1e-8, 1.0, 1e12])
        y = rng.normal(size=17)
        ds = Dataset(X, ("small", "mid", "large"), y, Task.REGRESSION)
        path = tmp_path / "rt.csv"
        save_csv(ds, path, target_name="t")
        back = load_csv(path, "t", Task.REGRESSION)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.target, ds.target)
        assert back.feature_names == ds.feature_names

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "old.csv"
        path.write_bytes(b"a,t\n1,2\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(data.os, "replace", failing_replace)
        ds = Dataset(np.zeros((3, 1)), ("a",), np.ones(3), Task.REGRESSION)
        with pytest.raises(OSError, match="disk full"):
            save_csv(ds, path, target_name="t")
        assert path.read_bytes() == b"a,t\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]

    def test_written_file_has_the_mode_open_gives(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("a,t\n")
        path = tmp_path / "saved.csv"
        save_csv(Dataset(np.zeros((2, 1)), ("a",), np.ones(2), Task.REGRESSION), path, target_name="t")
        assert path.stat().st_mode == plain.stat().st_mode

    def test_written_file_has_the_mode_of_the_umask_at_write_time(self, tmp_path):
        previous = os.umask(0o077)  # set after import: the umask when the file is written counts
        try:
            plain = tmp_path / "plain.json"
            plain.write_text("{}\n")
            path = tmp_path / "saved.json"
            write_json(path, {})
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 == 0o600

    def test_unencodable_name_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_bytes(b"a,t\n1,2\n")
        ds = Dataset(np.zeros((2, 1)), ("\ud800",), np.ones(2), Task.REGRESSION)
        with pytest.raises(UnicodeEncodeError):
            save_csv(ds, path, target_name="t")
        assert path.read_bytes() == b"a,t\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


# Cells for generated CSV files: numerals that `float` reads its own way,
# then values it reads as not finite, text, quoting and control characters.
PLAIN_CELLS = ["1", "-0.0", "2.5e-3", "1_000", "\u0661\u0662", " 5 ", "\u00a07", "0.1", "-3"]
ODD_CELLS = ["nan", "1e400", "-inf", "abc", "", "  ", '"3"', '"4,5"', "1\x002", "\ufeff1", "0x1"]
CSV_DEFECTS = [
    "odd cell", "short row", "long row", "blank line", "repeated name", "missing column",
    "crlf", "no final newline", "byte-order mark", "bad byte",
]


def csv_outcome(read, path, columns):
    """Names, matrix dtype, shape and bytes of a read, or its DataError message."""
    try:
        names, matrix = read(path, columns)
    except DataError as exc:
        return str(exc)
    return names, matrix.dtype, matrix.shape, matrix.tobytes()


@st.composite
def csv_files(draw):
    """(bytes, columns) of a small CSV file with up to two defects, each of
    which `read_csv` must report as `reference_read_csv` does, or take in
    its stride (an odd cell in a column that is not read)."""
    names = ["a", "b", "c", " d ", "y"]
    header = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    n_cols = len(header)
    cells = st.lists(st.sampled_from(PLAIN_CELLS), min_size=n_cols + 1, max_size=n_cols + 1)
    rows = [row[:n_cols] for row in draw(st.lists(cells, max_size=9))]
    columns = draw(st.none() | st.lists(st.sampled_from([n.strip() for n in header]), max_size=3))
    newline, end, prefix, suffix = "\n", "\n", b"", b""
    for defect in draw(st.lists(st.sampled_from(CSV_DEFECTS), max_size=2)):
        at = draw(st.integers(0, len(rows)))
        if defect == "odd cell":
            full = [i for i, row in enumerate(rows) if len(row) == len(header)]  # a cell per header name
            if full:
                row = rows[draw(st.sampled_from(full))]
                row[draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif defect in ("short row", "long row"):
            row = draw(cells)
            rows.insert(at, row[: n_cols - 1] if defect == "short row" else row)
        elif defect == "blank line":
            rows.insert(at, [draw(st.sampled_from(["", "  ", "\t"]))])
        elif defect == "repeated name":
            header.append(header[0])
            rows = [row + ["1"] for row in rows]
        elif defect == "missing column":
            columns = [*(columns or []), "zz"]
        elif defect == "crlf":
            newline = end = "\r\n"
        elif defect == "no final newline":
            end = ""
        elif defect == "byte-order mark":
            prefix = b"\xef\xbb\xbf"
        elif defect == "bad byte":
            suffix = b"\xff\n"
    text = newline.join(",".join(row) for row in [header, *rows]) + end
    return prefix + text.encode("utf-8") + suffix, columns


class TestReadCsv:
    @settings(max_examples=400, deadline=None)
    @given(file=csv_files(), block_rows=st.integers(1, 4))
    @example(file=(b"a,b,y\n1,2,3,4\n5,6\n", None), block_rows=4)  # a long row, then a short one
    @example(file=(b"a,b,y\n1,2,3\n4,5,6\n7,8,9\n", ["y", "a"]), block_rows=2)
    @example(file=("a,b,y\n1,x,3\n4,\u0661,6\n".encode(), ["y", "a"]), block_rows=1)  # text in b
    @example(file=(b'a,b,y\n"1,2",3\n', ["y"]), block_rows=1)  # a quoted comma in a short row
    @example(file=(b"a,y\n1\r2,3\n", ["y"]), block_rows=1)  # a carriage return ends a csv row
    @example(file=(b"a\n0." + b"0" * 2**17 + b"1\n", None), block_rows=1)  # over csv.field_size_limit()
    @example(file=(b"a\nx\n1" + b"0" * 2**17 + b"\n", None), block_rows=4)  # a bad cell, then a csv.Error
    @example(file=(b"a,b\n", None), block_rows=1)  # no data rows
    @example(file=(b"\n1\n", None), block_rows=1)  # a blank header
    @example(file=(b"a\n1\n\n2\n", None), block_rows=1)  # a blank line
    @example(file=(b"a\n1\n\n2\n", []), block_rows=1)  # a blank line, no column read
    def test_read_csv_matches_the_reference_parser(self, file, block_rows):
        text, columns = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text)
            expected = csv_outcome(reference_read_csv, path, columns)
            with mock.patch.object(data, "CSV_BLOCK_ROWS", block_rows):
                assert csv_outcome(read_csv, path, columns) == expected

    def test_read_csv_peaks_below_the_reference_parser(self, tmp_path):
        path = tmp_path / "tall.csv"
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20000, 16)) * 10.0 ** rng.integers(-5, 6, size=16)
        save_csv(Dataset(X, tuple(f"x{i}" for i in range(16)), rng.normal(size=20000), Task.REGRESSION), path)
        peaks = []
        for read in (reference_read_csv, read_csv):
            tracemalloc.start()
            read(path, None)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0]


class TestDatasetInvariants:
    def test_rejects_nan_features(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError):
            Dataset(X, ("a",), np.array([0.0, 1.0]), Task.REGRESSION)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.ones((3, 1)), ("a",), np.ones(2), Task.REGRESSION)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.ones((0, 1)), ("a",), np.ones(0), Task.REGRESSION)

    def test_feature_names_are_distinct_strings(self):
        # a model or CSV saved from such names could not be loaded back
        for names in [("a", "a"), (0, 1), ("a", None)]:
            with pytest.raises(DataError, match="distinct strings"):
                Dataset(np.ones((3, 2)), names, np.ones(3), Task.REGRESSION)

    def test_feature_names_survive_a_csv_round_trip(self):
        # read_csv strips header cells, so " a" would come back as "a"
        for names in [(" a", "b"), ("a", " a"), ("a", "b\t")]:
            with pytest.raises(DataError, match="leading or trailing whitespace"):
                Dataset(np.ones((3, 2)), names, np.ones(3), Task.REGRESSION)

    def test_a_leading_byte_order_mark_is_rejected(self):
        # read_csv reads UTF-8 with or without a byte-order mark, so a first
        # header cell "\ufeffa" would come back as "a"
        for names in [("\ufeffa", "b"), ("a", "\ufeffb"), ("\ufeff", "b")]:
            with pytest.raises(DataError, match="byte-order mark"):
                Dataset(np.ones((3, 2)), names, np.ones(3), Task.REGRESSION)

    def test_a_carriage_return_is_rejected(self):
        # save_csv leaves "\r" unquoted, so the header row would end there
        for names in [("a\rb", "c"), ("a", "\r")]:
            with pytest.raises(DataError, match="carriage return"):
                Dataset(np.ones((3, 2)), names, np.ones(3), Task.REGRESSION)

    @settings(max_examples=300, deadline=None)
    @given(
        names=st.lists(st.text(), min_size=1, max_size=3),
        values=hnp.arrays(np.float64, (3, 4), elements=st.floats(allow_nan=False, allow_infinity=False)),
        n_rows=st.integers(1, 3),
        classification=st.booleans(),
    )
    @example(names=["\ufeffa", "b"], values=np.zeros((3, 4)), n_rows=1, classification=False)
    @example(names=["a\rb"], values=np.zeros((3, 4)), n_rows=1, classification=False)
    def test_every_accepted_dataset_survives_a_csv_round_trip(self, names, values, n_rows, classification):
        task = Task.BINARY_CLASSIFICATION if classification else Task.REGRESSION
        y = values[:n_rows, -1]
        assume("target" not in names)
        try:
            ds = Dataset(values[:n_rows, : len(names)], tuple(names), (y > 0) * 1.0 if classification else y, task)
        except DataError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "saved.csv"
            save_csv(ds, path)
            back = load_csv(path, "target", task)
        assert back.feature_names == ds.feature_names
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.target.tobytes() == ds.target.tobytes()

    def test_arrays_read_only(self):
        ds = Dataset(np.ones((2, 1)), ("a",), np.zeros(2), Task.REGRESSION)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestRowIndexSet:
    def test_requires_strictly_increasing(self):
        with pytest.raises(DataError):
            RowIndexSet(np.array([0, 0, 1]))
        with pytest.raises(DataError):
            RowIndexSet(np.array([2, 1]))
        with pytest.raises(DataError):
            RowIndexSet(np.array([-1, 0]))


class TestTrainTestSplit:
    def _ds(self, n):
        return Dataset(
            np.arange(n, dtype=float).reshape(n, 1), ("a",), np.zeros(n), Task.REGRESSION
        )

    def test_counts_and_disjointness(self):
        train, test = train_test_split(self._ds(10), 0.2, seed=7)
        assert train.n_rows == 8
        assert test.n_rows == 2
        together = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(together.tolist()) == list(range(10))

    def test_deterministic(self):
        a = train_test_split(self._ds(30), 0.25, seed=7)
        b = train_test_split(self._ds(30), 0.25, seed=7)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        c = train_test_split(self._ds(30), 0.25, seed=8)
        assert not np.array_equal(a[1].features, c[1].features)

    def test_empty_part_is_error(self):
        with pytest.raises(DataError):
            train_test_split(self._ds(1), 0.5, seed=0)
        with pytest.raises(DataError):
            train_test_split(self._ds(10), 0.01, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(DataError):
            train_test_split(self._ds(10), 0.0, seed=0)
        with pytest.raises(DataError):
            train_test_split(self._ds(10), 1.0, seed=0)


class TestKFold:
    def test_even_sizes(self):
        plan = kfold(10, 5, seed=0)
        assert [len(v) for _, v in plan] == [2, 2, 2, 2, 2]

    def test_uneven_sizes(self):
        plan = kfold(7, 3, seed=0)
        assert sorted(len(v) for _, v in plan) == [2, 2, 3]

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            kfold(3, 5, seed=0)
        with pytest.raises(DataError):
            kfold(10, 1, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=120),
        k=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_validation_sets_cover_rows(self, n, k, seed):
        if k > n:
            return
        plan = kfold(n, k, seed)
        all_val = np.concatenate([v.indices for _, v in plan])
        assert sorted(all_val.tolist()) == list(range(n))
        sizes = [len(v) for _, v in plan]
        assert max(sizes) - min(sizes) <= 1
        for train, val in plan:
            merged = np.concatenate([train.indices, val.indices])
            assert sorted(merged.tolist()) == list(range(n))

    def test_deterministic(self):
        a = kfold(25, 4, seed=3)
        b = kfold(25, 4, seed=3)
        for (_, va), (_, vb) in zip(a, b):
            np.testing.assert_array_equal(va.indices, vb.indices)


def test_take_rows_gathers():
    ds = Dataset(np.arange(8, dtype=float).reshape(4, 2), ("a", "b"), np.arange(4.0), Task.REGRESSION)
    sub = take_rows(ds, np.array([1, 3]))
    np.testing.assert_array_equal(sub.target, [1.0, 3.0])
    np.testing.assert_array_equal(sub.features[:, 0], [2.0, 6.0])
