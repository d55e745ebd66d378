import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)


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
        with pytest.raises(DataError, match="outside"):
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
