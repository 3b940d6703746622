"""Schema-driven CSV ingest, the preprocessing chain, and the plain
numeric matrix route."""

import numpy as np
import pytest

from sigpca import (
    ColumnSchema,
    ConfigError,
    DataError,
    Dataset,
    LoadError,
    MaskedMatrix,
    center_scale,
    drop_sparse_columns,
    load_csv,
    one_hot,
    preprocess,
    read_schema,
)
from sigpca.ingest import (
    center_columns,
    drop_sparse_matrix_columns,
    load_matrix_csv,
    write_matrix_csv,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


MIXED_SCHEMA = (
    ColumnSchema("height", "continuous"),
    ColumnSchema("color", "categorical", levels=("red", "green", "blue")),
    ColumnSchema("flag", "binary", levels=("no", "yes")),
    ColumnSchema("grade", "ordinal", levels=("low", "mid", "high"), as_numeric=True),
)


def mixed_csv(tmp_path, rows):
    path = tmp_path / "data.csv"
    write_lines(path, ["height,color,flag,grade"] + rows)
    return path


class TestColumnSchema:
    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            ColumnSchema("a", "numeric")
        with pytest.raises(ConfigError):
            ColumnSchema("bad name", "continuous")
        with pytest.raises(ConfigError):
            ColumnSchema("", "continuous")

    def test_level_count_validation(self):
        with pytest.raises(ConfigError):
            ColumnSchema("a", "continuous", levels=("x", "y"))
        with pytest.raises(ConfigError):
            ColumnSchema("a", "binary", levels=("x", "y", "z"))
        with pytest.raises(ConfigError):
            ColumnSchema("a", "categorical", levels=("x",))
        with pytest.raises(ConfigError):
            ColumnSchema("a", "categorical", levels=tuple(f"l{i}" for i in range(12)))
        assert len(ColumnSchema("a", "categorical", levels=tuple(f"l{i}" for i in range(11))).levels) == 11
        with pytest.raises(ConfigError):
            ColumnSchema("a", "ordinal", levels=("x", "x"))

    def test_as_numeric_only_for_ordinals(self):
        with pytest.raises(ConfigError):
            ColumnSchema("a", "categorical", levels=("x", "y"), as_numeric=True)
        assert ColumnSchema("a", "ordinal", levels=("x", "y"), as_numeric=True).as_numeric


class TestSchemaFile:
    def test_levels_and_numeric_token(self, tmp_path):
        path = tmp_path / "schema.txt"
        write_lines(
            path,
            [
                "height continuous",
                "color categorical red,green,blue",
                "flag binary no,yes",
                "grade ordinal low,mid,high numeric",
            ],
        )
        assert read_schema(path) == MIXED_SCHEMA

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "schema.txt"
        write_lines(path, ["# header comment", "", "height continuous", "flag binary no,yes"])
        schema = read_schema(path)
        assert [c.name for c in schema] == ["height", "flag"]

    def test_errors_name_the_line(self, tmp_path):
        path = tmp_path / "schema.txt"
        write_lines(path, ["height continuous", "broken"])
        with pytest.raises(LoadError, match="line 2"):
            read_schema(path)
        write_lines(path, ["height nonsense"])
        with pytest.raises(LoadError, match="line 1"):
            read_schema(path)
        path.write_text("")
        with pytest.raises(LoadError):
            read_schema(path)
        # A misspelt "numeric" must not load the ordinal as indicators.
        write_lines(path, ["height continuous", "q ordinal lo,mid,hi numerc"])
        with pytest.raises(LoadError, match="line 2.*'numerc'"):
            read_schema(path)


class TestLoadCsv:
    def test_parses_values_levels_and_missing_cells(self, tmp_path):
        path = mixed_csv(
            tmp_path,
            ["1.5,red,yes,low", "2.5,NA,no,high", ",blue,yes,mid"],
        )
        ds = load_csv(path, MIXED_SCHEMA)
        assert ds.matrix.shape == (3, 4)
        assert np.array_equal(
            ds.matrix.mask,
            [[True, True, True, True], [True, False, True, True], [False, True, True, True]],
        )
        assert ds.matrix.values[0, 1] == 0.0  # red -> level index 0
        assert ds.matrix.values[2, 1] == 2.0  # blue -> level index 2
        assert ds.matrix.values[1, 3] == 2.0  # high -> level index 2
        assert ds.matrix.values[0, 0] == 1.5
        assert len(ds.provenance) == 1

    def test_header_must_match_schema(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["height,colour", "1.0,red"])
        with pytest.raises(LoadError, match="header"):
            load_csv(path, MIXED_SCHEMA[:2])
        # The header is checked before any data row is read.
        write_lines(path, ["height,colour", "1.0,red", "2.0"])
        with pytest.raises(LoadError, match="header"):
            load_csv(path, MIXED_SCHEMA[:2])

    def test_cell_errors_name_row_and_column(self, tmp_path):
        path = mixed_csv(tmp_path, ["oops,red,yes,low"])
        with pytest.raises(LoadError, match="row 1.*height"):
            load_csv(path, MIXED_SCHEMA)
        path = mixed_csv(tmp_path, ["1.0,purple,yes,low"])
        with pytest.raises(LoadError, match="row 1.*color"):
            load_csv(path, MIXED_SCHEMA)
        path = mixed_csv(tmp_path, ["inf,red,yes,low"])
        with pytest.raises(LoadError, match="non-finite"):
            load_csv(path, MIXED_SCHEMA)

    def test_ragged_and_empty_files_rejected(self, tmp_path):
        path = mixed_csv(tmp_path, ["1.0,red,yes"])
        with pytest.raises(LoadError, match="row 1"):
            load_csv(path, MIXED_SCHEMA)
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LoadError, match="empty"):
            load_csv(path, MIXED_SCHEMA)
        path = mixed_csv(tmp_path, [])
        with pytest.raises(LoadError, match="no data rows"):
            load_csv(path, MIXED_SCHEMA)

    def test_custom_missing_tokens(self, tmp_path):
        path = mixed_csv(tmp_path, ["?,red,yes,low"])
        ds = load_csv(path, MIXED_SCHEMA, missing_tokens=("", "NA", "?"))
        assert not ds.matrix.mask[0, 0]
        # Both ingest routes read a numeric file to the same bits.
        path = tmp_path / "numbers.csv"
        write_lines(path, ["a,b,c", "1.5, ,-0", "NA,2e-3,?", " 0.1 ,?,1e300"])
        tokens = ("", "NA", "?")
        matrix = load_matrix_csv(path, missing_tokens=tokens)
        schema = tuple(ColumnSchema(name, "continuous") for name in "abc")
        ds = load_csv(path, schema, missing_tokens=tokens)
        assert np.array_equal(
            matrix.mask, [[True, False, True], [False, True, False], [True, False, True]]
        )
        assert matrix.values.tobytes() == ds.matrix.values.tobytes()
        assert np.array_equal(matrix.mask, ds.matrix.mask)


def make_dataset(schema, values, mask=None):
    values = np.asarray(values, dtype=np.float64)
    mask = np.ones(values.shape, dtype=bool) if mask is None else np.asarray(mask)
    return Dataset(schema=tuple(schema), matrix=MaskedMatrix(values, mask))


class TestOneHot:
    def test_expands_levels_in_declared_order(self):
        ds = make_dataset(
            [ColumnSchema("c", "categorical", levels=("x", "y", "z"))],
            [[0.0], [2.0], [1.0]],
        )
        out = one_hot(ds)
        assert out.column_names == ("c=x", "c=y", "c=z")
        assert np.array_equal(
            out.matrix.values, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )

    def test_missing_cell_masks_whole_indicator_block(self):
        ds = make_dataset(
            [ColumnSchema("c", "binary", levels=("no", "yes")), ColumnSchema("h", "continuous")],
            [[0.0, 1.0], [1.0, 2.0]],
            mask=[[False, True], [True, True]],
        )
        out = one_hot(ds)
        assert out.column_names == ("c=no", "c=yes", "h")
        assert np.array_equal(out.matrix.mask[:, :2], [[False, False], [True, True]])

    def test_numeric_ordinals_and_continuous_pass_through(self):
        ds = make_dataset(
            [
                ColumnSchema("g", "ordinal", levels=("a", "b", "c"), as_numeric=True),
                ColumnSchema("h", "continuous"),
            ],
            [[2.0, 5.0], [0.0, 6.0]],
        )
        out = one_hot(ds)
        assert out.column_names == ("g", "h")
        assert np.array_equal(out.matrix.values, ds.matrix.values)


class TestCenterScale:
    def test_continuous_column_standardized_to_unit_sample_std(self):
        ds = make_dataset([ColumnSchema("h", "continuous")], [[1.0], [2.0], [3.0]])
        out = center_scale(ds)
        # Sample (n-1) standard deviation of [1, 2, 3] is exactly 1.
        assert np.allclose(out.matrix.values[:, 0], [-1.0, 0.0, 1.0])
        column = out.matrix.values[:, 0]
        assert column.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        assert any("std_convention=sample(n-1)" in step for step in out.provenance)

    def test_indicator_column_centered_but_not_scaled(self):
        ds = make_dataset(
            [ColumnSchema("c=x", "binary", levels=("0", "1"))], [[1.0], [0.0], [0.0]]
        )
        out = center_scale(ds)
        assert np.allclose(out.matrix.values[:, 0], [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])

    def test_centering_uses_observed_entries_only(self):
        ds = make_dataset(
            [ColumnSchema("h", "continuous")],
            [[1.0], [3.0], [99.0]],
            mask=[[True], [True], [False]],
        )
        out = center_scale(ds)
        observed = out.matrix.values[:2, 0]
        assert observed.sum() == pytest.approx(0.0, abs=1e-12)
        assert out.matrix.values[2, 0] == 0.0

    def test_zero_variance_continuous_column_dropped_with_warning(self):
        ds = make_dataset(
            [ColumnSchema("h", "continuous"), ColumnSchema("k", "continuous")],
            [[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]],
        )
        out = center_scale(ds)
        assert out.column_names == ("k",)
        assert any("dropped_zero_variance=h" in step for step in out.provenance)

    def test_all_kinds_become_continuous(self):
        ds = make_dataset(
            [ColumnSchema("c=x", "binary", levels=("0", "1"))], [[1.0], [0.0], [1.0]]
        )
        out = center_scale(ds)
        assert all(c.kind == "continuous" for c in out.schema)

    def test_columns_need_two_observed_entries(self):
        ds = make_dataset(
            [ColumnSchema("h", "continuous")], [[1.0], [2.0]], mask=[[True], [False]]
        )
        with pytest.raises(DataError, match="at least 2"):
            center_scale(ds)


class TestDropSparseColumns:
    def test_drops_strictly_above_threshold(self):
        ds = make_dataset(
            [ColumnSchema("a", "continuous"), ColumnSchema("b", "continuous")],
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
            mask=[[True, False], [True, False], [True, True], [True, True]],
        )
        # Column b is 50% missing: exactly at the threshold, so it stays.
        assert drop_sparse_columns(ds, 0.5).column_names == ("a", "b")
        assert drop_sparse_columns(ds, 0.49).column_names == ("a",)

    def test_both_filters_keep_the_same_columns(self):
        # Columns b and c miss 1 and 2 of 3 rows; a column whose missing
        # fraction equals the threshold stays.
        ds = make_dataset(
            [ColumnSchema(name, "continuous") for name in "abc"],
            np.arange(9.0).reshape(3, 3),
            mask=[[True, True, False], [True, False, False], [True, True, True]],
        )
        for threshold, names in [(1 / 3, "ab"), (0.5, "ab"), (2 / 3, "abc"), (1.0, "abc")]:
            assert drop_sparse_columns(ds, threshold).column_names == tuple(names)
            kept = drop_sparse_matrix_columns(ds.matrix, threshold)
            keep = [ds.column_names.index(name) for name in names]
            assert np.array_equal(kept.values, ds.matrix.values[:, keep])
            assert np.array_equal(kept.mask, ds.matrix.mask[:, keep])

    def test_missing_fraction_at_the_threshold_is_kept(self):
        # Column k of an n-row matrix misses k rows.  At threshold k / n
        # exactly the columns 0..k stay, for every k and n.
        for n in range(1, 61):
            mask = np.arange(n)[:, None] >= np.arange(n + 1)[None, :]
            matrix = MaskedMatrix(np.zeros((n, n + 1)), mask)
            for k in range(n + 1):
                kept = drop_sparse_matrix_columns(matrix, k / n)
                assert kept.n_cols == k + 1
                assert np.array_equal(kept.mask, mask[:, : k + 1])

    def test_all_columns_dropped_is_an_error(self):
        ds = make_dataset(
            [ColumnSchema("a", "continuous")],
            [[1.0], [2.0], [3.0]],
            mask=[[True], [False], [False]],
        )
        with pytest.raises(DataError):
            drop_sparse_columns(ds, 0.1)

    def test_threshold_validation(self):
        ds = make_dataset([ColumnSchema("a", "continuous")], [[1.0], [2.0]])
        with pytest.raises(ConfigError):
            drop_sparse_columns(ds, -0.1)
        with pytest.raises(ConfigError):
            drop_sparse_columns(ds, 1.1)


class TestPreprocessChain:
    def build(self, tmp_path):
        schema = (
            ColumnSchema("height", "continuous"),
            ColumnSchema("width", "continuous"),
            ColumnSchema("color", "categorical", levels=("red", "green", "blue")),
            ColumnSchema("flag", "binary", levels=("no", "yes")),
            ColumnSchema("grade", "ordinal", levels=("low", "mid", "high")),
            ColumnSchema("mostly_gone", "continuous"),
        )
        rows = [
            "1.0,5.0,red,no,low,NA",
            "2.0,6.5,green,yes,mid,NA",
            "3.0,4.5,blue,no,high,1.0",
            "4.0,5.5,red,yes,low,NA",
            "2.5,6.0,NA,no,mid,NA",
            "1.5,4.0,green,yes,high,NA",
        ]
        path = tmp_path / "mixed.csv"
        write_lines(path, ["height,width,color,flag,grade,mostly_gone"] + rows)
        return load_csv(path, schema)

    def test_sparse_column_dropped_then_discrete_expanded(self, tmp_path):
        out = preprocess(self.build(tmp_path))
        names = out.column_names
        assert "mostly_gone" not in names
        assert "color=red" in names and "grade=high" in names and "flag=yes" in names
        assert out.matrix.n_rows == 6

    def test_every_column_centered_and_continuous_columns_unit_std(self, tmp_path):
        out = preprocess(self.build(tmp_path))
        mat = out.matrix
        for j, name in enumerate(out.column_names):
            obs = mat.mask[:, j]
            column = mat.values[obs, j]
            assert abs(column.mean()) <= 1e-10, name
            if name in ("height", "width"):
                assert column.std(ddof=1) == pytest.approx(1.0, abs=1e-10), name

    def test_provenance_records_chain_in_order(self, tmp_path):
        out = preprocess(self.build(tmp_path))
        kinds = [step.split()[0] for step in out.provenance]
        assert kinds == ["load_csv", "drop_sparse_columns", "one_hot", "center_scale"]


class TestMatrixRoute:
    def test_round_trip_with_missing_cells(self, tmp_path):
        values = np.array([[1.25, -3.5], [0.1, 2.0], [4.0, 0.0]])
        mask = np.array([[True, False], [True, True], [False, True]])
        matrix = MaskedMatrix(values, mask)
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        again = load_matrix_csv(path)
        assert np.array_equal(matrix.values, again.values)
        assert np.array_equal(matrix.mask, again.mask)

    def test_load_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(path, ["c0,c1", "1.0,notanumber"])
        with pytest.raises(LoadError, match="c1"):
            load_matrix_csv(path)
        write_lines(path, ["c0,c1", "1.0"])
        with pytest.raises(LoadError, match="row 1"):
            load_matrix_csv(path)
        write_lines(path, ["c0,c1"])
        with pytest.raises(LoadError, match="no data rows"):
            load_matrix_csv(path)

    def test_drop_sparse_matrix_columns(self):
        values = np.ones((4, 2))
        mask = np.array([[True, False], [True, False], [True, False], [True, True]])
        kept = drop_sparse_matrix_columns(MaskedMatrix(values, mask), 0.5)
        assert kept.shape == (4, 1)
        sparse_everywhere = np.zeros((4, 2), dtype=bool)
        sparse_everywhere[0] = True  # 75% missing in both columns
        with pytest.raises(DataError):
            drop_sparse_matrix_columns(MaskedMatrix(values, sparse_everywhere), 0.5)
        with pytest.raises(ConfigError):
            drop_sparse_matrix_columns(MaskedMatrix(values, mask), 2.0)

    def test_center_columns_centers_observed_means_only(self):
        values = np.array([[2.0, 10.0], [4.0, 20.0], [6.0, 0.0]])
        mask = np.array([[True, True], [True, True], [True, False]])
        centered = center_columns(MaskedMatrix(values, mask))
        assert np.allclose(centered.values[:, 0], [-2.0, 0.0, 2.0])
        assert np.allclose(centered.values[:2, 1], [-5.0, 5.0])
        assert centered.values[2, 1] == 0.0
        # No rescaling happens on the matrix route.
        assert centered.values[:, 0].std(ddof=1) == pytest.approx(2.0)
