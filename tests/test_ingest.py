"""Schema-driven CSV ingest, the one preprocessing pass, and the plain
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
    csv_table,
    load_csv,
    preprocess,
    read_schema,
)
from sigpca.ingest import center_columns, drop_sparse_matrix_columns, load_matrix_csv


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

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start the file with a byte-order mark.
        path = tmp_path / "schema.txt"
        path.write_text("height continuous\nflag binary no,yes\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_schema(path) == (MIXED_SCHEMA[0], MIXED_SCHEMA[2])

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

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        plain = mixed_csv(tmp_path, ["1.5,red,yes,low", "2.5,NA,no,high", ",blue,yes,mid"])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = load_csv(plain, MIXED_SCHEMA).matrix
        matrix = load_csv(marked, MIXED_SCHEMA).matrix
        assert np.array_equal(matrix.values, expected.values)
        assert np.array_equal(matrix.mask, expected.mask)

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

    @pytest.mark.parametrize(
        "levels, tokens, level",
        [
            ("a,b,NA", ("", "NA"), "NA"),
            ("a,,b", ("", "NA"), ""),
            ("a,b,z", ("", "NA", "z"), "z"),
        ],
        ids=["NA", "empty", "custom-token"],
    )
    def test_level_that_is_a_missing_token_rejected(self, tmp_path, levels, tokens, level):
        # Such a level's cells would all read as missing, and its
        # indicator would be a column of zeros.
        schema_path = tmp_path / "schema.txt"
        write_lines(schema_path, ["h continuous", f"c categorical {levels}"])
        path = tmp_path / "data.csv"
        write_lines(path, ["h,c", "1.0,a", "2.0,b", "3.0,a"])
        with pytest.raises(LoadError, match=f"column 'c': level '{level}' is a missing token"):
            load_csv(path, read_schema(schema_path), missing_tokens=tokens)


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
        out = preprocess(ds)
        assert out.column_names == ("c=x", "c=y", "c=z")
        indicators = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(out.matrix.values, indicators - 1.0 / 3.0)

    def test_missing_cell_masks_whole_indicator_block(self):
        ds = make_dataset(
            [ColumnSchema("c", "binary", levels=("no", "yes")), ColumnSchema("h", "continuous")],
            [[0.0, 1.0], [1.0, 2.0], [0.0, 4.0]],
            mask=[[False, True], [True, True], [True, True]],
        )
        out = preprocess(ds)
        assert out.column_names == ("c=no", "c=yes", "h")
        assert np.array_equal(
            out.matrix.mask[:, :2], [[False, False], [True, True], [True, True]]
        )
        assert np.array_equal(out.matrix.values[0, :2], [0.0, 0.0])
        assert "encoded=c " in out.provenance[-1]

    def test_numeric_ordinals_and_continuous_pass_through(self):
        ds = make_dataset(
            [
                ColumnSchema("g", "ordinal", levels=("a", "b", "c"), as_numeric=True),
                ColumnSchema("h", "continuous"),
            ],
            [[2.0, 5.0], [0.0, 6.0], [1.0, 8.0]],
        )
        out = preprocess(ds)
        assert out.column_names == ("g", "h")
        # The level index is kept as a code: centered, never scaled.
        assert np.array_equal(out.matrix.values[:, 0], [1.0, -1.0, 0.0])
        h = np.array([5.0, 6.0, 8.0])
        assert np.allclose(out.matrix.values[:, 1], (h - h.mean()) / h.std(ddof=1))
        assert "encoded=- " in out.provenance[-1]
        assert "scaled=h " in out.provenance[-1]


class TestCenterScale:
    def test_continuous_column_standardized_to_unit_sample_std(self):
        ds = make_dataset([ColumnSchema("h", "continuous")], [[1.0], [2.0], [3.0]])
        out = preprocess(ds)
        # Sample (n-1) standard deviation of [1, 2, 3] is exactly 1.
        assert np.allclose(out.matrix.values[:, 0], [-1.0, 0.0, 1.0])
        column = out.matrix.values[:, 0]
        assert column.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        assert any("std_convention=sample(n-1)" in step for step in out.provenance)

    def test_indicator_column_centered_but_not_scaled(self):
        ds = make_dataset(
            [ColumnSchema("c", "binary", levels=("x", "y"))], [[0.0], [1.0], [1.0]]
        )
        out = preprocess(ds)
        assert out.column_names == ("c=x", "c=y")
        assert np.allclose(out.matrix.values[:, 0], [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
        assert np.allclose(out.matrix.values[:, 1], [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
        assert "scaled=- " in out.provenance[-1]

    def test_centering_uses_observed_entries_only(self):
        ds = make_dataset(
            [ColumnSchema("h", "continuous")],
            [[1.0], [3.0], [99.0]],
            mask=[[True], [True], [False]],
        )
        out = preprocess(ds)
        observed = out.matrix.values[:2, 0]
        assert observed.sum() == pytest.approx(0.0, abs=1e-12)
        assert out.matrix.values[2, 0] == 0.0

    def test_constant_columns_of_every_kind_dropped(self):
        # A declared level that no row has, a binary column seen at one
        # level and a constant numeric ordinal each give a constant column.
        schema = [
            ColumnSchema("h", "continuous"),
            ColumnSchema("c", "categorical", levels=("a", "b", "z")),
            ColumnSchema("b", "binary", levels=("no", "yes")),
            ColumnSchema("g", "ordinal", levels=("lo", "mid", "hi"), as_numeric=True),
        ]
        values = [[1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 1.0, 2.0], [4.0, 0.0, 1.0, 2.0]]
        out = preprocess(make_dataset(schema, values))
        assert out.column_names == ("h", "c=a", "c=b")
        assert out.provenance[-1].endswith("dropped_zero_variance=c=z,b=no,b=yes,g")
        # The unused level leaves the same matrix as a schema without it.
        schema[1] = ColumnSchema("c", "categorical", levels=("a", "b"))
        same = preprocess(make_dataset(schema, values))
        assert same.column_names == out.column_names
        assert same.matrix.values.tobytes() == out.matrix.values.tobytes()

    def test_zero_variance_continuous_column_dropped_with_warning(self):
        ds = make_dataset(
            [ColumnSchema("h", "continuous"), ColumnSchema("k", "continuous")],
            [[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]],
        )
        out = preprocess(ds)
        assert out.column_names == ("k",)
        assert any("dropped_zero_variance=h" in step for step in out.provenance)

    def test_all_kinds_become_continuous(self):
        ds = make_dataset(
            [
                ColumnSchema("h", "continuous"),
                ColumnSchema("c", "categorical", levels=("x", "y", "z")),
                ColumnSchema("o", "ordinal", levels=("lo", "hi")),
                ColumnSchema("g", "ordinal", levels=("lo", "hi"), as_numeric=True),
                ColumnSchema("b", "binary", levels=("no", "yes")),
            ],
            [[1.0, 0.0, 0.0, 1.0, 1.0], [2.0, 1.0, 1.0, 0.0, 0.0], [4.0, 2.0, 1.0, 1.0, 1.0]],
        )
        out = preprocess(ds)
        assert len(out.schema) == 9
        assert all(c.kind == "continuous" and c.levels is None for c in out.schema)

    def test_columns_need_two_observed_entries(self):
        ds = make_dataset(
            [ColumnSchema("h", "continuous")], [[1.0], [2.0]], mask=[[True], [False]]
        )
        with pytest.raises(DataError, match="'h' has 1 observed entries; need at least 2"):
            preprocess(ds)
        # A discrete column is named by its source column, not an indicator.
        ds = make_dataset(
            [ColumnSchema("c", "binary", levels=("x", "y"))], [[1.0], [0.0]],
            mask=[[True], [False]],
        )
        with pytest.raises(DataError, match="'c' has 1 observed entries"):
            preprocess(ds)


class TestDropSparseColumns:
    def test_drops_strictly_above_threshold(self):
        ds = make_dataset(
            [ColumnSchema("a", "continuous"), ColumnSchema("b", "continuous")],
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
            mask=[[True, False], [True, False], [True, True], [True, True]],
        )
        # Column b is 50% missing: exactly at the threshold, so it stays.
        assert preprocess(ds, 0.5).column_names == ("a", "b")
        out = preprocess(ds, 0.49)
        assert out.column_names == ("a",)
        assert "threshold=0.49 dropped_sparse=b " in out.provenance[-1]

    def test_both_filters_keep_the_same_columns(self):
        # Columns b and c miss 2 and 4 of 6 rows; a column whose missing
        # fraction equals the threshold stays.
        ds = make_dataset(
            [ColumnSchema(name, "continuous") for name in "abc"],
            np.arange(18.0).reshape(6, 3),
            mask=[[True, True, False], [True, False, False], [True, True, True]] * 2,
        )
        for threshold, names in [(1 / 3, "ab"), (0.5, "ab"), (2 / 3, "abc"), (1.0, "abc")]:
            assert preprocess(ds, threshold).column_names == tuple(names)
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
        with pytest.raises(DataError, match="every column exceeds"):
            preprocess(ds, 0.1)

    def test_threshold_validation(self):
        ds = make_dataset([ColumnSchema("a", "continuous")], [[1.0], [2.0]])
        with pytest.raises(ConfigError):
            preprocess(ds, -0.1)
        with pytest.raises(ConfigError):
            preprocess(ds, 1.1)


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
        assert kinds == ["load_csv", "preprocess"]
        assert out.provenance[-1].split()[1:] == [
            "threshold=0.5",
            "dropped_sparse=mostly_gone",
            "encoded=color,flag,grade",
            "std_convention=sample(n-1)",
            "scaled=height,width",
            "dropped_zero_variance=-",
        ]

    def test_matches_a_numpy_reference_bit_for_bit(self):
        # One-hot every discrete column on the full matrix, then center
        # each output column on its observed mean and scale the continuous
        # ones by their sample (n-1) sd.
        gen = np.random.default_rng(5)
        n = 50
        schema = (
            ColumnSchema("x", "continuous"),
            ColumnSchema("c", "categorical", levels=("p", "q", "r", "s")),
            ColumnSchema("y", "continuous"),
            ColumnSchema("o", "ordinal", levels=("lo", "mid", "hi")),
            ColumnSchema("g", "ordinal", levels=("lo", "mid", "hi"), as_numeric=True),
            ColumnSchema("b", "binary", levels=("no", "yes")),
        )
        values = np.column_stack([
            gen.normal(40.0, 7.0, n),
            gen.integers(0, 4, n),
            gen.normal(-3.0, 0.01, n),
            gen.integers(0, 3, n),
            gen.integers(0, 3, n),
            gen.integers(0, 2, n),
        ]).astype(np.float64)
        mask = gen.uniform(size=values.shape) > 0.15
        out = preprocess(make_dataset(schema, np.where(mask, values, 0.0), mask))

        blocks, block_masks, continuous = [], [], []
        for j, col in enumerate(schema):
            if col.is_discrete and not col.as_numeric:
                levels = np.arange(len(col.levels))
                block = (values[:, j : j + 1] == levels).astype(np.float64)
            else:
                block = values[:, j : j + 1]
            blocks.append(block)
            block_masks.append(np.repeat(mask[:, j : j + 1], block.shape[1], axis=1))
            continuous += [col.kind == "continuous"] * block.shape[1]
        reference = np.hstack(blocks)
        ref_mask = np.hstack(block_masks)
        for k in range(reference.shape[1]):
            obs = ref_mask[:, k]
            column = reference[obs, k] - reference[obs, k].mean()
            if continuous[k]:
                column = column / np.sqrt(column @ column / (column.size - 1))
            reference[:, k] = 0.0
            reference[obs, k] = column

        assert out.matrix.shape == (n, 12)
        assert out.matrix.values.tobytes() == reference.tobytes()
        assert np.array_equal(out.matrix.mask, ref_mask)


class TestMatrixRoute:
    def test_round_trip_with_missing_cells(self, tmp_path):
        values = np.array([[1.25, -3.5], [0.1, 2.0], [4.0, 0.0]])
        mask = np.array([[True, False], [True, True], [False, True]])
        matrix = MaskedMatrix(values, mask)
        path = tmp_path / "m.csv"
        # None is written as an empty cell, a default missing token.
        rows = [
            {f"c{j}": v if m else None for j, (v, m) in enumerate(zip(v_row, m_row))}
            for v_row, m_row in zip(values.tolist(), mask.tolist())
        ]
        path.write_text(csv_table(rows))
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
