"""CSV ingest: one CSV reader with two entry points, and one
preprocessing pass for typed tables.

:func:`load_csv` (typed tables, checked against a schema) and
:func:`load_matrix_csv` (plain numeric matrices) share one reader: it
strips the header, asks the entry point for one cell parser per column,
masks missing tokens and reports bad cells by row and column.  The two
sparse-column filters likewise share one keep computation.

:func:`preprocess` visits each source column once: it drops the column
if it is mostly missing, encodes it as its output block, and centers
(and, if continuous, scales) that block.  Discrete columns are stored
as level indices and become one indicator per declared level, in level
order; ordinal columns whose schema entry sets ``as_numeric`` keep the
level index as a numeric code instead.  The pass appends one line to
the dataset's provenance log.

Schema-driven ingest is for heterogeneous tables whose columns live on
unrelated scales.  Numeric matrices already on one common scale (the
synthetic benchmarks, or any pre-standardised export) instead go
through :func:`load_matrix_csv` and :func:`center_columns`: columns are
centered on their observed means but never rescaled, because dividing
columns of a homogeneous matrix by their individual standard deviations
would distort the very variance structure under test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, LoadError
from .linalg import MaskedMatrix

KINDS = ("continuous", "categorical", "ordinal", "binary")
DISCRETE_KINDS = ("categorical", "ordinal", "binary")
DEFAULT_MISSING_TOKENS = ("", "NA")
# Columns missing more than this fraction of their rows are dropped.
DEFAULT_SPARSE_THRESHOLD = 0.5

_MIN_LEVELS = 2
_MAX_LEVELS = 11
# Sample std at or below this (relative) bound counts as zero variance.
_ZERO_STD_RTOL = 1e-12


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name, kind and (for discrete kinds) ordered levels of one
    column.  ``as_numeric`` keeps an ordinal column as its level index
    instead of expanding it to indicators."""

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    as_numeric: bool = False

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip() or " " in self.name:
            raise ConfigError(f"invalid column name {self.name!r}")
        if self.kind not in KINDS:
            raise ConfigError(
                f"column {self.name!r}: kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind == "continuous":
            if self.levels is not None:
                raise ConfigError(f"column {self.name!r}: continuous columns take no levels")
        else:
            levels = tuple(self.levels or ())
            low, high = (2, 2) if self.kind == "binary" else (_MIN_LEVELS, _MAX_LEVELS)
            if not low <= len(levels) <= high:
                raise ConfigError(
                    f"column {self.name!r}: {self.kind} needs between {low} and "
                    f"{high} levels, got {len(levels)}"
                )
            if len(set(levels)) != len(levels):
                raise ConfigError(f"column {self.name!r}: duplicate levels")
            object.__setattr__(self, "levels", levels)
        if self.as_numeric and self.kind != "ordinal":
            raise ConfigError(
                f"column {self.name!r}: as_numeric applies only to ordinal columns"
            )

    @property
    def is_discrete(self) -> bool:
        return self.kind in DISCRETE_KINDS


@dataclass(frozen=True)
class Dataset:
    """A masked matrix with per-column schema and the ordered provenance
    log of every transform applied so far."""

    schema: tuple[ColumnSchema, ...]
    matrix: MaskedMatrix
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if len(self.schema) != self.matrix.n_cols:
            raise DataError(
                f"schema describes {len(self.schema)} columns, matrix has "
                f"{self.matrix.n_cols}"
            )
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)


def _names(columns) -> str:
    return ",".join(columns) if columns else "-"


def _parse_number(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable number {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _level_parser(levels: tuple[str, ...]):
    index = {lvl: float(i) for i, lvl in enumerate(levels)}

    def parse(cell: str) -> float:
        try:
            return index[cell]
        except KeyError:
            raise ValueError(f"value {cell!r} not among levels {list(levels)}") from None

    return parse


def _read_csv(path, missing_tokens, column_parsers) -> MaskedMatrix:
    """The one CSV reader behind both ingest routes.

    ``column_parsers`` receives the stripped header before any data row
    is read, checks it (raising LoadError), and returns one parser per
    column.  Cells are stripped of surrounding whitespace; a cell matching
    one of ``missing_tokens`` is recorded as missing, and any other cell
    goes to its column's parser, whose ValueError becomes a LoadError
    naming the row and column.
    """
    tokens = frozenset(missing_tokens)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        columns = list(zip(header, column_parsers(header)))
        values: list[list[float]] = []
        mask: list[list[bool]] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(columns):
                raise LoadError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(columns)}"
                )
            v_row = []
            m_row = []
            for (name, parse), cell in zip(columns, row):
                cell = cell.strip()
                if cell in tokens:
                    v_row.append(0.0)
                    m_row.append(False)
                    continue
                try:
                    value = parse(cell)
                except ValueError as exc:
                    raise LoadError(f"{path}: row {row_num}, column {name!r}: {exc}") from None
                v_row.append(value)
                m_row.append(True)
            values.append(v_row)
            mask.append(m_row)
    if not values:
        raise LoadError(f"{path}: no data rows")
    return MaskedMatrix(
        np.asarray(values, dtype=np.float64), np.asarray(mask, dtype=bool)
    )


def load_csv(path, schema, missing_tokens=DEFAULT_MISSING_TOKENS) -> Dataset:
    """Parse a CSV file against ``schema``.

    The header must list exactly the schema's column names in order.
    Cells are stripped of surrounding whitespace; a cell matching one of
    ``missing_tokens`` is recorded as missing.  Continuous cells must
    parse as numbers and discrete cells must match a declared level,
    otherwise a LoadError names the offending row and column.
    """
    schema = tuple(schema)
    names = [c.name for c in schema]

    def parsers(header):
        if header != names:
            raise LoadError(
                f"{path}: header {header} does not match schema columns {names}"
            )
        return [_level_parser(c.levels) if c.is_discrete else _parse_number for c in schema]

    matrix = _read_csv(path, missing_tokens, parsers)
    step = (
        f"load_csv path={path} rows={matrix.n_rows} cols={matrix.n_cols} "
        f"missing_tokens={sorted(frozenset(missing_tokens))!r}"
    )
    return Dataset(schema=schema, matrix=matrix, provenance=(step,))


def load_matrix_csv(path, missing_tokens=DEFAULT_MISSING_TOKENS) -> MaskedMatrix:
    """Parse a plain numeric CSV (header row then number cells) into a
    masked matrix.  Cells matching a missing token are masked out; any
    other cell must parse as a finite number."""
    return _read_csv(path, missing_tokens, lambda header: [_parse_number] * len(header))


def write_matrix_csv(matrix: MaskedMatrix, path, missing_token: str = "NA") -> None:
    """Write a masked matrix as a plain numeric CSV, inverse of
    :func:`load_matrix_csv`.  Columns are headed c0, c1, ... and values
    use shortest round-trip formatting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{j}" for j in range(matrix.n_cols)])
        for i in range(matrix.n_rows):
            writer.writerow(
                [
                    repr(float(matrix.values[i, j])) if matrix.mask[i, j] else missing_token
                    for j in range(matrix.n_cols)
                ]
            )


def _dense_columns(matrix: MaskedMatrix, threshold: float) -> np.ndarray:
    """Keep-mask of the columns whose missing fraction is at most
    ``threshold``; shared by both sparse-column filters.  The fraction is
    one rounding of the exact missing count, so a column missing k of n
    rows stays at the threshold k / n."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    missing = matrix.n_rows - matrix.column_observed_counts()
    keep = missing / matrix.n_rows <= threshold
    if not np.any(keep):
        raise DataError("every column exceeds the missing-fraction threshold")
    return keep


def drop_sparse_matrix_columns(
    matrix: MaskedMatrix, threshold: float = DEFAULT_SPARSE_THRESHOLD
) -> MaskedMatrix:
    """Drop matrix columns whose missing fraction strictly exceeds
    ``threshold``; schema-less counterpart of the drop in :func:`preprocess`."""
    keep = _dense_columns(matrix, threshold)
    if np.all(keep):
        return matrix
    return MaskedMatrix(matrix.values[:, keep], matrix.mask[:, keep])


def center_columns(matrix: MaskedMatrix) -> MaskedMatrix:
    """Center every column on its observed mean, without any rescaling.

    This is the whole preprocessing owed to a numeric matrix already on
    one common scale.  Columns need at least one observed entry (already
    guaranteed by the sparse-column drop at any sane threshold).
    """
    means = matrix.column_means()
    values = np.where(matrix.mask, matrix.values - means, 0.0)
    return MaskedMatrix(values, matrix.mask)


def preprocess(
    dataset: Dataset, sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD
) -> Dataset:
    """Turn a typed dataset into centered continuous columns, one source
    column at a time.

    A column missing more than ``sparse_threshold`` of its rows is
    dropped.  A kept column becomes its output block: a discrete column
    gives one indicator per declared level, computed on its observed
    rows, so a missing cell is missing across the whole block; an
    ordinal flagged ``as_numeric`` keeps its level index, and a
    continuous column passes through.  Every output column is centered
    on its observed mean.  Continuous columns are also scaled to unit
    sample (n-1) standard deviation, and dropped if that is zero.  Each
    kept column needs at least 2 observed entries.  One provenance line
    names the sparse, encoded, scaled and zero-variance columns.
    """
    mat = dataset.matrix
    keep = _dense_columns(mat, sparse_threshold)
    names: list[str] = []
    columns: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    sparse: list[str] = []
    encoded: list[str] = []
    scaled: list[str] = []
    constant: list[str] = []
    for j, col in enumerate(dataset.schema):
        if not keep[j]:
            sparse.append(col.name)
            continue
        obs = mat.mask[:, j]
        observed = mat.values[obs, j]
        if observed.size < 2:
            raise DataError(
                f"column {col.name!r} has {observed.size} observed entries; need at least 2"
            )
        if col.is_discrete and not col.as_numeric:
            encoded.append(col.name)
            block = [
                (f"{col.name}={lvl}", (observed == i).astype(np.float64))
                for i, lvl in enumerate(col.levels)
            ]
        else:
            block = [(col.name, observed)]
        for name, column in block:
            mean = column.mean()
            column = column - mean
            if col.kind == "continuous":
                std = float(np.sqrt(np.dot(column, column) / (column.size - 1)))
                if std <= _ZERO_STD_RTOL * max(1.0, abs(mean)):
                    constant.append(name)
                    continue
                column = column / std
                scaled.append(name)
            full = np.zeros(mat.n_rows)
            full[obs] = column
            names.append(name)
            columns.append(full)
            masks.append(obs)
    if not columns:
        raise DataError("no columns left after dropping zero-variance columns")
    step = (
        f"preprocess threshold={sparse_threshold} dropped_sparse={_names(sparse)} "
        f"encoded={_names(encoded)} std_convention=sample(n-1) "
        f"scaled={_names(scaled)} dropped_zero_variance={_names(constant)}"
    )
    return Dataset(
        schema=tuple(ColumnSchema(name=name, kind="continuous") for name in names),
        matrix=MaskedMatrix(np.column_stack(columns), np.column_stack(masks)),
        provenance=dataset.provenance + (step,),
    )


def read_schema(path) -> tuple[ColumnSchema, ...]:
    """Parse a schema file.

    One column per line: ``name kind`` for continuous columns,
    ``name kind level,level,...`` for discrete ones, with an optional
    trailing ``numeric`` token for ordinals kept as numeric codes.
    Blank lines and ``#`` comments are ignored.
    """
    columns: list[ColumnSchema] = []
    with open(path) as handle:
        for line_num, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2 or len(parts) > 4:
                raise LoadError(f"{path}: line {line_num}: expected 'name kind [levels] [numeric]'")
            name, kind, *rest = parts
            as_numeric = rest[-1:] == ["numeric"]
            if as_numeric:
                rest = rest[:-1]
            if len(rest) > 1:
                raise LoadError(
                    f"{path}: line {line_num}: expected 'numeric' after the levels, "
                    f"got {rest[-1]!r}"
                )
            levels = tuple(rest[0].split(",")) if rest else None
            try:
                columns.append(
                    ColumnSchema(name=name, kind=kind, levels=levels, as_numeric=as_numeric)
                )
            except ConfigError as exc:
                raise LoadError(f"{path}: line {line_num}: {exc}") from exc
    if not columns:
        raise LoadError(f"{path}: no columns declared")
    return tuple(columns)
