"""The benchmark's workloads: inputs made from a seed, the analysis one
operation runs, and the checks of its output.

Each workload object is built from ``--seed`` alone (its set-up), and
``operations()`` lists one round: the analyses a run repeats, in order,
until its time is up.  Every round is the same, so a run's medians and
rates do not depend on how many rounds fit in it.  The program sees only
the generated inputs: matrices for the library-run grid, CSV files for
the two command-line workloads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sigpca import cli, ingest, pipeline, synthetic
from sigpca.rng import derive_seed

import checks

# The acceptance-grid settings: 500 null draws, one worker, and the
# per-run seed tag that ``run_validation`` derives from each cell's seed.
GRID_OPTIONS = pipeline.AnalysisOptions(n_null_samples=500, alpha=0.05)
GRID_RUN_SEED_TAG = 101
# One round of grid-i: three diagonals of the 7 x 4 grid of scenario "i"
# (column count x planted count), so each column count appears three
# times and each planted count five or six times.  All 28 cells take
# about 40 s on a 2-core machine, too long for one run; with two
# diagonals the cost of a round varied by 15% between seeds.
GRID_DIAGONALS = (0, 1, 2)

MIXED_ROWS = 414
MIXED_FACTORS = 2
MIXED_MISSING = 0.08
# Standard deviation of each column score's own noise, against factor
# loadings of about unit size: both factors stand clear of the noise, so
# an estimate below 2 is a fault, not bad luck.
MIXED_NOISE = 0.5
# The loadings, offsets and scales of the table's columns are the same for
# every --seed, which draws only the factors, the noise and the missing
# cells.  With loadings drawn per seed the number of components the fit
# keeps, and with it the analysis time, varied by half between seeds.
MIXED_SHAPE_SEED = 20240
MIXED_WIDTH = 28  # 6 continuous + 3 x 4 + 2 x 4 + 2 indicator columns
# At the default settings (scan 2 to 27, 2000 null draws) one analysis of
# a table takes about 32 s.  Scanning 2 to 8 with 500 draws it takes about
# 3 s, so a run can average over 8 tables: the cost of one table varies by
# a factor up to 1.5 with the number of sweeps its fits take.
MIXED_ARGS = ("--q-max", "8", "--null-samples", "500")
MIXED_TABLES = 8

WIDE_ROWS = 400
WIDE_COLS = 80
WIDE_PLANTED = 5
WIDE_SCALE = 0.5
WIDE_ARGS = ("--null-samples", "200", "--workers", "2")
# A 1000 x 200 matrix takes 67 s per analysis, 400 x 80 about 5 s.  The
# cost of one matrix varies by up to 1.6x with the sweeps its fits take,
# so a run averages over several.
WIDE_MATRICES = 5


@dataclass
class Operation:
    """One analysis of a round: ``run`` performs it and returns the JSON
    report text; ``check`` judges that text (and anything ``run`` kept).
    ``cells`` is the size of the input matrix."""

    label: str
    run: object
    check: object
    cells: int


def _gen(seed: int, tag: int, k: int) -> np.random.Generator:
    """Generator of input k of the workload tagged ``tag``."""
    return np.random.default_rng([seed, tag, k])


class GridWorkload:
    """grid-i: cells of validation scenario "i" through ``analyze_numeric``."""

    name = "grid-i"

    def __init__(self, seed: int, out_dir: Path):
        specs = synthetic.scenario_grid("i", base_seed=seed, replicates=1)
        n_counts = len(synthetic.SCENARIO_SIGNIFICANT)
        picks = [
            size_idx * n_counts + (size_idx + diag) % n_counts
            for diag in GRID_DIAGONALS
            for size_idx in range(len(synthetic.SCENARIO_SWEPT_SIZES))
        ]
        self.specs = [specs[i] for i in picks]
        self.matrices = [synthetic.generate(spec) for spec in self.specs]
        self.options = [
            replace(GRID_OPTIONS, seed=derive_seed(spec.seed, GRID_RUN_SEED_TAG))
            for spec in self.specs
        ]
        self.outcomes: dict[str, tuple[int, int]] = {}

    def operations(self) -> list[Operation]:
        ops = []
        for spec, matrix, options in zip(self.specs, self.matrices, self.options):
            label = f"150x{spec.n_cols}_w{spec.n_significant}"
            ops.append(self._operation(label, spec, matrix, options))
        return ops

    def _operation(self, label, spec, matrix, options) -> Operation:
        kept = {}

        def run() -> str:
            result = pipeline.analyze_numeric(matrix, options)
            text = pipeline.report_to_json(pipeline.build_report(result, label, options))
            kept["result"] = result
            return text

        def check(text: str) -> None:
            report = json.loads(text)
            checks.check_report(report)
            result = kept.pop("result")
            centered = np.asarray(matrix.values) - np.asarray(matrix.values).mean(axis=0)
            checks.check_spectrum_matches_svd(
                [row["eigenvalue"] for row in report["ranks"]],
                result.recon.mean,
                float(np.sum(centered**2)),
            )
            checks.check_not_above_planted(report["n_significant"], spec.n_significant, label)
            self.outcomes[label] = (spec.n_significant, report["n_significant"])

        return Operation(label, run, check, spec.n_rows * spec.n_cols)

    def check_run(self) -> None:
        checks.check_low_count_misses(self.outcomes.values())


def write_mixed_table(seed: int, k: int, data_path: Path, schema_path: Path) -> dict:
    """Write the mixed-type table and its schema; return what was written.

    Two standard normal factors drive every column through a random
    loading vector plus unit normal noise: 6 continuous columns (affine
    images of their score), 3 categorical columns with 4 levels (argmax
    of 4 scores), 2 ordinal columns with 4 levels (the score cut at its
    quartiles) and 1 binary column (the sign of the score).  Exactly 8%
    of the cells, drawn without replacement, are written as ``NA``.
    """
    gen = _gen(seed, 1, k)
    shape = _gen(MIXED_SHAPE_SEED, 1, 0)
    n = MIXED_ROWS
    z = gen.standard_normal((n, MIXED_FACTORS))

    def score(width: int = 1) -> np.ndarray:
        loadings = shape.standard_normal((MIXED_FACTORS, width))
        s = z @ loadings + MIXED_NOISE * gen.standard_normal((n, width))
        return s / np.sqrt((loadings**2).sum(axis=0) + MIXED_NOISE**2)

    columns: list[tuple[str, str, tuple[str, ...] | None, list[str]]] = []
    for j in range(6):
        offset, scale = shape.uniform(-50.0, 50.0), shape.uniform(0.1, 20.0)
        cells = [repr(float(v)) for v in offset + scale * score()[:, 0]]
        columns.append((f"x{j}", "continuous", None, cells))
    levels = ("a", "b", "c", "d")
    for j in range(3):
        cells = [levels[k] for k in score(4).argmax(axis=1)]
        columns.append((f"cat{j}", "categorical", levels, cells))
    grades = ("low", "mid", "high", "top")
    for j in range(2):
        cells = [grades[k] for k in np.searchsorted([-0.6745, 0.0, 0.6745], score()[:, 0])]
        columns.append((f"ord{j}", "ordinal", grades, cells))
    cells = ["yes" if v > 0.0 else "no" for v in score()[:, 0]]
    columns.append(("flag", "binary", ("no", "yes"), cells))

    p = len(columns)
    missing = np.zeros(n * p, dtype=bool)
    missing[gen.choice(n * p, round(MIXED_MISSING * n * p), replace=False)] = True
    missing = missing.reshape(n, p)
    with open(data_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([name for name, _, _, _ in columns])
        for i in range(n):
            writer.writerow(
                ["NA" if missing[i, j] else columns[j][3][i] for j in range(p)]
            )
    with open(schema_path, "w") as handle:
        for name, kind, lv, _ in columns:
            handle.write(f"{name} {kind}" + (f" {','.join(lv)}" if lv else "") + "\n")
    continuous = {name for name, kind, _, _ in columns if kind == "continuous"}
    return {"missing": missing, "continuous": continuous}


class MixedWorkload:
    """mixed-masked: typed tables with missing cells through
    ``sigpca analyze --schema``."""

    name = "mixed-masked"

    def __init__(self, seed: int, out_dir: Path):
        self.tables = []
        for k in range(MIXED_TABLES):
            data, schema = out_dir / f"mixed{k}.csv", out_dir / f"mixed{k}.schema"
            truth = write_mixed_table(seed, k, data, schema)
            self.tables.append((data, schema, out_dir / f"mixed{k}.json", truth))

    def operations(self) -> list[Operation]:
        ops = []
        for k, (data, schema, report, truth) in enumerate(self.tables):
            argv = ["analyze", str(data), "--schema", str(schema), "--id", f"mixed{k}",
                    "--out", str(report), *MIXED_ARGS]
            ops.append(Operation(f"mixed{k}", _cli_run(argv, report), self._check,
                                 truth["missing"].size))
        return ops

    def _check(self, text: str) -> None:
        report = json.loads(text)
        checks.check_report(report)
        if report["n_significant"] < MIXED_FACTORS:
            raise checks.CheckError(
                f"estimate {report['n_significant']} below the {MIXED_FACTORS} factors"
            )

    def check_run(self) -> None:
        for data, schema, _, truth in self.tables:
            dataset = ingest.load_csv(data, ingest.read_schema(schema))
            checks.check_mask(dataset.matrix.mask, truth["missing"])
            processed = ingest.preprocess(dataset)
            continuous = [col.name in truth["continuous"] for col in processed.schema]
            checks.check_preprocessed(
                processed.matrix.values, processed.matrix.mask, continuous, MIXED_WIDTH
            )


def write_wide_matrix(seed: int, k: int, data_path: Path) -> np.ndarray:
    """Write X = 0.5 F L' + E as a numeric CSV and return the planted part
    0.5 F L'; F, L and E have independent standard normal entries."""
    gen = _gen(seed, 2, k)
    factors = gen.standard_normal((WIDE_ROWS, WIDE_PLANTED))
    loadings = gen.standard_normal((WIDE_COLS, WIDE_PLANTED))
    planted = WIDE_SCALE * factors @ loadings.T
    x = planted + gen.standard_normal((WIDE_ROWS, WIDE_COLS))
    with open(data_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{j}" for j in range(WIDE_COLS)])
        writer.writerows([repr(float(v)) for v in row] for row in x)
    return planted


class WideWorkload:
    """wide-noisy: complete numeric matrices with planted components in
    unit noise through ``sigpca analyze`` with two workers."""

    name = "wide-noisy"
    # Largest eigenvalue of E'E for unit noise, to first order.
    noise_edge = (np.sqrt(WIDE_ROWS) + np.sqrt(WIDE_COLS)) ** 2

    def __init__(self, seed: int, out_dir: Path):
        self.matrices = []
        for k in range(WIDE_MATRICES):
            data = out_dir / f"wide{k}.csv"
            planted = write_wide_matrix(seed, k, data)
            planted = planted - planted.mean(axis=0)
            eigenvalues = np.linalg.svd(planted, compute_uv=False)[:WIDE_PLANTED] ** 2
            self.matrices.append((data, out_dir / f"wide{k}.json", eigenvalues))

    def operations(self) -> list[Operation]:
        ops = []
        for k, (data, report, _) in enumerate(self.matrices):
            argv = ["analyze", str(data), "--id", f"wide{k}", "--out", str(report), *WIDE_ARGS]
            ops.append(Operation(f"wide{k}", _cli_run(argv, report), self._check,
                                 WIDE_ROWS * WIDE_COLS))
        return ops

    def _check(self, text: str) -> None:
        report = json.loads(text)
        checks.check_report(report)
        checks.check_planted_recovered(report, WIDE_PLANTED, self.noise_edge)

    def check_run(self) -> None:
        for _, _, eigenvalues in self.matrices:
            if eigenvalues.min() <= 3.0 * self.noise_edge:
                raise checks.CheckError(
                    f"planted eigenvalues {eigenvalues} too close to the "
                    f"noise edge {self.noise_edge}"
                )


class OperationFailed(Exception):
    """The program reported a failure for one analysis."""


def _cli_run(argv: list[str], report_path: Path):
    def run() -> str:
        code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"sigpca {' '.join(argv)} exited with {code}")
        return report_path.read_text()

    return run


WORKLOADS = {w.name: w for w in (GridWorkload, MixedWorkload, WideWorkload)}
