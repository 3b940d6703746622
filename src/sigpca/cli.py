"""Command-line interface.

Three subcommands: ``analyze`` runs the full pipeline on a CSV dataset
and writes a JSON report (optionally a per-rank CSV), ``synth`` writes
benchmark datasets with a known significant count, ``validate`` sweeps a
scenario grid and summarises recovery per grid cell.

Exit codes: 0 on success, 1 for input or configuration problems
(including unknown flags), 2 for numerical failures.  Every file is
written atomically, CSV files by ``csv_table`` and JSON files by
``report_to_json``; a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .errors import NumericalError, SigpcaError, _check_count
from .ingest import (
    DEFAULT_MISSING_TOKENS,
    DEFAULT_SPARSE_THRESHOLD,
    drop_sparse_matrix_columns,
    load_csv,
    load_matrix_csv,
    preprocess,
    read_schema,
)
from .pipeline import (
    AnalysisOptions,
    analyze_matrix,
    analyze_numeric,
    build_report,
    csv_table,
    report_to_json,
    run_validation,
    summarize_validation,
)
from .synthetic import SCENARIOS, SyntheticSpec, generate, scenario_grid
from .vbpca import DEFAULT_Q_CAP

# The flags of each synth route, the SyntheticSpec field or scenario_grid
# keyword each sets, and its type.  A flag left out keeps that default.
_SPEC_FLAGS = (
    ("--rows", "n_rows", int),
    ("--cols", "n_cols", int),
    ("--significant", "n_significant", int),
    ("--weak-var", "weak_var", float),
    ("--strong-var-base", "strong_var_base", float),
    ("--strong-var-step", "strong_var_step", float),
    ("--loading-var", "loading_var", float),
    ("--seed", "seed", int),
)
_GRID_FLAGS = (("--replicates", "replicates", int), ("--base-seed", "base_seed", int))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this CLI reserves 2 for
    numerical failures, so usage errors exit with 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _naming(target: Path):
    """Re-raise an ``OSError`` that names a file (the temporary one) as
    the same error naming ``target``, the path the user gave."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(target)) from exc


def _write_atomic(files) -> None:
    """Write an iterable of (path, text) pairs, all or none.  Each text
    goes to a new temporary file beside its path, created by ``open`` and
    so given the umask's mode; once every text is written, each temporary
    file replaces its path.  On any failure, including one raised while
    the iterable makes its next pair, the temporary files are removed, and
    so is every path already replaced, even where a file stood before.
    An error that names a file names the path, not its temporary file."""
    staged: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    try:
        for path, text in files:
            target = Path(path)
            temp = target.with_name(f"{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
            with _naming(target):
                handle = open(temp, "x")
                staged.append((temp, target))
                with handle:
                    handle.write(text)
        for temp, target in staged:
            with _naming(target):
                os.replace(temp, target)
            placed.append(target)
    except BaseException:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
        for target in placed:
            target.unlink()
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic([(path, text)])


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    defaults = AnalysisOptions()
    parser.add_argument("--alpha", type=float, default=defaults.alpha, help="error level of the step-down test")
    parser.add_argument(
        "--null-samples", type=int, default=defaults.n_null_samples, help="number of null spectra"
    )
    parser.add_argument("--iters", type=int, default=defaults.max_iters, help="max fit sweeps")
    parser.add_argument(
        "--q-max",
        type=int,
        default=defaults.q_max,
        help="component count of the fit, which prunes the components the data "
        f"do not support (default min(rows-1, cols-1, {DEFAULT_Q_CAP}))",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="validate: processes that share the grid's datasets; analyze: no "
        "effect (accepted for existing scripts); never affects results",
    )


def _options_from_args(args, seed: int) -> AnalysisOptions:
    return AnalysisOptions(
        alpha=args.alpha,
        n_null_samples=args.null_samples,
        max_iters=args.iters,
        seed=seed,
        q_max=args.q_max,
    )


def cmd_analyze(args) -> int:
    _check_count("workers", args.workers, 1)
    options = _options_from_args(args, seed=args.seed)
    tokens = DEFAULT_MISSING_TOKENS + tuple(args.missing_token or ())
    if args.schema is not None:
        schema = read_schema(args.schema)
        dataset = load_csv(args.data, schema, missing_tokens=tokens)
        processed = preprocess(dataset, sparse_threshold=args.missing_threshold)
        result = analyze_matrix(processed.matrix, options)
    else:
        matrix = load_matrix_csv(args.data, missing_tokens=tokens)
        matrix = drop_sparse_matrix_columns(matrix, args.missing_threshold)
        result = analyze_numeric(matrix, options)
    dataset_id = args.id if args.id is not None else Path(args.data).stem
    report = build_report(result, dataset_id, options)
    primary = report_to_json(report) if args.format == "json" else csv_table(report["ranks"])
    _emit(primary, args.out)
    if args.csv_out is not None:
        _write_atomic([(args.csv_out, csv_table(report["ranks"]))])
    return 0


def cmd_synth(args) -> int:
    if args.scenario is not None:
        own, other, rule = _GRID_FLAGS, _SPEC_FLAGS, "not allowed with --scenario"
    else:
        own, other, rule = _SPEC_FLAGS, _GRID_FLAGS, "allowed only with --scenario"
    stray = [flag for flag, dest, _ in other if getattr(args, dest) is not None]
    if stray:
        raise SigpcaError(f"synth: {', '.join(stray)} {rule}")
    given = {dest: getattr(args, dest) for _, dest, _ in own if getattr(args, dest) is not None}
    if args.scenario is not None:
        specs = scenario_grid(args.scenario, **given)
    elif {"n_rows", "n_cols", "n_significant"} <= given.keys():
        specs = [SyntheticSpec(**given)]
    else:
        raise SigpcaError("synth needs --rows, --cols and --significant (or --scenario)")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(_synth_files(specs, out_dir))
    return 0


def _synth_files(specs, out_dir: Path):
    """(path, text) of each data file of ``specs``, generated one at a
    time, then of the manifest."""
    manifest = []
    replicates: dict[str, int] = {}  # files written per grid cell
    for spec in specs:
        cell = f"synth_{spec.n_rows}x{spec.n_cols}_w{spec.n_significant}"
        stem = f"{cell}_r{replicates.get(cell, 0)}"
        replicates[cell] = replicates.get(cell, 0) + 1
        rows = generate(spec).values.tolist()
        table = [{f"c{j}": x for j, x in enumerate(row)} for row in rows]
        yield out_dir / f"{stem}.csv", csv_table(table)
        manifest.append({"data": f"{stem}.csv", "spec": asdict(spec)})
    yield out_dir / "manifest.json", report_to_json(manifest)


def cmd_validate(args) -> int:
    options = _options_from_args(args, seed=args.base_seed)
    runs = run_validation(
        args.scenario, replicates=args.replicates, options=options, workers=args.workers
    )
    _emit(csv_table(summarize_validation(runs)), args.out)
    if args.runs_out is not None:
        _write_atomic([(args.runs_out, csv_table([asdict(run) for run in runs]))])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sigpca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="estimate significant components of a CSV dataset"
    )
    analyze.add_argument("data", help="CSV data file")
    analyze.add_argument(
        "--schema",
        default=None,
        help=(
            "schema file declaring column kinds; typed columns get one "
            "preprocessing pass (one-hot, centering, scaling of continuous "
            "columns).  Without a schema the file is read as a numeric matrix "
            "on one common scale and columns are centered only"
        ),
    )
    analyze.add_argument("--id", default=None, help="dataset id for the report")
    analyze.add_argument(
        "--seed", type=int, default=AnalysisOptions.seed, help="master seed"
    )
    analyze.add_argument(
        "--missing-token",
        action="append",
        default=None,
        help=(
            "additional token meaning missing, besides the empty cell and "
            "'NA' (repeatable)"
        ),
    )
    analyze.add_argument(
        "--missing-threshold",
        type=float,
        default=DEFAULT_SPARSE_THRESHOLD,
        help="drop columns whose missing fraction exceeds this",
    )
    _add_analysis_flags(analyze)
    analyze.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="primary output format: full JSON report or per-rank CSV table",
    )
    analyze.add_argument("--out", default=None, help="report path (default stdout)")
    analyze.add_argument("--csv-out", default=None, help="per-rank CSV table path")
    analyze.set_defaults(func=cmd_analyze)

    synth = sub.add_parser("synth", help="write synthetic benchmark datasets")
    for flag, dest, kind in _SPEC_FLAGS:
        synth.add_argument(flag, dest=dest, type=kind, help=f"sets {dest}; not with --scenario")
    synth.add_argument("--scenario", choices=SCENARIOS, default=None, help="write a scenario grid")
    for flag, dest, kind in _GRID_FLAGS:
        synth.add_argument(flag, dest=dest, type=kind, help=f"sets {dest}; only with --scenario")
    synth.add_argument("--out-dir", required=True)
    synth.set_defaults(func=cmd_synth)

    validate = sub.add_parser(
        "validate", help="run a benchmark scenario and summarise recovery"
    )
    validate.add_argument("--scenario", choices=SCENARIOS, required=True)
    validate.add_argument("--replicates", type=int, default=1)
    validate.add_argument(
        "--base-seed", type=int, default=0, help="seed of the grid; every run's seeds derive from it"
    )
    _add_analysis_flags(validate)
    validate.add_argument(
        "--out", default=None, help="summary CSV path (default stdout)"
    )
    validate.add_argument("--runs-out", default=None, help="per-run CSV path")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"sigpca: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SigpcaError, ValueError, OSError) as exc:
        print(f"sigpca: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
