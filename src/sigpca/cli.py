"""Command-line interface.

Three subcommands: ``analyze`` runs the full pipeline on a CSV dataset
and writes a JSON report (optionally a per-rank CSV), ``synth`` writes
benchmark datasets with a known significant count, ``validate`` sweeps a
scenario grid and summarises recovery per grid cell.

Exit codes: 0 on success, 1 for input or configuration problems
(including unknown flags), 2 for numerical failures.  Reports are
written atomically; a failed run never leaves a partial report behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

from .errors import NumericalError, SigpcaError
from .ingest import (
    DEFAULT_MISSING_TOKENS,
    DEFAULT_SPARSE_THRESHOLD,
    drop_sparse_matrix_columns,
    load_csv,
    load_matrix_csv,
    preprocess,
    read_schema,
    write_matrix_csv,
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

# Header of the ``--runs-out`` table, one name per ``ValidationRun`` field.
_RUNS_HEADER = (
    "scenario", "rows", "cols", "true_significant",
    "replicate", "seed", "n_components", "estimated_significant",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this CLI reserves 2 for
    numerical failures, so usage errors exit with 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=target.parent or Path("."), suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, target)
    except BaseException:
        os.unlink(handle.name)
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    defaults = AnalysisOptions()
    parser.add_argument("--alpha", type=float, default=defaults.alpha, help="error level of the step-down test")
    parser.add_argument(
        "--null-samples", type=int, default=defaults.n_null_samples, help="number of null spectra"
    )
    parser.add_argument("--iters", type=int, default=defaults.max_iters, help="max fit sweeps")
    parser.add_argument(
        "--conv-tol", type=float, default=defaults.conv_tol, help="relative cost change to stop at"
    )
    parser.add_argument("--seed", type=int, default=defaults.seed, help="master seed")
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
        default=defaults.workers,
        help="validate: processes that share the grid's datasets; analyze: no "
        "effect (accepted for existing scripts); never affects results",
    )


def _options_from_args(args) -> AnalysisOptions:
    return AnalysisOptions(
        alpha=args.alpha,
        n_null_samples=args.null_samples,
        max_iters=args.iters,
        conv_tol=args.conv_tol,
        seed=args.seed,
        q_max=args.q_max,
        workers=args.workers,
    )


def cmd_analyze(args) -> int:
    options = _options_from_args(args)
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
        _write_atomic(args.csv_out, csv_table(report["ranks"]))
    return 0


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.scenario is not None:
        specs = scenario_grid(
            args.scenario, base_seed=args.base_seed, replicates=args.replicates
        )
        reps = args.replicates
    elif args.spec_json is not None:
        with open(args.spec_json) as handle:
            payload = json.load(handle)
        specs = [SyntheticSpec.from_dict(payload)]
        reps = 1
    else:
        if args.rows is None or args.cols is None or args.significant is None:
            raise SigpcaError(
                "synth needs --rows, --cols and --significant "
                "(or --scenario / --spec-json)"
            )
        specs = [
            SyntheticSpec(
                n_rows=args.rows,
                n_cols=args.cols,
                n_significant=args.significant,
                weak_var=args.weak_var,
                strong_var_base=args.strong_var_base,
                strong_var_step=args.strong_var_step,
                loading_var=args.loading_var,
                seed=args.seed,
            )
        ]
        reps = 1
    manifest = []
    for idx, spec in enumerate(specs):
        stem = (
            f"synth_{spec.n_rows}x{spec.n_cols}_w{spec.n_significant}_r{idx % reps}"
        )
        write_matrix_csv(generate(spec), out_dir / f"{stem}.csv")
        manifest.append({"data": f"{stem}.csv", "spec": spec.to_dict()})
    _write_atomic(
        str(out_dir / "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    return 0


def cmd_validate(args) -> int:
    options = _options_from_args(args)
    runs = run_validation(
        args.scenario,
        replicates=args.replicates,
        base_seed=args.base_seed,
        options=options,
    )
    _emit(csv_table(summarize_validation(runs)), args.out)
    if args.runs_out is not None:
        rows = [dict(zip(_RUNS_HEADER, astuple(run), strict=True)) for run in runs]
        _write_atomic(args.runs_out, csv_table(rows))
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
    synth.add_argument("--rows", type=int, default=None)
    synth.add_argument("--cols", type=int, default=None)
    synth.add_argument(
        "--significant", type=int, default=None, help="true significant component count"
    )
    synth.add_argument("--weak-var", type=float, default=SyntheticSpec.weak_var)
    synth.add_argument("--strong-var-base", type=float, default=SyntheticSpec.strong_var_base)
    synth.add_argument("--strong-var-step", type=float, default=SyntheticSpec.strong_var_step)
    synth.add_argument("--loading-var", type=float, default=SyntheticSpec.loading_var)
    synth.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    synth.add_argument("--scenario", choices=SCENARIOS, default=None)
    synth.add_argument("--replicates", type=int, default=1)
    synth.add_argument("--base-seed", type=int, default=0)
    synth.add_argument("--spec-json", default=None, help="JSON file holding one spec")
    synth.add_argument("--out-dir", required=True)
    synth.set_defaults(func=cmd_synth)

    validate = sub.add_parser(
        "validate", help="run a benchmark scenario and summarise recovery"
    )
    validate.add_argument("--scenario", choices=SCENARIOS, required=True)
    validate.add_argument("--replicates", type=int, default=1)
    validate.add_argument("--base-seed", type=int, default=0)
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
