"""The benchmark's tracer wraps program functions by module and name and
reads their arguments and results, and its workloads pass fixed command
lines; these tests run the tracer on one small analysis and parse those
command lines, so that a renamed or deleted name or flag fails here, not
only in a benchmark run.  They import from ``bench/`` and write nothing
there."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import rank_k_matrix
from sigpca import cli, pipeline, significance

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def test_workload_command_lines_parse(workloads):
    parser = cli.build_parser()
    head = ["analyze", "d.csv", "--id", "x", "--out", "o"]
    mixed = parser.parse_args([*head, "--schema", "s", *workloads.MIXED_ARGS])
    wide = parser.parse_args([*head, *workloads.WIDE_ARGS])
    mixed_options = cli._options_from_args(mixed, seed=mixed.seed)
    wide_options = cli._options_from_args(wide, seed=wide.seed)
    assert (mixed_options.q_max, mixed_options.n_null_samples) == (8, 500)
    assert (wide_options.n_null_samples, wide.workers) == (200, 2)


def test_every_traced_name_resolves(tracing):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_traced_analysis_records_the_layer_metrics(tracing, tmp_path):
    x = rank_k_matrix(40, 8, 2, seed=41) + 0.05 * np.random.default_rng(41).standard_normal((40, 8))
    data = tmp_path / "matrix.csv"
    header = ",".join(f"c{j}" for j in range(8))
    np.savetxt(data, x, delimiter=",", header=header, comments="")
    report = tmp_path / "report.json"
    argv = ["analyze", str(data), "--null-samples", "100", "--workers", "2", "--out", str(report)]
    with tracing.Tracer() as tracer:
        with tracer.analysis(0):
            assert cli.main(argv) == 0
    assert report.is_file()
    # Leaving the tracer puts the program's own functions back.
    assert pipeline.count_significant is significance.count_significant

    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["significance.null_draws"] == (100, "count")
    # One stacked eigensolve per draw, through significance.sym_eigvals.
    assert metrics["significance.eigvals_calls"][0] >= 100
    names = [span.name for span in tracer.spans]
    for name in (
        "significance.sample_rank_null_spectra",
        "significance.count_significant",
        "vbpca.select_n_components",
    ):
        assert names.count(name) == 1
