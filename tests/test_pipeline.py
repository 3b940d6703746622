"""End-to-end analysis orchestration, reports, and the validation runner."""

import json
import warnings

import numpy as np
import pytest

from sigpca import (
    AnalysisOptions,
    ConfigError,
    DataError,
    MaskedMatrix,
    SyntheticSpec,
    ValidationRun,
    analyze_matrix,
    analyze_numeric,
    build_report,
    csv_table,
    format_p,
    generate,
    report_to_json,
    run_validation,
    summarize_validation,
)
from sigpca import pipeline
from sigpca.ingest import ColumnSchema, Dataset, preprocess

FAST = dict(n_null_samples=150, seed=3)


@pytest.fixture(scope="module")
def small_result():
    data = generate(SyntheticSpec(n_rows=40, n_cols=12, n_significant=2, seed=11))
    options = AnalysisOptions(**FAST)
    return analyze_numeric(data, options), options


class TestAnalysisOptions:
    def test_defaults(self):
        options = AnalysisOptions()
        assert options.alpha == 0.05
        assert options.n_null_samples == 2000
        assert options.max_iters == 80
        assert options.conv_tol == 1e-6
        assert options.q_max is None

    def test_non_integer_counts_rejected(self):
        for bad in (dict(n_null_samples=150.5), dict(max_iters=10.5), dict(workers=1.5)):
            with pytest.raises(ConfigError):
                AnalysisOptions(**bad)

    def test_validation_delegates_to_stage_configs(self):
        with pytest.raises(ConfigError):
            AnalysisOptions(alpha=2.0)
        with pytest.raises(ConfigError):
            AnalysisOptions(n_null_samples=50)
        with pytest.raises(ConfigError):
            AnalysisOptions(max_iters=0)
        with pytest.raises(ConfigError):
            AnalysisOptions(seed=-1)
        with pytest.raises(ConfigError):
            AnalysisOptions(q_max=1)


class TestAnalyzeMatrix:
    def test_uncentered_input_rejected(self):
        x = np.random.default_rng(0).standard_normal((20, 6))
        # The bound is relative to the largest entry, so shrinking the
        # data does not hide means of several sds.
        for values in (x + 5.0, 2.0**-30 * (x + 3.0)):
            with pytest.raises(DataError, match="centered"):
                analyze_matrix(MaskedMatrix.complete(values), AnalysisOptions(**FAST))

    def test_result_fields_are_coherent(self, small_result):
        result, _ = small_result
        assert result.n_components == 11
        assert result.spectrum.n_ranks == result.n_components
        assert result.test.n_significant <= result.n_components
        assert result.recon.mean.shape == (40, 12)
        assert np.any(result.recon.mean != 0.0)

    def test_q_max_override(self):
        data = generate(SyntheticSpec(n_rows=30, n_cols=10, n_significant=2, seed=12))
        result = analyze_numeric(data, AnalysisOptions(q_max=5, **FAST))
        assert result.n_components == 5
        with pytest.raises(ConfigError):
            analyze_numeric(data, AnalysisOptions(q_max=11, **FAST))

    def test_all_missing_column_raises_data_error_without_warnings(self):
        values = np.random.default_rng(1).standard_normal((10, 4))
        values -= values.mean(axis=0)
        mask = np.ones((10, 4), dtype=bool)
        mask[:, 2] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="column 2"):
                analyze_matrix(MaskedMatrix(values, mask), AnalysisOptions(**FAST))

    def test_wide_matrix_keeps_one_dimension_for_noise(self):
        data = generate(SyntheticSpec(n_rows=414, n_cols=9, n_significant=1, seed=13))
        result = analyze_numeric(data, AnalysisOptions(n_null_samples=100, seed=1))
        assert result.n_components <= 8


class TestFormatP:
    def test_zero_is_reported_as_below_resolution(self):
        assert format_p(0.0, 2000) == "<0.0005"
        assert format_p(0.0, 500) == "<0.002"

    def test_nonzero_values_formatted_plainly(self):
        assert format_p(0.025, 2000) == "0.025"
        assert format_p(1.0, 2000) == "1"


class TestReport:
    def test_report_structure(self, small_result):
        result, options = small_result
        report = build_report(result, "demo", options)
        assert report["dataset"] == "demo"
        assert report["rows"] == 40 and report["cols"] == 12
        assert report["n_components"] == result.n_components
        assert report["n_significant"] == result.test.n_significant
        assert report["config"]["alpha"] == options.alpha
        assert report["config"]["n_null_samples"] == options.n_null_samples
        assert report["config"]["seed"] == options.seed
        assert "component_scan" not in report
        assert len(report["ranks"]) == result.n_components

    def test_rank_rows(self, small_result):
        result, options = small_result
        report = build_report(result, "demo", options)
        tested = len(result.test.raw_p)
        for idx, row in enumerate(report["ranks"]):
            assert row["rank"] == idx + 1
            if idx < tested:
                assert row["raw_p"] is not None
                assert row["adjusted_p"] >= row["raw_p"] or row["raw_p"] == 0.0
            else:
                assert row["raw_p"] is None
                assert row["adjusted_p"] is None
                assert row["raw_p_display"] is None

    def test_variance_fractions_and_cumulative_values(self, small_result):
        result, options = small_result
        report = build_report(result, "demo", options)
        fractions = [row["variance_fraction"] for row in report["ranks"]]
        assert all(f >= 0.0 for f in fractions)
        assert sum(fractions) <= 1.0 + 1e-9
        cumulative = report["cumulative_variance"]
        assert 0.0 <= cumulative["at_significant"] <= cumulative["after_next"] <= 1.0 + 1e-9

    def test_json_round_trip_and_stable_bytes(self, small_result):
        result, options = small_result
        report = build_report(result, "demo", options)
        text = report_to_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report
        assert report_to_json(build_report(result, "demo", options)) == text

    def test_rank_csv_table(self, small_result):
        import csv as csv_mod
        import io

        result, options = small_result
        report = build_report(result, "demo", options)
        text = csv_table(report["ranks"])
        lines = text.split("\n")
        assert lines[0] == (
            "rank,eigenvalue,normalized,variance_fraction,raw_p,raw_p_display,"
            "adjusted_p,null_q05,null_q50,null_q95"
        )
        # The fit keeps no component of this small-scale matrix, so the
        # spectrum columns are 0.0.  Rank 10 of 11 was not tested, and the
        # normalised value at the next-to-last rank is l / l = 1 whenever its
        # eigenvalue is positive, so the row's bytes are exact.
        assert lines[10] == "10,0.0,0.0,0.0,,,,1.0,1.0,1.0"
        assert lines[-1] == ""
        rows = list(csv_mod.reader(io.StringIO(text)))
        assert len(rows) == 1 + result.n_components
        raw_p_col = rows[0].index("raw_p")
        tested = len(result.test.raw_p)
        for idx, row in enumerate(rows[1:]):
            assert int(row[0]) == idx + 1
            if idx >= tested:
                assert row[raw_p_col] == ""
            else:
                assert row[raw_p_col] != ""


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        data = generate(SyntheticSpec(n_rows=30, n_cols=10, n_significant=2, seed=14))
        options = AnalysisOptions(**FAST)
        first = report_to_json(build_report(analyze_numeric(data, options), "x", options))
        second = report_to_json(build_report(analyze_numeric(data, options), "x", options))
        assert first == second

    def test_worker_count_does_not_change_report(self):
        data = generate(SyntheticSpec(n_rows=30, n_cols=10, n_significant=2, seed=15))
        serial_options = AnalysisOptions(workers=1, **FAST)
        threaded_options = AnalysisOptions(workers=3, **FAST)
        serial = report_to_json(build_report(analyze_numeric(data, serial_options), "x", serial_options))
        threaded = report_to_json(
            build_report(analyze_numeric(data, threaded_options), "x", threaded_options)
        )
        # Reports echo only analysis settings, not the worker count, so
        # the bytes must match exactly.
        assert serial == threaded


def typed_table_with_missing_cells(seed: int, n: int = 150) -> Dataset:
    """Two latent factors behind 4 continuous, 3 four-level categorical and
    1 binary column, with about 8 percent of the cells missing."""
    gen = np.random.default_rng(seed)
    factors = gen.standard_normal((n, 2))
    scores = factors @ gen.standard_normal((2, 17)) + 0.5 * gen.standard_normal((n, 17))
    categories = [np.argmax(scores[:, 4 + 4 * c : 8 + 4 * c], axis=1) for c in range(3)]
    values = np.column_stack([scores[:, :4], *categories, scores[:, 16] > 0]).astype(float)
    mask = gen.uniform(size=values.shape) > 0.08
    schema = (
        tuple(ColumnSchema(f"x{j}", "continuous") for j in range(4))
        + tuple(ColumnSchema(f"c{j}", "categorical", levels=("a", "b", "c", "d")) for j in range(3))
        + (ColumnSchema("flag", "binary", levels=("no", "yes")),)
    )
    return Dataset(
        schema=schema,
        matrix=MaskedMatrix(np.where(mask, values, 0.0), mask),
    )


class TestRetiredNulls:
    """Kept ranks past the last tested one have their null retired; the
    report gives their quantiles as null."""

    def test_typed_table_reports_retired_quantiles_as_null(self):
        import csv as csv_mod
        import io

        dataset = typed_table_with_missing_cells(seed=0)
        options = AnalysisOptions(**FAST)

        def reject_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        texts = []
        for _ in range(2):
            result = analyze_matrix(preprocess(dataset).matrix, options)
            texts.append(report_to_json(build_report(result, "typed", options)))
        assert texts[0] == texts[1]
        report = json.loads(texts[0], parse_constant=reject_constant)
        n_tested = result.test.raw_p.size
        n_kept = int(np.count_nonzero(result.spectrum.eigenvalues))
        assert n_kept > n_tested
        quantile_cols = ("null_q05", "null_q50", "null_q95")
        retired = [row["rank"] for row in report["ranks"] if row["null_q05"] is None]
        assert retired and all(n_tested < rank <= n_kept for rank in retired)
        for row in report["ranks"]:
            is_retired = row["rank"] in retired
            assert all((row[col] is None) == is_retired for col in quantile_cols)
        # The table is written from the built report, as the CLI does; the
        # parsed JSON has its keys sorted, so its rows give another column order.
        table = csv_table(build_report(result, "typed", options)["ranks"])
        rows = list(csv_mod.reader(io.StringIO(table)))
        cols = [rows[0].index(col) for col in quantile_cols]
        for line in rows[1:]:
            cells = [line[c] for c in cols]
            if int(line[0]) in retired:
                assert cells == ["", "", ""]
            else:
                assert "" not in cells and "nan" not in cells


class TestSchemaRoute:
    def test_preprocessed_dataset_expands_before_analysis(self):
        gen = np.random.default_rng(16)
        n = 30
        base = gen.standard_normal(n)
        values = np.column_stack([base + 0.1 * gen.standard_normal(n) for _ in range(4)])
        levels = np.where(base > 0, 1.0, 0.0)
        dataset = Dataset(
            schema=(
                ColumnSchema("a", "continuous"),
                ColumnSchema("b", "continuous"),
                ColumnSchema("c", "continuous"),
                ColumnSchema("d", "continuous"),
                ColumnSchema("e", "binary", levels=("no", "yes")),
            ),
            matrix=MaskedMatrix.complete(np.column_stack([values, levels])),
        )
        options = AnalysisOptions(n_null_samples=100, seed=2)
        result = analyze_matrix(preprocess(dataset).matrix, options)
        # One-hot expansion turns the binary column into two indicators.
        assert result.recon.mean.shape == (n, 6)


class TestMemoryLayout:
    def test_fortran_ordered_input_gives_the_c_ordered_report(self):
        matrix = preprocess(typed_table_with_missing_cells(seed=0)).matrix
        fortran = MaskedMatrix(np.asfortranarray(matrix.values), np.asfortranarray(matrix.mask))
        c_order = MaskedMatrix(
            np.ascontiguousarray(matrix.values), np.ascontiguousarray(matrix.mask)
        )
        assert fortran.values.flags.c_contiguous and fortran.mask.flags.c_contiguous
        options = AnalysisOptions(**FAST)
        reports = [
            report_to_json(build_report(analyze_matrix(m, options), "typed", options))
            for m in (fortran, c_order)
        ]
        assert reports[0] == reports[1]


class TestValidationSummary:
    def make_runs(self):
        return [
            ValidationRun("i", 150, 15, 2, 0, 101, 14, 2),
            ValidationRun("i", 150, 15, 2, 1, 102, 14, 2),
            ValidationRun("i", 150, 15, 2, 2, 103, 14, 1),
            ValidationRun("i", 150, 30, 4, 0, 104, 29, 3),
        ]

    def test_cells_grouped_and_statistics_computed(self):
        summary = summarize_validation(self.make_runs())
        assert len(summary) == 2
        first = next(s for s in summary if s["cols"] == 15)
        assert first["replicates"] == 3
        assert first["mean_significant"] == pytest.approx(5.0 / 3.0)
        assert first["max_significant"] == 2
        sd = np.std([2, 2, 1], ddof=1)
        half = 1.959964 * sd / np.sqrt(3)
        assert first["ci_low"] == pytest.approx(5.0 / 3.0 - half)
        assert first["ci_high"] == pytest.approx(5.0 / 3.0 + half)
        single = next(s for s in summary if s["cols"] == 30)
        assert single["ci_low"] == single["ci_high"] == single["mean_significant"]

    def test_csv_layout(self):
        text = csv_table(summarize_validation(self.make_runs()))
        lines = text.splitlines()
        assert lines[0] == (
            "scenario,rows,cols,true_significant,replicates,"
            "mean_significant,ci_low,ci_high,max_significant"
        )
        assert len(lines) == 3


class TestRunValidation:
    def test_process_pool_gives_the_serial_runs(self, monkeypatch):
        specs = [
            SyntheticSpec(n_rows=20, n_cols=cols, n_significant=2, seed=seed)
            for cols, seed in ((8, 21), (10, 22), (12, 23))
        ]
        monkeypatch.setattr(pipeline, "scenario_grid", lambda *args, **kwargs: specs)
        serial = run_validation("i", 1, 0, AnalysisOptions(n_null_samples=100, workers=1))
        pooled = run_validation("i", 1, 0, AnalysisOptions(n_null_samples=100, workers=2))
        assert [run.seed for run in serial] == [21, 22, 23]
        assert pooled == serial
