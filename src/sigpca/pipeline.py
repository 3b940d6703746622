"""End-to-end composition: analyze a matrix, build reports, run grids.

An analysis takes a centered masked matrix, fits it once at the largest
component count (the fit prunes the components the data do not support),
reconstructs with that fit, samples replicate spectra from the
elementwise posterior predictive (reconstruction variance plus noise
variance) together with per-rank nulls that lack the tested component,
and counts significant ranks.  All randomness derives from one master
seed; ``AnalysisOptions.stage_configs`` gives fitting and null sampling
disjoint child seeds, and each null draw owns a fixed stream.  An
analysis runs on the calling thread; numpy's BLAS may start threads of
its own, and its thread setting can change the last bits of the results.
``run_validation`` spreads the datasets of a grid over ``workers``
processes; each run's seeds derive only from its spec, so results are
identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, _check_count
from .ingest import center_columns
from .linalg import MaskedMatrix
from .rng import derive_seed
from .significance import (
    SigTestConfig,
    Spectrum,
    SpectrumTestResult,
    count_significant,
    reconstruction_spectrum,
    sample_rank_null_spectra,
)
from .synthetic import SyntheticSpec, generate, scenario_grid
from .vbpca import Reconstruction, VbpcaConfig, reconstruct, select_n_components

# Child-seed tags under the master seed.
_FIT_SEED_TAG = 1
_NULL_SEED_TAG = 2
# Tag deriving a per-run analysis seed from a dataset seed in grids.
_RUN_SEED_TAG = 101

_CENTER_RTOL = 1e-6


@dataclass(frozen=True)
class AnalysisOptions:
    """Settings of one full analysis; ``seed`` is the master seed.
    ``stage_configs`` checks them."""

    alpha: float = SigTestConfig.alpha
    n_null_samples: int = SigTestConfig.n_null_samples
    max_iters: int = VbpcaConfig.max_iters
    seed: int = 0
    q_max: int | None = None

    def __post_init__(self) -> None:
        self.stage_configs()

    def stage_configs(self) -> tuple[VbpcaConfig, SigTestConfig]:
        """Fit and null-sampling settings with their child seeds; the
        fit's count is ``q_max``, whose default ``fit`` resolves."""
        fit_config = VbpcaConfig(
            n_components=self.q_max,
            max_iters=self.max_iters,
            seed=derive_seed(self.seed, _FIT_SEED_TAG),
        )
        sig_config = SigTestConfig(
            n_null_samples=self.n_null_samples,
            alpha=self.alpha,
            seed=derive_seed(self.seed, _NULL_SEED_TAG),
        )
        return fit_config, sig_config


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Everything a report needs from one analysis: the reconstruction,
    whose mean is shaped like the data, the spectrum of that mean, whose
    ranks are the fit's component count, and the rank test."""

    recon: Reconstruction
    spectrum: Spectrum
    test: SpectrumTestResult

    @property
    def n_components(self) -> int:
        return self.spectrum.n_ranks


def _check_centered(data: MaskedMatrix) -> None:
    """``DataError`` unless every column's observed mean is within
    ``_CENTER_RTOL`` of the largest entry's magnitude."""
    means = np.abs(data.column_means())
    if means.max() > _CENTER_RTOL * np.abs(data.values).max():
        raise DataError(
            "columns are not centered on their observed means; run the "
            "preprocessing chain first"
        )


def analyze_matrix(data: MaskedMatrix, options: AnalysisOptions) -> AnalysisResult:
    """Run the full analysis on an already centered masked matrix."""
    if min(data.shape) < 2:
        raise DataError(f"matrix shape {data.shape} too small to analyze")
    _check_centered(data)
    fit_config, sig_config = options.stage_configs()
    model = select_n_components(data, fit_config)
    recon = reconstruct(model)
    flat = data.values.ravel()  # masked-out entries are zero
    spectrum = reconstruction_spectrum(recon.mean, model.n_components, float(np.dot(flat, flat)))
    posterior, null = sample_rank_null_spectra(recon, spectrum, sig_config, model.noise_var)
    test = count_significant(posterior, null, sig_config)
    return AnalysisResult(recon=recon, spectrum=spectrum, test=test)


def analyze_numeric(matrix: MaskedMatrix, options: AnalysisOptions) -> AnalysisResult:
    """Center a numeric matrix already on one common scale, then analyze.

    No per-column rescaling happens here; that is the point of the
    numeric route (see the ingest module docstring)."""
    return analyze_matrix(center_columns(matrix), options)


def format_p(p: float, n_null: int) -> str:
    """Human-readable p-value; zero exceedances report the resolution
    bound rather than a literal zero."""
    if p == 0.0:
        return f"<{1.0 / n_null:g}"
    return f"{p:g}"


def build_report(
    result: AnalysisResult, dataset_id: str, options: AnalysisOptions
) -> dict:
    """Assemble the JSON-ready report dictionary.

    The report is schema-stable: the same fields always appear, with
    ``null`` for p-values of ranks the sequential test never reached and
    for the null quantiles of kept ranks whose null was retired because
    the test could no longer reach them.
    The shape and the total variance, against which each rank's
    variance fraction is taken, are those of the reconstruction mean;
    ``raw_p_display`` takes its draw count from ``options``, as the
    ``config`` block does.
    """
    test = result.test
    q = result.n_components
    n_rows, n_cols = result.recon.mean.shape
    flat = result.recon.mean.ravel()
    total = float(np.dot(flat, flat))
    eigenvalues = result.spectrum.eigenvalues
    fractions = eigenvalues / total if total > 0 else np.zeros(q)
    cumulative = np.cumsum(fractions)
    n_tested = test.raw_p.size
    w = test.n_significant
    ranks = []
    for r in range(q):
        tested = r < n_tested
        # A retired null (after the last tested rank) has NaN quantiles.
        null_q = [None if np.isnan(x) else float(x) for x in test.null_quantiles[r]]
        ranks.append(
            {
                "rank": r + 1,
                "eigenvalue": float(eigenvalues[r]),
                "normalized": float(result.spectrum.normalized[r]),
                "variance_fraction": float(fractions[r]),
                "raw_p": float(test.raw_p[r]) if tested else None,
                "raw_p_display": (
                    format_p(float(test.raw_p[r]), options.n_null_samples)
                    if tested
                    else None
                ),
                "adjusted_p": float(test.adjusted_p[r]) if tested else None,
                "null_q05": null_q[0],
                "null_q50": null_q[1],
                "null_q95": null_q[2],
            }
        )
    return {
        "dataset": dataset_id,
        "rows": n_rows,
        "cols": n_cols,
        "n_components": q,
        "n_significant": w,
        "config": {
            "alpha": options.alpha,
            "n_null_samples": options.n_null_samples,
            "seed": options.seed,
            "max_iters": options.max_iters,
        },
        "cumulative_variance": {
            "at_significant": float(cumulative[w - 1]) if w > 0 else 0.0,
            "after_next": float(cumulative[w]) if w < q else None,
        },
        "ranks": ranks,
    }


def report_to_json(report: dict | list) -> str:
    """Indented JSON text with sorted keys and a final newline: a report,
    or the manifest of ``sigpca synth``."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def csv_table(rows: list[dict]) -> str:
    """CSV text of a nonempty list of rows with the same keys: the header
    is the first row's keys, and ``None`` is written as an empty cell.
    ``csv_table(report["ranks"])`` is a report's per-rank table, and
    ``csv_table(summarize_validation(runs))`` a validation summary."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, rows[0].keys(), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


@dataclass(frozen=True)
class ValidationRun:
    """One grid cell replicate: the truth and what the pipeline found.
    The field names are the columns of ``validate --runs-out``."""

    scenario: str
    rows: int
    cols: int
    true_significant: int
    replicate: int
    seed: int
    n_components: int
    estimated_significant: int


def _run_one_validation(spec: SyntheticSpec, options: AnalysisOptions) -> tuple[int, int]:
    """The fit's count and the estimate for one grid dataset."""
    result = analyze_numeric(generate(spec), options)
    return result.n_components, result.test.n_significant


def run_validation(
    scenario: str,
    replicates: int,
    options: AnalysisOptions,
    workers: int = 1,
) -> list[ValidationRun]:
    """Analyze every dataset of a scenario grid.

    ``options.seed`` is the grid's base seed, from which each spec's seed
    and each run's analysis seed derive.  ``workers`` processes share the
    datasets; each run's seeds derive only from its spec, so results are
    identical for any worker count.
    """
    _check_count("workers", workers, 1)
    specs = scenario_grid(scenario, base_seed=options.seed, replicates=replicates)
    run_options = [
        replace(options, seed=derive_seed(spec.seed, _RUN_SEED_TAG)) for spec in specs
    ]
    if workers == 1:
        outcomes = list(map(_run_one_validation, specs, run_options))
    else:
        # Here, not at the top, so importing the package skips multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one_validation, specs, run_options, chunksize=4))
    return [
        ValidationRun(
            scenario=scenario,
            rows=spec.n_rows,
            cols=spec.n_cols,
            true_significant=spec.n_significant,
            replicate=idx % replicates,
            seed=spec.seed,
            n_components=n_components,
            estimated_significant=estimated,
        )
        for idx, (spec, (n_components, estimated)) in enumerate(zip(specs, outcomes))
    ]


def summarize_validation(runs: list[ValidationRun]) -> list[dict]:
    """Per grid cell: mean estimate with a normal 95 percent interval
    over replicates, plus the maximum estimate."""
    cells: dict[tuple, list[ValidationRun]] = {}
    for run in runs:
        key = (run.scenario, run.rows, run.cols, run.true_significant)
        cells.setdefault(key, []).append(run)
    summary = []
    for (scenario, n, p, w_true), cell_runs in cells.items():
        estimates = np.asarray([r.estimated_significant for r in cell_runs], dtype=float)
        mean = float(estimates.mean())
        sd = float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0
        half = 1.959964 * sd / np.sqrt(estimates.size)
        summary.append(
            {
                "scenario": scenario,
                "rows": n,
                "cols": p,
                "true_significant": w_true,
                "replicates": estimates.size,
                "mean_significant": mean,
                "ci_low": mean - half,
                "ci_high": mean + half,
                "max_significant": int(estimates.max()),
            }
        )
    return summary
