"""Acceptance suite: one test per release criterion.

Each test prints a single ``<criterion> PASS/FAIL`` line with the
measured statistics (visible with ``pytest -s``, and in the failure
output otherwise) and then asserts the criterion at its stated
tolerance.  The benchmark-grid fixture is shared by the first two
criteria and dominates the suite's runtime.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    center_cols,
    complete,
    masked_mse,
    mc_reconstruction_variance,
    random_posterior_model,
    rank_k_matrix,
    stepdown_adjust_reference,
)
from sigpca import (
    AnalysisOptions,
    Reconstruction,
    SigTestConfig,
    SyntheticSpec,
    VbpcaConfig,
    analyze_numeric,
    build_report,
    count_significant,
    derive_seed,
    fit,
    generate,
    holm_bonferroni,
    normalized_eigenvalues,
    reconstruct,
    reconstruction_spectrum,
    report_to_json,
    run_validation,
    sample_rank_null_spectra,
)

pytestmark = pytest.mark.acceptance


def verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


GRID_OPTIONS = AnalysisOptions(n_null_samples=500, alpha=0.05)


@pytest.fixture(scope="module")
def benchmark_grid():
    """Both scenario grids, 5 replicates each, 280 runs total."""
    start = time.monotonic()
    runs = []
    for scenario in ("i", "ii"):
        runs.extend(
            run_validation(scenario, replicates=5, options=GRID_OPTIONS)
        )
    elapsed = time.monotonic() - start
    return runs, elapsed


def analyze_replicates(spec_base: SyntheticSpec, tag: int, replicates: int, options: AnalysisOptions):
    results = []
    for rep in range(replicates):
        spec = replace(spec_base, seed=derive_seed(tag, rep))
        run_options = replace(options, seed=derive_seed(spec.seed, 1))
        results.append(analyze_numeric(generate(spec), run_options))
    return results


def test_c1_estimate_never_exceeds_truth_on_benchmark_grids(benchmark_grid):
    runs, elapsed = benchmark_grid
    excesses = [
        (run.scenario, run.rows, run.cols, run.true_significant, run.estimated_significant)
        for run in runs
        if run.estimated_significant > run.true_significant
    ]
    ok = len(runs) == 280 and not excesses and elapsed <= 1800.0
    verdict(
        "C1",
        ok,
        f"{len(runs)} grid runs, {len(excesses)} overestimates "
        f"({excesses[:5]}{'...' if len(excesses) > 5 else ''}), "
        f"runtime {elapsed:.0f}s (limit 1800s)",
    )


def test_c2_low_count_rows_recovered_exactly(benchmark_grid):
    runs, _ = benchmark_grid
    selected = [r for r in runs if r.scenario == "i" and r.true_significant == 2]
    misses = [
        (r.cols, r.replicate, r.estimated_significant)
        for r in selected
        if r.estimated_significant != 2
    ]
    ok = len(selected) == 35 and len(misses) <= 1
    verdict(
        "C2",
        ok,
        f"{len(selected)} runs with 2 planted components, "
        f"{len(misses)} misses (allowed 1): {misses}",
    )


def test_c3_high_count_narrow_matrix_underestimation_band():
    spec30 = SyntheticSpec(n_rows=150, n_cols=30, n_significant=8)
    spec55 = SyntheticSpec(n_rows=150, n_cols=55, n_significant=8)
    mean30 = float(
        np.mean(
            [r.test.n_significant for r in analyze_replicates(spec30, 330, 10, GRID_OPTIONS)]
        )
    )
    mean55 = float(
        np.mean(
            [r.test.n_significant for r in analyze_replicates(spec55, 355, 10, GRID_OPTIONS)]
        )
    )
    ok = 4.5 <= mean30 <= 6.5 and 7.0 <= mean55 <= 8.0
    verdict(
        "C3",
        ok,
        f"150x30 mean estimate {mean30:.2f} (band [4.5, 6.5]); "
        f"150x55 mean estimate {mean55:.2f} (band [7.0, 8.0]), 10 replicates each",
    )


def test_c4_one_dominant_component_baseline():
    spec_base = SyntheticSpec(n_rows=414, n_cols=9, n_significant=1, strong_var_base=1.0)
    options = AnalysisOptions(n_null_samples=2000)
    good = 0
    outcomes = []
    for rep in range(10):
        spec = replace(spec_base, seed=derive_seed(414, rep))
        run_options = replace(options, seed=derive_seed(spec.seed, 1))
        result = analyze_numeric(generate(spec), run_options)
        report = build_report(result, "baseline", run_options)
        w = result.test.n_significant
        rank1 = report["ranks"][0]
        rank2 = report["ranks"][1]
        hit = (
            w == 1
            and rank1["raw_p_display"] == "<0.0005"
            and rank2["adjusted_p"] is not None
            and rank2["adjusted_p"] >= 0.05
        )
        good += hit
        outcomes.append((w, rank1["raw_p_display"], rank2["adjusted_p"]))
    ok = good >= 9
    verdict(
        "C4",
        ok,
        f"{good}/10 seeded runs gave one significant component with "
        f"below-resolution rank-1 p and non-significant rank 2; outcomes {outcomes}",
    )


def test_c5_reconstruction_variance_matches_monte_carlo():
    gen = np.random.default_rng(550)
    worst = 0.0
    for k in range(20):
        n = int(gen.integers(3, 6))
        p = int(gen.integers(3, 6))
        q = int(gen.integers(2, 4))
        model = random_posterior_model(gen, n=n, p=p, q=q)
        recon = reconstruct(model)
        mc = mc_reconstruction_variance(model, n_draws=100_000, seed=5500 + k)
        worst = max(worst, float(np.max(np.abs(recon.var - mc) / mc)))
    ok = worst < 0.05
    verdict(
        "C5",
        ok,
        f"20 random posteriors, 1e5 draws each: worst elementwise "
        f"relative deviation {worst:.4f} (limit 0.05)",
    )


def test_c6_normalization_and_test_invariances():
    gen = np.random.default_rng(660)

    # Scale invariance of the normalized spectrum, arbitrary positive scales.
    worst_delta = 0.0
    for _ in range(200):
        q = int(gen.integers(2, 12))
        lam = np.sort(gen.uniform(0.0, 100.0, size=q))[::-1]
        for c in gen.uniform(1e-6, 1e6, size=5):
            delta = normalized_eigenvalues(c * lam) - normalized_eigenvalues(lam)
            worst_delta = max(worst_delta, float(np.max(np.abs(delta))))
    scale_ok = worst_delta <= 1e-12

    # Row permutation of the posterior reconstruction leaves the
    # significant count of the paired posterior-predictive test, the one
    # analyses run, at the planted 2.
    data = complete(
        center_cols(
            rank_k_matrix(50, 14, 2, seed=661, scale=2.0)
            + 0.05 * gen.standard_normal((50, 14))
        )
    )
    model = fit(data, VbpcaConfig(n_components=6, seed=1))
    recon = reconstruct(model)
    cfg = SigTestConfig(n_null_samples=400, seed=2)

    def count(mean: np.ndarray, var: np.ndarray) -> int:
        spectrum = reconstruction_spectrum(mean, q=6)
        posterior, null = sample_rank_null_spectra(
            Reconstruction(mean=mean, var=var), spectrum, cfg, model.noise_var
        )
        return count_significant(posterior, null, cfg).n_significant

    base_count = count(recon.mean, recon.var)
    perm = gen.permutation(50)
    perm_count = count(recon.mean[perm], recon.var[perm])
    perm_ok = base_count == perm_count == 2

    # Step-down adjustment matches the reference implementation exactly.
    mismatches = 0
    for _ in range(1000):
        k = int(gen.integers(1, 10))
        m = k + int(gen.integers(0, 40))
        raw = gen.uniform(size=k)
        if not np.array_equal(holm_bonferroni(raw, m), stepdown_adjust_reference(raw, m)):
            mismatches += 1
    holm_ok = mismatches == 0

    ok = scale_ok and perm_ok and holm_ok
    verdict(
        "C6",
        ok,
        f"scale-invariance worst delta {worst_delta:.2e} (limit 1e-12); "
        f"permuted count {perm_count} vs {base_count} (planted 2); "
        f"{mismatches}/1000 step-down mismatches",
    )


def test_c7_false_positive_rate_on_pure_null():
    # The paired test on one pure-noise fit, repeated over 50 null seeds:
    # a direction the fit keeps from noise should rarely be significant.
    gen = np.random.default_rng(770)
    data = complete(center_cols(gen.standard_normal((60, 25))))
    model = fit(data, VbpcaConfig(n_components=10, seed=1))
    recon = reconstruct(model)
    spectrum = reconstruction_spectrum(recon.mean, q=10)
    kept = int(np.count_nonzero(spectrum.eigenvalues))
    false_positives = 0
    top_p = []
    for seed in range(50):
        cfg = SigTestConfig(n_null_samples=500, alpha=0.05, seed=seed)
        posterior, null = sample_rank_null_spectra(recon, spectrum, cfg, model.noise_var)
        result = count_significant(posterior, null, cfg)
        false_positives += result.n_significant >= 1
        top_p.append(float(result.raw_p[0]))
    rate = false_positives / 50.0
    ok = kept >= 1 and rate <= 0.10
    verdict(
        "C7",
        ok,
        f"paired test on a 60x25 pure-noise fit keeping {kept} direction(s), "
        f"50 null seeds: {false_positives}/50 false positives (rate {rate:.2f}, "
        f"limit 0.10); rank-1 raw p {min(top_p):.2f}-{max(top_p):.2f}",
    )


def test_c6_paired_count_invariant_under_row_permutation():
    # C6's permutation check, on the paired posterior-predictive test that
    # the analysis runs.
    gen = np.random.default_rng(662)
    data = complete(
        center_cols(
            rank_k_matrix(50, 14, 2, seed=661, scale=2.0)
            + 0.05 * gen.standard_normal((50, 14))
        )
    )
    model = fit(data, VbpcaConfig(n_components=6, seed=1))
    recon = reconstruct(model)
    cfg = SigTestConfig(n_null_samples=400, seed=2)

    def count(mean: np.ndarray, var: np.ndarray) -> int:
        spectrum = reconstruction_spectrum(mean, q=6)
        posterior, null = sample_rank_null_spectra(
            Reconstruction(mean=mean, var=var), spectrum, cfg, model.noise_var
        )
        return count_significant(posterior, null, cfg).n_significant

    base_count = count(recon.mean, recon.var)
    perm = gen.permutation(50)
    perm_count = count(recon.mean[perm], recon.var[perm])
    ok = base_count == perm_count == 2
    verdict(
        "C6",
        ok,
        f"paired test: permuted count {perm_count} vs {base_count} (planted 2)",
    )


def test_c7_pipeline_false_positive_rate_on_pure_noise():
    # C7 on the whole analysis: pure-noise matrices run through
    # ``analyze_numeric`` should come out with no significant component.
    options = AnalysisOptions(n_null_samples=200, alpha=0.05)
    runs = 0
    kept = 0
    false_positives = 0
    for shape in ((60, 25), (150, 30)):
        for rep in range(20):
            x = np.random.default_rng(derive_seed(771, rep)).standard_normal(shape)
            result = analyze_numeric(
                complete(x), replace(options, seed=derive_seed(772, rep))
            )
            runs += 1
            kept += np.count_nonzero(result.spectrum.eigenvalues) > 0
            false_positives += result.test.n_significant >= 1
    rate = false_positives / runs
    ok = rate <= 0.10
    verdict(
        "C7",
        ok,
        f"pure-noise matrices through the full analysis: {false_positives}/{runs} "
        f"false positives (rate {rate:.2f}, limit 0.10); the fit kept a "
        f"direction in {kept}",
    )


def test_c8_noise_free_low_rank_recovery():
    details = []
    ok = True
    for k in (1, 2, 3):
        data = complete(center_cols(rank_k_matrix(60, 20, k, seed=880 + k)))
        # Component counts below 2 are outside the model's domain, so the
        # rank-1 case is fitted at the smallest admissible count.
        model = fit(data, VbpcaConfig(n_components=max(k, 2), seed=1))
        mse = masked_mse(data, reconstruct(model).mean)
        sweeps = len(model.cost_trace) - 1
        trace_ok = model.cost_trace[-1] <= model.cost_trace[0]
        ok = ok and mse < 1e-4 and sweeps <= 80 and trace_ok
        details.append(f"rank {k}: mse {mse:.2e} in {sweeps} sweeps")
    verdict("C8", ok, "; ".join(details) + " (limit 1e-4 within 80 sweeps)")


def test_c9_reports_byte_identical_across_runs_and_workers():
    spec = SyntheticSpec(n_rows=150, n_cols=30, n_significant=2, seed=990)
    data = generate(spec)
    options = AnalysisOptions(n_null_samples=300, seed=9)
    texts = []
    for _ in range(3):
        result = analyze_numeric(data, options)
        texts.append(report_to_json(build_report(result, "determinism", options)))
    reports_ok = texts[0] == texts[1] == texts[2]
    # The worker count acts only where a grid is spread over processes.
    grid_options = AnalysisOptions(n_null_samples=100, q_max=6)
    serial, pooled = (run_validation("i", 1, grid_options, workers=w) for w in (1, 3))
    runs_ok = pooled == serial
    ok = reports_ok and runs_ok
    verdict(
        "C9",
        ok,
        f"three analyses: byte-identical={reports_ok}, report length "
        f"{len(texts[0])} bytes; {len(serial)} scenario i runs at workers 1 "
        f"and 3: identical={runs_ok}",
    )
