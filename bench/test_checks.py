"""Each of the benchmark's checks accepts a right answer and rejects a
wrong one.  Run with ``python -m pytest bench``."""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError  # noqa: E402

# Eigenvalues 4, 2, 1, 1: tail-normalised by hand as 3*4/7, 2*2/3, 1*1/1, 0.
# Raw p 0, 0.01, 0.5 over a family of 4 give Holm 0, 0.03, 1.0, so two
# ranks are significant at 0.05 and testing stops at rank 3.
REPORT = {
    "n_components": 4,
    "n_significant": 2,
    "config": {"alpha": 0.05},
    "ranks": [
        {"eigenvalue": 4.0, "normalized": 12 / 7, "raw_p": 0.0, "adjusted_p": 0.0},
        {"eigenvalue": 2.0, "normalized": 4 / 3, "raw_p": 0.01, "adjusted_p": 0.03},
        {"eigenvalue": 1.0, "normalized": 1.0, "raw_p": 0.5, "adjusted_p": 1.0},
        {"eigenvalue": 1.0, "normalized": 0.0, "raw_p": None, "adjusted_p": None},
    ],
}


def altered(**changes):
    report = copy.deepcopy(REPORT)
    for key, (rank, value) in changes.items():
        report["ranks"][rank][key] = value
    return report


class TestReport:
    def test_accepts_consistent_report(self):
        checks.check_report(REPORT)

    def test_rejects_one_adjusted_p_changed(self):
        with pytest.raises(CheckError, match="adjusted p"):
            checks.check_report(altered(adjusted_p=(1, 0.02)))

    def test_rejects_wrong_significant_count(self):
        report = copy.deepcopy(REPORT)
        report["n_significant"] = 3
        with pytest.raises(CheckError, match="n_significant"):
            checks.check_report(report)

    def test_rejects_normalized_value_not_from_eigenvalues(self):
        with pytest.raises(CheckError, match="normalized"):
            checks.check_report(altered(normalized=(0, 1.7)))

    def test_rejects_testing_that_stops_below_alpha(self):
        report = altered(raw_p=(2, None), adjusted_p=(2, None))
        with pytest.raises(CheckError, match="stopped"):
            checks.check_report(report)

    def test_holm_reference_by_hand(self):
        assert checks.holm_step_down([0.01, 0.04, 0.03], 3) == pytest.approx(
            [0.03, 0.08, 0.08]
        )


class TestSpectrum:
    def setup_method(self):
        gen = np.random.default_rng(3)
        self.mean = gen.standard_normal((30, 3)) @ gen.standard_normal((3, 8))
        self.energy = float(np.sum(self.mean**2))
        sv = np.linalg.svd(self.mean, compute_uv=False)
        self.spectrum = np.where(sv**2 > 1e-9 * self.energy, sv**2, 0.0)[:5]

    def test_accepts_squared_singular_values(self):
        assert np.count_nonzero(self.spectrum) == 3
        checks.check_spectrum_matches_svd(self.spectrum, self.mean, self.energy)

    def test_rejects_spectrum_that_differs_from_svd(self):
        wrong = self.spectrum.copy()
        wrong[1] *= 1.0 + 1e-6
        with pytest.raises(CheckError, match="rank 2"):
            checks.check_spectrum_matches_svd(wrong, self.mean, self.energy)

    def test_rejects_value_kept_below_the_floor(self):
        wrong = self.spectrum.copy()
        wrong[3] = 1e-20
        with pytest.raises(CheckError, match="floor"):
            checks.check_spectrum_matches_svd(wrong, self.mean, self.energy)


class TestGrid:
    def test_rejects_estimate_above_planted(self):
        checks.check_not_above_planted(2, 2, "cell")
        with pytest.raises(CheckError, match="above planted"):
            checks.check_not_above_planted(3, 2, "cell")

    def test_allows_one_planted_two_miss(self):
        checks.check_low_count_misses([(2, 1), (2, 2), (4, 3)])
        with pytest.raises(CheckError, match="2 planted-2"):
            checks.check_low_count_misses([(2, 1), (2, 0), (4, 4)])


class TestIngest:
    def test_rejects_mask_that_differs_from_written_missing(self):
        missing = np.zeros((5, 3), dtype=bool)
        missing[1, 2] = missing[4, 0] = True
        checks.check_mask(~missing, missing)
        parsed = ~missing
        parsed[4, 0] = True
        with pytest.raises(CheckError, match="1 cells"):
            checks.check_mask(parsed, missing)

    def test_rejects_bad_preprocessing(self):
        col = np.array([1.0, -1.0, 0.0, 0.0]) * np.sqrt(1.5)  # sample sd 1
        indicator = np.array([0.5, -0.5, 0.5, -0.5])
        values = np.column_stack([col, indicator])
        mask = np.ones_like(values, dtype=bool)
        checks.check_preprocessed(values, mask, [True, False], 2)
        with pytest.raises(CheckError, match="width"):
            checks.check_preprocessed(values, mask, [True, False], 3)
        with pytest.raises(CheckError, match="sample sd"):
            checks.check_preprocessed(values * 2, mask, [True, False], 2)
        with pytest.raises(CheckError, match="mean"):
            checks.check_preprocessed(values + 0.1, mask, [True, False], 2)


class TestFreeEnergy:
    def test_rejects_trace_that_rises(self):
        checks.check_free_energy([10.0, 8.0, 8.0 + 1e-9], observed_energy=1.0)
        with pytest.raises(CheckError, match="rises"):
            checks.check_free_energy([10.0, 8.0, 8.0 + 1e-7], observed_energy=1.0)


class TestPlanted:
    def test_rejects_wrong_count_or_weak_components(self):
        checks.check_report(REPORT)
        checks.check_planted_recovered(REPORT, 2, noise_edge=1.5)
        with pytest.raises(CheckError, match="estimate"):
            checks.check_planted_recovered(REPORT, 3, noise_edge=0.5)
        with pytest.raises(CheckError, match="noise edge"):
            checks.check_planted_recovered(REPORT, 2, noise_edge=3.0)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        spans = [
            tracing.Span(0, "a.x", None, 0, 0.0, 10.0),
            tracing.Span(1, "b.y", 0, 0, 1.0, 4.0),
            tracing.Span(2, "b.y", 0, 0, 2.0, 6.0),
            tracing.Span(3, "b.y", 0, 0, 8.0, 9.0),
        ]
        own = tracing.self_times(spans)
        assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
        assert own[1] == pytest.approx(3.0)
