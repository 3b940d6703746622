"""Spectrum normalization, null sampling, and the sequential rank test."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    center_cols,
    complete,
    gram_top_eigvals,
    normalize_spectrum_reference,
    rank_k_matrix,
    stepdown_adjust_reference,
)
from sigpca import (
    ConfigError,
    Reconstruction,
    ShapeError,
    SigTestConfig,
    Spectrum,
    VbpcaConfig,
    count_significant,
    fit,
    holm_bonferroni,
    normalized_eigenvalues,
    reconstruct,
    reconstruction_spectrum,
    sample_rank_null_spectra,
)
from sigpca import significance
from sigpca.linalg import sym_eigvals
from sigpca.rng import generator
from sigpca.significance import _gram, _top_eigenvalues

descending_spectra = st.lists(
    st.floats(0.0, 1e6), min_size=1, max_size=12
).map(lambda xs: np.sort(np.asarray(xs))[::-1])

# Scaling by 2**k is exact only while every value stays a normal float,
# so the entries are 0 or large enough to stay normal after 2**-40.
_SMALLEST_SCALABLE = float(np.finfo(np.float64).tiny) * 2.0**40
scalable_spectra = st.lists(
    st.one_of(st.just(0.0), st.floats(_SMALLEST_SCALABLE, 1e6)), min_size=1, max_size=12
).map(lambda xs: np.sort(np.asarray(xs))[::-1])


class TestNormalizedEigenvalues:
    def test_hand_examples(self):
        assert np.allclose(normalized_eigenvalues([4.0, 2.0, 0.0, 0.0]), [2.0, 2.0, 0.0, 0.0])
        assert np.allclose(normalized_eigenvalues([4.0, 2.0, 1.0]), [4.0 / 3.0, 1.0, 0.0])
        assert np.allclose(normalized_eigenvalues([4.0, 1.0]), [1.0, 0.0])
        c = 3.7
        assert np.allclose(normalized_eigenvalues([c, c, c, c]), [1.0, 1.0, 1.0, 0.0])

    def test_last_rank_always_zero_and_zero_tails_defined_as_zero(self):
        assert np.array_equal(normalized_eigenvalues([5.0]), [0.0])
        assert np.array_equal(normalized_eigenvalues([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
        # A positive value over an all-zero tail is also defined as 0.
        assert np.array_equal(normalized_eigenvalues([3.0, 0.0, 0.0])[1:], [0.0, 0.0])
        assert normalized_eigenvalues([3.0, 0.0, 0.0])[0] == pytest.approx(2.0)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            normalized_eigenvalues(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            normalized_eigenvalues([])

    @given(lam=descending_spectra)
    def test_matches_loop_reference(self, lam):
        assert np.allclose(
            normalized_eigenvalues(lam), normalize_spectrum_reference(lam), atol=1e-12
        )

    @given(lam=scalable_spectra, scale_exp=st.integers(-40, 40))
    def test_exact_invariance_under_power_of_two_scaling(self, lam, scale_exp):
        scaled = lam * 2.0**scale_exp
        assert np.array_equal(normalized_eigenvalues(scaled), normalized_eigenvalues(lam))

    @given(lam=descending_spectra, c=st.floats(1e-6, 1e6))
    def test_invariance_under_arbitrary_scaling(self, c, lam):
        # The premise holds while c * lam is lam scaled: no entry rounds
        # to 0 and none leaves the normal range.
        scaled = c * lam
        tiny = np.finfo(np.float64).tiny
        assume(np.array_equal(scaled > 0.0, lam > 0.0))
        assume(np.all((scaled == 0.0) | (scaled >= tiny)))
        delta = normalized_eigenvalues(scaled) - normalized_eigenvalues(lam)
        assert np.max(np.abs(delta)) <= 1e-12


class TestSpectrum:
    def test_from_eigenvalues(self):
        s = Spectrum([4.0, 2.0, 1.0])
        assert s.n_ranks == 3
        assert np.allclose(s.normalized, [4.0 / 3.0, 1.0, 0.0])

    def test_normalized_is_derived_read_only_and_not_an_argument(self):
        lam = np.array([9.0, 4.0, 2.0, 0.5, 0.0])
        s = Spectrum(lam, 0.25)
        assert np.array_equal(s.normalized, normalized_eigenvalues(lam))
        with pytest.raises(ValueError):
            s.normalized[0] = 9.0
        with pytest.raises(TypeError):
            Spectrum(lam, normalized=normalized_eigenvalues(lam))

    def test_ordering_validation(self):
        with pytest.raises(ShapeError):
            Spectrum([1.0, 2.0])
        with pytest.raises(ShapeError):
            Spectrum([2.0, -1.0])
        with pytest.raises(ShapeError):
            Spectrum(np.ones((2, 2)))
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan]):
            with pytest.raises(ShapeError, match="finite"):
                Spectrum(bad)

    def test_floor_is_recorded_and_checked(self):
        assert Spectrum([4.0, 2.0]).floor == 0.0
        assert Spectrum([4.0, 0.0], 2.5).floor == 2.5
        for floor in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                Spectrum([4.0, 2.0], floor)

    def test_arrays_frozen(self):
        s = Spectrum([4.0, 2.0])
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 9.0


class TestReconstructionSpectrum:
    def test_matches_plain_numpy_top_eigenvalues(self):
        gen = np.random.default_rng(21)
        x = gen.standard_normal((12, 7))
        s = reconstruction_spectrum(x, q=5)
        assert np.allclose(s.eigenvalues, gram_top_eigvals(x, 5), rtol=1e-10, atol=1e-8)

    def test_truncates_to_requested_rank_count(self):
        x = np.random.default_rng(22).standard_normal((10, 10))
        assert reconstruction_spectrum(x, q=4).n_ranks == 4
        assert np.allclose(
            reconstruction_spectrum(x, q=4).eigenvalues,
            reconstruction_spectrum(x, q=10).eigenvalues[:4],
        )

    def test_rank_deficient_tail_reported_as_exact_zeros(self):
        x = rank_k_matrix(9, 6, 2, seed=23)
        s = reconstruction_spectrum(x, q=6)
        assert np.all(s.eigenvalues[:2] > 0.0)
        assert np.array_equal(s.eigenvalues[2:], np.zeros(4))

    def test_energy_floor_zeroes_small_eigenvalues(self):
        x = np.diag([10.0, 3.0, 0.1])  # Gram eigenvalues 100, 9, 0.01
        no_floor = reconstruction_spectrum(x, q=3)
        assert np.count_nonzero(no_floor.eigenvalues) == 3
        floored = reconstruction_spectrum(x, q=3, energy_floor=1.0)
        assert np.count_nonzero(floored.eigenvalues) == 2
        everything = reconstruction_spectrum(x, q=3, energy_floor=200.0)
        assert np.array_equal(everything.eigenvalues, np.zeros(3))

    def test_validation(self):
        x = np.zeros((6, 4))
        with pytest.raises(ConfigError):
            reconstruction_spectrum(x, q=1)
        with pytest.raises(ConfigError):
            reconstruction_spectrum(x, q=5)
        with pytest.raises(ShapeError):
            reconstruction_spectrum(np.zeros(6), q=2)
        with pytest.raises(ConfigError):
            reconstruction_spectrum(x, q=2, energy_floor=-1.0)
        with pytest.raises(ConfigError):
            reconstruction_spectrum(x, q=2, energy_floor=float("nan"))


class TestSampleNullSpectra:
    """The posterior half of ``sample_rank_null_spectra``."""

    def make_recon(self, seed=24, n=10, p=6):
        gen = np.random.default_rng(seed)
        mean = gen.standard_normal((n, p))
        var = gen.uniform(0.1, 0.5, size=(n, p))
        return Reconstruction(mean=mean, var=var)

    def posterior(self, recon, q, config, energy_floor=0.0):
        spectrum = reconstruction_spectrum(recon.mean, q=q, energy_floor=energy_floor)
        return sample_rank_null_spectra(recon, spectrum, config)[0]

    def test_zero_variance_null_equals_observed_spectrum_exactly(self):
        recon = Reconstruction(mean=self.make_recon().mean, var=np.zeros((10, 6)))
        observed = reconstruction_spectrum(recon.mean, q=4)
        posterior = self.posterior(recon, 4, SigTestConfig(n_null_samples=100))
        assert posterior.shape == (100, 4)
        for row in range(100):
            assert np.array_equal(posterior[row], observed.normalized)

    def test_each_sample_owns_a_stream_so_prefixes_agree(self):
        recon = self.make_recon()
        small = self.posterior(recon, 4, SigTestConfig(n_null_samples=100, seed=5))
        large = self.posterior(recon, 4, SigTestConfig(n_null_samples=150, seed=5))
        assert np.array_equal(small, large[:100])

    def test_rows_are_valid_descending_spectra(self):
        posterior = self.posterior(self.make_recon(), 5, SigTestConfig(n_null_samples=100))
        # Invert the normalisation: with the tail sum at rank 0 set to 1,
        # a_r = l_r / (l_r + ... + l_{q-2}) gives l_r = a_r * (1 - a_0) * ...
        # * (1 - a_{r-1}) for r < q - 1.
        q = posterior.shape[1]
        assert np.all(posterior[:, -1] == 0.0)
        shares = posterior[:, :-1] / (q - 1 - np.arange(q - 1))
        assert np.all((shares >= 0.0) & (shares <= 1.0 + 1e-12))
        tails = np.cumprod(np.hstack([np.ones((100, 1)), 1.0 - shares[:, :-1]]), axis=1)
        lam = shares * tails
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam, axis=1) <= 1e-12 * lam[:, :1])

    def test_validation(self):
        recon = self.make_recon()
        with pytest.raises(ConfigError):
            sample_rank_null_spectra(recon, Spectrum([1.0]), SigTestConfig())
        with pytest.raises(ConfigError):
            sample_rank_null_spectra(recon, Spectrum(np.ones(7)), SigTestConfig())
        with pytest.raises(ConfigError):
            sample_rank_null_spectra(
                recon, Spectrum(np.ones(3), float("nan")), SigTestConfig()
            )
        with pytest.raises(ConfigError):
            SigTestConfig(n_null_samples=99)
        with pytest.raises(ConfigError):
            SigTestConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            SigTestConfig(alpha=1.0)

    def test_non_integer_sample_count_rejected(self):
        for count in (150.5, 200.0, "200"):
            with pytest.raises(ConfigError):
                SigTestConfig(n_null_samples=count)
        assert SigTestConfig(n_null_samples=np.int64(200)).n_null_samples == 200

    def test_median_top_rank_matches_independent_resimulation(self):
        gen = np.random.default_rng(25)
        mean = np.zeros((20, 20))
        var = np.ones((20, 20))
        q, n_samples = 10, 2000
        posterior = self.posterior(
            Reconstruction(mean=mean, var=var),
            q,
            SigTestConfig(n_null_samples=n_samples, seed=7),
        )
        package_median = float(np.median(posterior[:, 0]))
        resim = np.empty(n_samples)
        for k in range(n_samples):
            draw = gen.standard_normal((20, 20))
            resim[k] = normalize_spectrum_reference(gram_top_eigvals(draw, q))[0]
        independent_median = float(np.median(resim))
        assert abs(package_median - independent_median) <= 0.02 * independent_median


class TestSampleRankNullSpectra:
    def make_recon(self):
        gen = np.random.default_rng(33)
        mean = rank_k_matrix(12, 7, 2, seed=33)
        return Reconstruction(mean=mean, var=gen.uniform(0.005, 0.015, size=(12, 7)))

    def test_nulls_lower_only_the_kept_ranks(self):
        recon = self.make_recon()
        spectrum = reconstruction_spectrum(recon.mean, q=5)
        cfg = SigTestConfig(n_null_samples=100, seed=4)
        posterior, null = sample_rank_null_spectra(recon, spectrum, cfg)
        assert not posterior.flags.writeable and not null.flags.writeable
        assert np.array_equal(posterior, full_draw_reference(recon, 5, 2, cfg)[0])
        # The mean has two components; past them nothing is removed.
        assert np.array_equal(null[:, 2:], posterior[:, 2:])
        assert np.all(null[:, :2] < posterior[:, :2])

    def test_zero_variance_nulls_lack_exactly_the_tested_component(self):
        recon = Reconstruction(mean=self.make_recon().mean, var=np.zeros((12, 7)))
        spectrum = reconstruction_spectrum(recon.mean, q=5)
        cfg = SigTestConfig(n_null_samples=100)
        posterior, null = sample_rank_null_spectra(recon, spectrum, cfg)
        assert np.array_equal(null[:, :2], np.zeros((100, 2)))
        result = count_significant(spectrum, null, cfg, posterior)
        assert result.n_significant == 2
        assert np.array_equal(result.raw_p, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "n, p, k, energy_floor, n_retired",
        [(12, 7, 2, 0.0, 0), (12, 7, 0, 0.0, 0), (10, 10, 4, 0.0, 0), (6, 11, 3, 1e-3, 2)],
        ids=["kept-ranks", "zero-ranks", "square", "wide"],
    )
    def test_rows_equal_the_one_matrix_computation(self, n, p, k, energy_floor, n_retired):
        gen = np.random.default_rng(34)
        mean = rank_k_matrix(n, p, k, seed=34) if k else np.zeros((n, p))
        recon = Reconstruction(mean=mean, var=gen.uniform(0.005, 0.3, size=(n, p)))
        q = min(n, p) - 1
        spectrum = reconstruction_spectrum(mean, q=q, energy_floor=energy_floor)
        assert np.count_nonzero(spectrum.eigenvalues) == k
        cfg = SigTestConfig(n_null_samples=100, seed=6)
        assert spectrum.floor == energy_floor
        posterior, null = sample_rank_null_spectra(recon, spectrum, cfg)
        expected_post, expected_null = full_draw_reference(recon, q, k, cfg, energy_floor)
        assert np.array_equal(posterior, expected_post)
        retired = retired_ranks(null)
        drawn = ~retired
        # The nulls are assembled from shared products and match the
        # direct computation to rounding.
        assert_nulls_match(null[:, drawn], expected_null[:, drawn])
        # Retired nulls are kept ranks past the last rank the test reaches.
        n_tested = count_significant(spectrum, null, cfg, posterior).raw_p.size
        assert np.count_nonzero(retired) == n_retired
        assert np.all(np.flatnonzero(retired) >= n_tested)
        assert np.all(np.flatnonzero(retired) < k)


def assert_nulls_match(actual, expected, exact=False):
    """Drawn null values against the direct reference: bit for bit when
    ``exact``, else to rounding (relative difference at most 1e-12, so a
    zero stays an exact zero)."""
    if exact:
        assert np.array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


def full_draw_reference(recon, q, k, cfg, energy_floor=0.0):
    """Posterior and per-rank null normalised values with every rank drawn
    in every draw, one perturbed matrix at a time."""
    n, p = recon.mean.shape
    u, s, vt = np.linalg.svd(recon.mean, full_matrices=False)
    bases = [(u[:, :r] * s[:r]) @ vt[:r] for r in range(k)]
    shape = (cfg.n_null_samples, q)
    posterior, null = np.empty(shape), np.empty(shape)
    for row in range(cfg.n_null_samples):
        gen_k = generator(cfg.seed, row)
        noise = np.sqrt(recon.var) * gen_k.standard_normal((n, p))
        lam = _top_eigenvalues(recon.mean + noise, q, energy_floor)
        posterior[row] = null[row] = normalized_eigenvalues(lam)
        for r, base in enumerate(bases):
            lam_r = _top_eigenvalues(base + noise, q, energy_floor)
            null[row, r] = normalized_eigenvalues(lam_r)[r]
    return posterior, null


def retired_ranks(null: np.ndarray) -> np.ndarray:
    """Ranks whose null column holds no draw; a column is never partly drawn."""
    missing = np.isnan(null)
    retired = missing.all(axis=0)
    assert np.array_equal(missing.any(axis=0), retired)
    return retired


def weak_tail_recon(n, p, singular_values, var_scale, seed=5):
    """Mean with the given singular values and a positive variance."""
    gen = np.random.default_rng(seed)
    k = len(singular_values)
    left, _ = np.linalg.qr(gen.standard_normal((n, k)))
    right, _ = np.linalg.qr(gen.standard_normal((p, k)))
    mean = (left * np.asarray(singular_values, dtype=float)) @ right.T
    return Reconstruction(mean=mean, var=var_scale * gen.uniform(0.5, 1.5, size=(n, p)))


class TestNullRetirement:
    """The sampler stops drawing a rank's null once the step-down cannot
    reach it; everything the test reports must equal drawing every rank in
    full."""

    @pytest.mark.parametrize(
        "n, p, singular_values, var_scale, alpha, n_samples, n_retired",
        [
            (14, 9, [6, 4, 1, 0.5, 0.3, 0.2], 0.05, 0.05, 100, 3),
            (14, 9, [6, 4, 1, 0.5, 0.3, 0.2], 0.05, 0.2, 150, 3),
            (14, 9, [6, 4, 1, 0.5, 0.3, 0.2], 0.05, 0.01, 300, 3),
            (9, 14, [5, 2, 0.8, 0.5, 0.4], 0.05, 0.05, 100, 3),
            (9, 14, [5, 2, 0.8, 0.5, 0.4], 0.05, 0.2, 150, 2),
            (9, 14, [5, 2, 0.8, 0.5, 0.4], 0.05, 0.01, 300, 3),
            (10, 10, [6, 4, 1, 0.5, 0.3, 0.2], 0.05, 0.05, 100, 3),
            (10, 10, [6, 4, 1, 0.5, 0.3, 0.2], 0.05, 0.2, 150, 3),
            # Zero variance: every kept null sits below the posterior but
            # the last rank's, which ties it, so nothing is retired.
            (10, 6, [5, 3, 2, 1], 0.0, 0.05, 100, 0),
            (10, 10, [5, 3, 2, 1], 0.0, 0.05, 100, 0),
        ],
        ids=[
            "tall-a05-n100", "tall-a20-n150", "tall-a01-n300",
            "wide-a05-n100", "wide-a20-n150", "wide-a01-n300",
            "square-a05-n100", "square-a20-n150",
            "zero-variance-tie", "square-zero-variance-tie",
        ],
    )
    def test_matches_full_draw_reference(
        self, n, p, singular_values, var_scale, alpha, n_samples, n_retired
    ):
        recon = weak_tail_recon(n, p, singular_values, var_scale)
        k = len(singular_values)
        q = k if var_scale == 0.0 else min(n, p) - 1
        cfg = SigTestConfig(n_null_samples=n_samples, alpha=alpha, seed=3)
        result, retired = self.check_against_full_draws(recon, q, k, cfg)
        assert np.count_nonzero(retired) == n_retired
        if var_scale == 0.0:
            assert np.array_equal(result.raw_p, [0.0] * (k - 1) + [1.0])

    @pytest.mark.parametrize(
        "n, p, singular_values",
        [(14, 9, [6, 3, 2.2, 1.8, 0.6, 0.4]), (9, 14, [6, 3, 2.2, 1.6, 0.6, 0.4])],
        ids=["tall", "wide"],
    )
    def test_alphas_at_every_holm_value_match_full_draw_reference(self, n, p, singular_values):
        # At alpha equal to a rank's final Holm value the test stops at
        # that rank; one ulp above it the rank passes.  The sampler must
        # retire exactly enough on both sides.
        recon = weak_tail_recon(n, p, singular_values, 0.05)
        k, q = len(singular_values), min(n, p) - 1
        cfg = SigTestConfig(n_null_samples=100, seed=3)
        full = full_draw_reference(recon, q, k, cfg)
        exceed = np.count_nonzero(full[1] >= full[0], axis=0)
        holm = stepdown_adjust_reference(exceed / cfg.n_null_samples, q)
        boundaries = sorted({float(h) for h in holm if 0.0 < h < 1.0})
        assert len(boundaries) >= 2
        for h in boundaries:
            for alpha in (h, float(np.nextafter(h, 1.0))):
                cfg = SigTestConfig(n_null_samples=100, alpha=alpha, seed=3)
                self.check_against_full_draws(recon, q, k, cfg, full)

    @staticmethod
    def check_against_full_draws(recon, q, k, cfg, full=None):
        """Sample lazily, test, and compare with the step-down written out
        on every rank drawn in full; returns the result and retired ranks."""
        spectrum = reconstruction_spectrum(recon.mean, q=q)
        assert np.count_nonzero(spectrum.eigenvalues) == k
        posterior, null = sample_rank_null_spectra(recon, spectrum, cfg)
        result = count_significant(spectrum, null, cfg, posterior)
        ref_post, ref_null = full or full_draw_reference(recon, q, k, cfg)
        assert np.array_equal(posterior, ref_post)
        exceed = np.count_nonzero(ref_null >= ref_post, axis=0)
        raw, adjusted = [], np.empty(0)
        for r in range(q):
            raw.append(int(exceed[r]) / cfg.n_null_samples)
            adjusted = stepdown_adjust_reference(raw, q)
            if adjusted[-1] >= cfg.alpha:
                break
        assert np.array_equal(result.raw_p, raw)
        assert np.array_equal(result.adjusted_p, adjusted)
        assert result.n_significant == int(np.count_nonzero(adjusted < cfg.alpha))

        retired = retired_ranks(null)
        drawn = ~retired
        assert np.all(np.flatnonzero(retired) >= len(raw))
        ref_quantiles = np.percentile(ref_null, (5.0, 50.0, 95.0), axis=0).T
        # Without noise there is no rounding to differ by.
        exact = not np.any(recon.var)
        assert_nulls_match(null[:, drawn], ref_null[:, drawn], exact)
        assert_nulls_match(result.null_quantiles[drawn], ref_quantiles[drawn], exact)
        assert np.array_equal(
            np.isnan(result.null_quantiles), np.repeat(retired[:, None], 3, axis=1)
        )
        return result, retired

    def test_step_down_reaching_a_retired_rank_raises(self):
        recon = weak_tail_recon(9, 14, [5, 2, 0.8, 0.5, 0.4], 0.05)
        spectrum = reconstruction_spectrum(recon.mean, q=8)
        cfg = SigTestConfig(n_null_samples=100, alpha=0.05, seed=3)
        posterior, null = sample_rank_null_spectra(recon, spectrum, cfg)
        assert np.array_equal(np.flatnonzero(retired_ranks(null)), [2, 3, 4])
        result = count_significant(spectrum, null, cfg, posterior)
        # Rank 2's raw p of 0.01 times 7 ranks stops the test at alpha
        # 0.05; at alpha 0.2 it passes and the test reaches rank 3.
        assert np.array_equal(result.raw_p, [0.0, 0.01])
        looser = SigTestConfig(n_null_samples=100, alpha=0.2, seed=3)
        with pytest.raises(ConfigError, match="rank 3"):
            count_significant(spectrum, null, looser, posterior)
        # A smaller alpha stops no later and never needs a retired rank.
        stricter = SigTestConfig(n_null_samples=100, alpha=0.01, seed=3)
        assert np.array_equal(count_significant(spectrum, null, stricter, posterior).raw_p, [0.0, 0.01])


class TestSharedNoiseGram:
    """Each draw's null Grams are assembled from one noise Gram, a thin
    cross term and the Gram of each rank-r approximation; they must match
    the Gram of the perturbed approximation built directly, on the side
    ``_gram`` takes, and be exactly symmetric."""

    @pytest.mark.parametrize(
        "n, p, singular_values, var_scale",
        [
            (14, 9, [6, 4, 1, 0.5, 0.3, 0.2], 0.05),
            (10, 10, [6, 4, 2, 1, 0.5], 0.05),
            (9, 14, [5, 2, 0.8, 0.5, 0.4], 0.05),
            (10, 10, [5, 3, 2, 1], 0.0),
        ],
        ids=["tall", "square", "wide", "square-zero-variance"],
    )
    def test_assembled_grams_match_direct_grams(
        self, n, p, singular_values, var_scale, monkeypatch
    ):
        stacks = []

        def recording_eigvals(grams):
            stacks.append(np.array(grams))
            return sym_eigvals(grams)

        recon = weak_tail_recon(n, p, singular_values, var_scale)
        k = len(singular_values)
        spectrum = reconstruction_spectrum(recon.mean, q=k if var_scale == 0.0 else min(n, p) - 1)
        assert np.count_nonzero(spectrum.eigenvalues) == k
        cfg = SigTestConfig(n_null_samples=100, seed=3)
        monkeypatch.setattr(significance, "sym_eigvals", recording_eigvals)
        sample_rank_null_spectra(recon, spectrum, cfg)
        assert len(stacks) == cfg.n_null_samples

        u, s, vt = np.linalg.svd(recon.mean, full_matrices=False)
        bases = [(u[:, :r] * s[:r]) @ vt[:r] for r in range(k)]
        for row, stack in enumerate(stacks):
            gen_k = generator(cfg.seed, row)
            noise = np.sqrt(recon.var) * gen_k.standard_normal((n, p))
            assert stack.shape[1:] == (min(n, p),) * 2
            assert 2 <= stack.shape[0] <= 1 + k
            assert np.array_equal(stack[0], _gram(recon.mean + noise))
            for base, gram in zip(bases, stack[1:]):
                assert np.array_equal(gram, gram.T)
                direct = _gram(base + noise)
                if var_scale == 0.0:
                    assert np.array_equal(gram, direct)
                else:
                    scale = np.abs(direct).max()
                    np.testing.assert_allclose(gram, direct, rtol=0.0, atol=1e-12 * scale)


class TestHolmBonferroni:
    def test_hand_examples(self):
        assert np.allclose(
            holm_bonferroni([0.001, 0.01, 0.2], m=3), [0.003, 0.02, 0.2]
        )
        assert np.allclose(
            holm_bonferroni([0.001, 0.01, 0.2], m=30), [0.030, 0.29, 1.0]
        )
        assert np.allclose(holm_bonferroni([0.01, 0.01], m=2), [0.02, 0.02])
        assert np.allclose(holm_bonferroni([0.3], m=1), [0.3])

    def test_adjusted_never_below_raw_and_weakly_increasing(self):
        gen = np.random.default_rng(26)
        for _ in range(50):
            k = int(gen.integers(1, 9))
            raw = gen.uniform(size=k)
            adj = holm_bonferroni(raw, m=k + int(gen.integers(0, 20)))
            assert np.all(adj >= raw)
            assert np.all(np.diff(adj) >= 0.0)
            assert np.all(adj <= 1.0)

    def test_matches_loop_reference(self):
        gen = np.random.default_rng(27)
        for _ in range(200):
            k = int(gen.integers(1, 9))
            m = k + int(gen.integers(0, 30))
            raw = np.round(gen.uniform(size=k), 4)
            assert np.array_equal(holm_bonferroni(raw, m), stepdown_adjust_reference(raw, m))

    def test_validation(self):
        with pytest.raises(ConfigError):
            holm_bonferroni([0.1, 0.2, 0.3], m=2)
        with pytest.raises(ValueError):
            holm_bonferroni([0.5, 1.5], m=2)
        with pytest.raises(ValueError):
            holm_bonferroni([-0.1], m=1)
        with pytest.raises(ShapeError):
            holm_bonferroni(np.zeros((2, 2)), m=4)


def constant_null(rows: np.ndarray, n_samples: int = 200) -> np.ndarray:
    return np.tile(rows, (n_samples, 1))


class TestCountSignificant:
    def test_clear_cut_two_significant_ranks(self):
        observed = Spectrum(np.array([40.0, 20.0, 1.0, 0.5]))
        posterior = constant_null(np.array([2.0, 1.5, 0.1, 0.0]))
        null = constant_null(np.array([0.5, 0.4, 0.3, 0.0]))
        result = count_significant(observed, null, SigTestConfig(n_null_samples=200), posterior)
        assert result.n_significant == 2
        assert np.array_equal(result.raw_p, [0.0, 0.0, 1.0])
        assert np.array_equal(result.adjusted_p, [0.0, 0.0, 1.0])

    def test_testing_stops_at_first_non_significant_rank(self):
        observed = Spectrum(np.array([40.0, 20.0, 10.0, 5.0]))
        posterior = constant_null(np.array([0.1, 2.0, 2.0, 2.0]))
        null = constant_null(np.array([0.5, 0.4, 0.3, 0.0]))
        result = count_significant(observed, null, SigTestConfig(n_null_samples=200), posterior)
        # Rank 1 fails immediately; later ranks are never tested.
        assert result.n_significant == 0
        assert result.raw_p.shape == (1,)
        assert result.raw_p[0] == 1.0

    def test_raw_p_values_are_exceedance_fractions(self):
        gen = np.random.default_rng(28)
        n_samples, q = 400, 5
        null = np.sort(gen.uniform(0, 2, size=(n_samples, q)), axis=1)[:, ::-1]
        null[:, -1] = 0.0
        # Ranks 1 and 2 sit above their nulls in nearly every draw, with one
        # exact tie each; rank 3 is a coin flip.
        posterior = null + gen.uniform(-0.002, 1.0, size=(n_samples, q)) * [1, 1, 0, 0, 0]
        posterior[:, 2] += gen.uniform(-0.5, 0.5, size=n_samples)
        posterior[0, :2] = null[0, :2]
        observed = Spectrum(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
        result = count_significant(observed, null, SigTestConfig(n_null_samples=400), posterior)
        assert result.raw_p.size == 3
        for r, raw in enumerate(result.raw_p):
            expected = np.count_nonzero(null[:, r] >= posterior[:, r]) / n_samples
            assert raw == expected
            assert float(raw * n_samples).is_integer()
        assert result.raw_p[0] > 0.0

    def test_result_postconditions(self):
        gen = np.random.default_rng(29)
        for trial in range(20):
            q = int(gen.integers(3, 8))
            n_samples = 150
            null = np.abs(gen.standard_normal((n_samples, q)))
            null[:, -1] = 0.0
            posterior = null + gen.standard_normal((n_samples, q)) + gen.uniform(0, 4, size=q)
            lam = np.sort(gen.uniform(1, 10, size=q))[::-1]
            observed = Spectrum(lam)
            cfg = SigTestConfig(n_null_samples=n_samples, alpha=0.05)
            result = count_significant(observed, null, cfg, posterior)
            w = result.n_significant
            assert result.raw_p.shape == result.adjusted_p.shape
            assert len(result.raw_p) <= q
            assert np.all(result.adjusted_p >= result.raw_p)
            assert np.all(np.diff(result.adjusted_p) >= 0.0)
            assert np.all(result.adjusted_p[:w] < cfg.alpha)
            if len(result.adjusted_p) > w:
                assert len(result.adjusted_p) == w + 1
                assert result.adjusted_p[-1] >= cfg.alpha
            assert result.null_quantiles.shape == (q, 3)
            assert np.all(np.diff(result.null_quantiles, axis=1) >= 0.0)

    def test_zero_spectrum_with_noisy_null_finds_nothing(self):
        # A zero spectrum has no component to remove, so its nulls are the
        # posterior draws themselves.
        q, n_samples = 4, 200
        gen = np.random.default_rng(30)
        null = np.abs(gen.standard_normal((n_samples, q))) + 0.01
        null[:, -1] = 0.0
        observed = Spectrum(np.zeros(q))
        result = count_significant(observed, null, SigTestConfig(n_null_samples=n_samples), null)
        assert result.n_significant == 0
        assert result.raw_p[0] == 1.0

    def test_shape_mismatch_rejected(self):
        observed = Spectrum([4.0, 2.0, 1.0])
        null = constant_null(np.array([0.5, 0.0]))
        with pytest.raises(ShapeError):
            count_significant(observed, null, SigTestConfig(), null)
        with pytest.raises(ShapeError):
            count_significant(
                observed,
                constant_null(np.array([0.5, 0.4, 0.0])),
                SigTestConfig(),
                constant_null(np.array([0.5, 0.4, 0.0]), n_samples=100),
            )

    def test_paired_null_reaching_the_posterior_counts_against_the_rank(self):
        observed = Spectrum(np.array([4.0, 2.0, 1.0]))
        posterior = constant_null(np.array([1.8, 1.2, 0.0]))
        null = constant_null(np.array([0.5, 1.2, 0.0]))
        result = count_significant(observed, null, SigTestConfig(n_null_samples=200), posterior)
        # Rank 1 drops below the posterior in every draw; rank 2 ties it.
        assert np.array_equal(result.raw_p, [0.0, 1.0])
        assert result.n_significant == 1

    def test_single_rank_spectrum_rejected(self):
        observed = Spectrum([4.0])
        null = constant_null(np.array([0.0]))
        with pytest.raises(ConfigError):
            count_significant(observed, null, SigTestConfig(), null)


class TestEndToEndSpectrumProperties:
    def test_row_permutation_leaves_count_unchanged(self):
        data = complete(
            center_cols(
                rank_k_matrix(40, 12, 2, seed=31, scale=2.0)
                + 0.05 * np.random.default_rng(31).standard_normal((40, 12))
            )
        )
        model = fit(data, VbpcaConfig(n_components=6, seed=1))
        recon = reconstruct(model)
        cfg = SigTestConfig(n_null_samples=300, seed=2)

        def count(mean, var):
            spectrum = reconstruction_spectrum(mean, q=6)
            predictive = Reconstruction(mean=mean, var=var + model.noise_var)
            posterior, null = sample_rank_null_spectra(predictive, spectrum, cfg)
            return count_significant(spectrum, null, cfg, posterior).n_significant

        perm = np.random.default_rng(32).permutation(40)
        assert count(recon.mean, recon.var) == 2
        assert count(recon.mean[perm], recon.var[perm]) == 2
