"""Model fitting, posterior reconstruction, and the component count of an analysis."""

import numpy as np
import pytest

from helpers import (
    center_cols,
    complete,
    free_energy_reference,
    masked_mse,
    mc_reconstruction_variance,
    random_posterior_model,
    rank_k_matrix,
    ungrouped_fit_reference,
)
from sigpca import (
    AnalysisOptions,
    ConfigError,
    DataError,
    MaskedMatrix,
    VbpcaConfig,
    VbpcaModel,
    analyze_matrix,
    fit,
    reconstruct,
    select_n_components,
)
from sigpca import vbpca
from sigpca.vbpca import _free_energy


def fit_q(data, q, seed=0, **kwargs):
    return fit(data, VbpcaConfig(n_components=q, seed=seed, **kwargs))


class TestConfigValidation:
    def test_component_count_bounds(self):
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=1)
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=2.5)
        assert VbpcaConfig(n_components=2).n_components == 2

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=3, max_iters=2.5)
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=3.0)

    def test_iteration_and_tolerance_bounds(self):
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=2, max_iters=0)
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=2, conv_tol=-1e-6)
        with pytest.raises(ConfigError):
            VbpcaConfig(n_components=2, seed=-1)

    def test_component_count_checked_against_data_shape(self):
        data = complete(np.zeros((5, 3)) + np.eye(5, 3))
        with pytest.raises(ConfigError):
            fit_q(data, 4)

    def test_all_missing_column_rejected(self):
        values = np.ones((6, 3))
        mask = np.ones((6, 3), dtype=bool)
        mask[:, 1] = False
        with pytest.raises(DataError):
            fit_q(MaskedMatrix(values, mask), 2)


class TestFitRecovery:
    def test_noise_free_rank2_reconstructed_below_1e4(self):
        data = complete(center_cols(rank_k_matrix(60, 20, 2, seed=1)))
        model = fit_q(data, 2)
        recon = reconstruct(model)
        assert masked_mse(data, recon.mean) < 1e-4
        assert len(model.cost_trace) <= 81  # initial cost plus at most 80 sweeps

    def test_constant_matrix_explained_by_bias_alone(self):
        data = complete(np.full((30, 8), 5.0))
        model = fit_q(data, 3)
        assert np.allclose(model.bias_mean, 5.0, atol=1e-8)
        low_rank_part = (model.loadings_mean @ model.factors_mean).T
        assert np.linalg.norm(low_rank_part) < 1e-6 * np.linalg.norm(data.values)

    def test_same_data_and_seed_bit_identical(self):
        data = complete(center_cols(rank_k_matrix(25, 10, 3, seed=2)))
        a = fit_q(data, 4, seed=9)
        b = fit_q(data, 4, seed=9)
        for field in (
            "loadings_mean",
            "loadings_cov",
            "loadings_pattern",
            "factors_mean",
            "factors_cov",
            "factors_pattern",
            "bias_mean",
            "bias_var",
            "cost_trace",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.noise_var == b.noise_var

    def test_different_seeds_differ(self):
        data = complete(center_cols(rank_k_matrix(25, 10, 3, seed=2)))
        a = fit_q(data, 4, seed=1)
        b = fit_q(data, 4, seed=2)
        assert not np.array_equal(a.loadings_mean, b.loadings_mean)

    def test_masked_fit_recovers_hidden_entries(self):
        gen = np.random.default_rng(3)
        full = center_cols(rank_k_matrix(60, 20, 2, seed=3))
        mask = gen.uniform(size=full.shape) > 0.1
        data = MaskedMatrix(full, mask)
        model = fit_q(data, 2)
        recon = reconstruct(model)
        assert masked_mse(data, recon.mean) < 1e-4
        hidden = ~mask
        hidden_mse = float(((full - recon.mean)[hidden] ** 2).mean())
        assert hidden_mse < 1e-2

    def test_convergence_flag(self):
        gen = np.random.default_rng(3)
        full = center_cols(rank_k_matrix(60, 20, 2, seed=3))
        data = MaskedMatrix(full, gen.uniform(size=full.shape) > 0.1)
        model = fit_q(data, 2)
        assert model.converged and len(model.cost_trace) - 1 < 80
        assert not fit_q(data, 2, max_iters=1).converged
        assert not fit_q(complete(full), 2, max_iters=1).converged
        # Noise-free fits: the squared error falls to a rounding residue
        # whose relative change never settles, so the noise-floor test
        # must stop the sweeps, complete and masked alike.
        mask = gen.uniform(size=full.shape) > 0.1
        for k in (1, 2, 3):
            exact = center_cols(rank_k_matrix(60, 20, k, seed=1))
            for data in (complete(exact), MaskedMatrix(exact, mask)):
                model = fit_q(data, max(k, 2))
                assert model.converged and len(model.cost_trace) - 1 < 80, (k, data.mask.all())
                assert masked_mse(data, reconstruct(model).mean) < 1e-10

    @pytest.mark.parametrize("masked", [False, True, "blocks"])
    def test_grouped_fit_matches_ungrouped_reference(self, masked):
        # The fit shares one posterior covariance among rows (columns) with
        # one mask; the reference forms every row's and column's posterior
        # on its own, so the two must retrace each other.
        gen = np.random.default_rng(3)
        x = center_cols(rank_k_matrix(40, 12, 3, seed=3) + 0.3 * gen.standard_normal((40, 12)))
        if masked == "blocks":
            # whole column blocks missing together: rows and columns both
            # repeat masks
            blocks = np.repeat(np.arange(4), [3, 2, 4, 3])
            mask = (gen.uniform(size=(40, 4)) > 0.25)[:, blocks]
        elif masked:
            mask = gen.uniform(size=x.shape) > 0.15
        else:
            mask = np.ones(x.shape, dtype=bool)
        data = MaskedMatrix(x, mask)
        config = VbpcaConfig(n_components=6, seed=3)
        model = fit(data, config)
        expected = ungrouped_fit_reference(data, config)
        n_rows = len({row.tobytes() for row in mask})
        n_cols = len({col.tobytes() for col in mask.T})
        assert (len(model.factors_cov), len(model.loadings_cov)) == (n_rows, n_cols)
        if masked == "blocks":
            assert n_rows < 40 and n_cols < 12
        assert model.converged == expected.converged
        assert len(model.cost_trace) == len(expected.cost_trace)
        for name in ("cost_trace", "free_energy_trace"):
            np.testing.assert_allclose(getattr(model, name), getattr(expected, name), rtol=1e-10)
        got, want = reconstruct(model), reconstruct(expected)
        for name in ("mean", "var"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name

    def test_posterior_covariances_symmetric_psd(self):
        data = complete(center_cols(np.random.default_rng(4).standard_normal((20, 8))))
        model = fit_q(data, 3)
        for blocks in (model.loadings_cov, model.factors_cov):
            assert np.allclose(blocks, np.swapaxes(blocks, -1, -2))
            eigs = np.linalg.eigvalsh(blocks)
            assert np.all(eigs >= -1e-12)
        assert np.all(model.bias_var >= 0.0)
        assert model.noise_var > 0.0


class TestCostTrace:
    def make_cases(self):
        gen = np.random.default_rng(7)
        noisy = center_cols(
            rank_k_matrix(40, 15, 3, seed=5) + 0.3 * gen.standard_normal((40, 15))
        )
        mask = gen.uniform(size=noisy.shape) > 0.15
        return [
            complete(noisy),
            MaskedMatrix(noisy, mask),
            complete(center_cols(rank_k_matrix(30, 10, 2, seed=6))),
        ]

    def test_final_cost_never_above_initial(self):
        for data in self.make_cases():
            for q in (2, 4):
                trace = fit_q(data, q).cost_trace
                assert np.all(np.isfinite(trace))
                assert trace[-1] <= trace[0]

    def test_per_step_increases_within_tolerance(self):
        # Each sweep is a coordinate step on the variational free energy,
        # so that is the trace that must not rise; the squared error in
        # ``cost_trace`` may rise between sweeps on masked data.
        for data in self.make_cases():
            flat = data.values[data.mask]
            slack = 1e-8 * float(np.dot(flat, flat))
            model = fit_q(data, 3)
            trace = model.free_energy_trace
            assert trace.shape == model.cost_trace.shape
            assert np.all(np.diff(trace) <= slack)


class TestFreeEnergy:
    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_direct_elbo_on_tiny_model(self, q):
        gen = np.random.default_rng(30 + q)
        model = random_posterior_model(gen, 3, 2, q)
        mask = np.ones((3, 2), dtype=bool)
        mask[1, 0] = False
        data = MaskedMatrix(np.where(mask, gen.standard_normal((3, 2)), 0.0), mask)
        va = gen.uniform(0.2, 2.0, size=q)
        vm = 0.7
        recon = reconstruct(model)
        resid = data.values - recon.mean
        fit_sq = float(np.sum((resid**2 + recon.var)[mask]))
        A = model.loadings_mean
        Cy = model.factors_cov[model.factors_pattern]
        Ca = model.loadings_cov[model.loadings_pattern]
        energy = _free_energy(
            fit_sq,
            int(mask.sum()),
            model.noise_var,
            model.factors_mean.T,
            float(np.trace(Cy, axis1=1, axis2=2).sum()),
            float(np.linalg.slogdet(Cy)[1].sum()),
            A,
            Ca.diagonal(axis1=1, axis2=2).sum(axis=0),
            float(np.linalg.slogdet(Ca)[1].sum()),
            va,
            model.bias_mean,
            model.bias_var,
            vm,
        )
        expected = free_energy_reference(data, model, va, vm)
        assert energy == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("masked", [False, True, "blocks"])
    def test_last_entry_is_free_energy_of_returned_model(self, masked):
        # The fit takes the covariance log-determinants from the
        # precisions and corrects them for the normal-form map; recomputing
        # them from the returned (mapped) covariances must agree.
        gen = np.random.default_rng(31)
        x = center_cols(rank_k_matrix(25, 9, 2, seed=32) + 0.2 * gen.standard_normal((25, 9)))
        if masked == "blocks":
            # column blocks missing together, as a missing categorical cell
            # hides its whole one-hot block, so rows repeat masks
            blocks = np.repeat(np.arange(3), [3, 2, 4])
            mask = (gen.uniform(size=(25, 3)) > 0.3)[:, blocks]
        elif masked:
            mask = gen.uniform(size=x.shape) > 0.2
        else:
            mask = np.ones(x.shape, dtype=bool)
        data = MaskedMatrix(np.where(mask, x, 0.0), mask)
        model = fit_q(data, 3)
        Cy = model.factors_cov[model.factors_pattern]
        Ca = model.loadings_cov[model.loadings_pattern]
        if not masked:
            assert (len(model.factors_cov), len(model.loadings_cov)) == (1, 1)
            assert not model.factors_pattern.any() and not model.loadings_pattern.any()
        if masked == "blocks":
            # rows (columns) sharing a mask share one factor (loading)
            # block, and rows (columns) with different masks do not
            for masks, pattern, blocks, size in (
                (mask, model.factors_pattern, model.factors_cov, 25),
                (mask.T, model.loadings_pattern, model.loadings_cov, 9),
            ):
                groups = {}
                for i, row in enumerate(masks):
                    groups.setdefault(row.tobytes(), []).append(i)
                assert len(groups) < size and len(blocks) == len(groups)
                assert sorted({int(pattern[group[0]]) for group in groups.values()}) == list(
                    range(len(groups))
                )
                for group in groups.values():
                    assert np.all(pattern[group] == pattern[group[0]])
            # normal form, with each row's covariance counted once
            Y = model.factors_mean
            second = Y @ Y.T / Y.shape[1] + Cy.mean(axis=0)
            np.testing.assert_allclose(second, np.eye(3), atol=1e-10)
        scale = float(data.values[data.mask].var())
        anchor = max(scale, vbpca._ABS_SCALE_FLOOR)
        A = model.loadings_mean
        # the prior variances as the last sweep set them
        va = np.maximum(
            (A * A).mean(axis=0) + Ca.diagonal(axis1=1, axis2=2).mean(axis=0),
            anchor * vbpca._PRIOR_UNCERTAINTY_FLOOR_REL,
        )
        m = model.bias_mean
        vm = max(float(m @ m) / m.size + float(model.bias_var.mean()),
                 anchor * vbpca._PRIOR_FLOOR_REL)
        expected = free_energy_reference(data, model, va, vm)
        assert model.free_energy_trace[-1] == pytest.approx(expected, rel=1e-9)


class TestReconstruct:
    def test_scalar_hand_example(self):
        model = VbpcaModel(
            loadings_mean=np.array([[2.0]]),
            loadings_cov=np.array([[[0.5]]]),
            loadings_pattern=np.arange(1),
            factors_mean=np.array([[3.0]]),
            factors_cov=np.array([[[0.25]]]),
            factors_pattern=np.arange(1),
            bias_mean=np.array([7.0]),
            bias_var=np.array([0.1]),
            noise_var=1.0,
            cost_trace=np.array([1.0]),
        )
        recon = reconstruct(model)
        assert recon.mean.shape == (1, 1) and recon.var.shape == (1, 1)
        assert recon.mean[0, 0] == pytest.approx(2.0 * 3.0 + 7.0, abs=1e-12)
        # 4*0.25 + 9*0.5 + 0.25*0.5 + 0.1
        assert recon.var[0, 0] == pytest.approx(5.725, abs=1e-12)

    def test_zero_covariances_give_zero_variance(self):
        gen = np.random.default_rng(8)
        n, p, q = 5, 4, 3
        model = VbpcaModel(
            loadings_mean=gen.standard_normal((p, q)),
            loadings_cov=np.zeros((p, q, q)),
            loadings_pattern=np.arange(p),
            factors_mean=gen.standard_normal((q, n)),
            factors_cov=np.zeros((n, q, q)),
            factors_pattern=np.arange(n),
            bias_mean=gen.standard_normal(p),
            bias_var=np.zeros(p),
            noise_var=1.0,
            cost_trace=np.array([1.0]),
        )
        recon = reconstruct(model)
        assert np.all(recon.var == 0.0)
        expected = (model.loadings_mean @ model.factors_mean).T + model.bias_mean
        assert np.array_equal(recon.mean, expected)

    def test_pure_function_repeated_calls_bit_identical(self):
        model = fit_q(complete(center_cols(rank_k_matrix(15, 6, 2, seed=9))), 2)
        first = reconstruct(model)
        second = reconstruct(model)
        assert np.array_equal(first.mean, second.mean)
        assert np.array_equal(first.var, second.var)

    def test_shapes_and_nonnegative_variance(self):
        data = complete(center_cols(np.random.default_rng(10).standard_normal((12, 7))))
        recon = reconstruct(fit_q(data, 3))
        assert recon.mean.shape == (12, 7)
        assert recon.var.shape == (12, 7)
        assert np.all(recon.var >= 0.0) and np.all(np.isfinite(recon.var))

    def test_variance_matches_monte_carlo_on_random_models(self):
        gen = np.random.default_rng(11)
        for k in range(2):
            model = random_posterior_model(gen, n=3, p=3, q=2)
            recon = reconstruct(model)
            mc = mc_reconstruction_variance(model, n_draws=100_000, seed=100 + k)
            rel = np.abs(recon.var - mc) / mc
            assert rel.max() < 0.05


class TestSelectNComponents:
    def test_analysis_fits_once(self, monkeypatch):
        counts = []

        def counting_fit(data, config):
            counts.append(config.n_components)
            return fit(data, config)

        monkeypatch.setattr(vbpca, "fit", counting_fit)
        data = complete(center_cols(rank_k_matrix(30, 10, 2, seed=12)))
        analyze_matrix(data, AnalysisOptions(n_null_samples=100, seed=1))
        assert counts == [9]

    def test_default_count_is_min_of_dimensions_less_one_and_60(self, monkeypatch):
        counts = []
        monkeypatch.setattr(vbpca, "fit", lambda data, config: counts.append(config.n_components))
        cfg = VbpcaConfig(n_components=2)
        for shape in [(20, 8), (8, 20), (70, 65), (3, 40)]:
            select_n_components(MaskedMatrix.complete(np.zeros(shape)), cfg)
        assert counts == [7, 7, 60, 2]

    def test_invalid_ranges_rejected(self):
        data = complete(center_cols(rank_k_matrix(10, 6, 2, seed=13)))
        cfg = VbpcaConfig(n_components=2)
        for q_max in (0, 1, 7):
            with pytest.raises(ConfigError):
                select_n_components(data, cfg, q_max=q_max)
        assert select_n_components(data, cfg, q_max=6).n_components == 6

    def test_selected_model_matches_reported_count(self):
        data = complete(center_cols(rank_k_matrix(20, 10, 2, seed=15)))
        model = select_n_components(data, VbpcaConfig(n_components=2, seed=4), q_max=5)
        assert model.n_components == 5
        direct = fit_q(data, 5, seed=4)
        assert np.array_equal(model.cost_trace, direct.cost_trace)
        assert np.array_equal(model.loadings_mean, direct.loadings_mean)

    def test_noise_free_rank3_cost_table(self):
        data = complete(center_cols(rank_k_matrix(30, 12, 3, seed=14)))
        costs = {q: float(fit_q(data, q).cost_trace[-1]) for q in range(2, 7)}
        flat = data.values.ravel()
        energy = float(np.dot(flat, flat))
        # Error drops sharply until the true rank is reached ...
        assert costs[2] > costs[3] + 1e-3 * energy
        # ... and is flat (at numerical zero) beyond it, so the fit at the
        # largest count loses nothing against the fit at the true rank.
        for q in (4, 5, 6):
            assert abs(costs[q] - costs[3]) <= 1e-6 * energy
        model = select_n_components(data, VbpcaConfig(n_components=2), q_max=6)
        assert float(model.cost_trace[-1]) == costs[6]

    def test_full_depth_error_not_worse_than_shallower_fits(self):
        gen = np.random.default_rng(17)
        noisy = center_cols(
            rank_k_matrix(20, 10, 3, seed=18) + 0.5 * gen.standard_normal((20, 10))
        )
        data = complete(noisy)
        model = select_n_components(data, VbpcaConfig(n_components=2), q_max=10)
        full = float(model.cost_trace[-1])
        for q in range(2, 10):
            assert full <= float(fit_q(data, q).cost_trace[-1]) * 1.01 + 1e-12
