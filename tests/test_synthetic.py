"""Synthetic benchmark generator: spec validation, structure, grids."""

import numpy as np
import pytest

from sigpca import ConfigError, SyntheticSpec, generate, generator, scenario_grid
from sigpca.synthetic import (
    SCENARIO_FIXED_DIM,
    SCENARIO_SIGNIFICANT,
    SCENARIO_SWEPT_SIZES,
    SCENARIOS,
)


class TestSpecValidation:
    def test_valid_spec_roundtrips_through_dict(self):
        spec = SyntheticSpec(n_rows=150, n_cols=30, n_significant=4, seed=9)
        assert SyntheticSpec.from_dict(spec.to_dict()) == spec

    def test_shape_bounds(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_rows=1, n_cols=10, n_significant=1)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_rows=10, n_cols=1, n_significant=1)

    def test_non_integer_counts_rejected(self):
        for args in ((40.5, 12, 2), (40, 12.0, 2), (40, 12, 2.5)):
            with pytest.raises(ConfigError):
                SyntheticSpec(*args)

    def test_significant_count_must_leave_room_for_weak_directions(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_rows=10, n_cols=5, n_significant=5)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_rows=10, n_cols=5, n_significant=0)
        assert SyntheticSpec(n_rows=10, n_cols=5, n_significant=4).n_significant == 4

    def test_variance_positivity(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_rows=10, n_cols=5, n_significant=2, weak_var=0.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_rows=10, n_cols=5, n_significant=2, loading_var=-1.0)

    def test_weakest_strong_direction_must_exceed_weak_floor(self):
        # With a large step the last strong variance dips below weak_var.
        with pytest.raises(ConfigError):
            SyntheticSpec(
                n_rows=50, n_cols=20, n_significant=8, strong_var_base=0.2,
                strong_var_step=0.03,
            )


def reference_draws(spec, variances):
    """Loadings (p, d) and factors (d, n) for the factor variances given,
    drawn in the documented order: loadings first, then factors."""
    d = len(variances)
    gen = generator(spec.seed)
    loadings = gen.standard_normal((spec.n_cols, d)) * np.sqrt(spec.loading_var)
    factors = gen.standard_normal((d, spec.n_rows)) * np.sqrt(variances)[:, None]
    return loadings, factors


class TestFactorStructure:
    def test_variance_ladder_layout(self):
        # Weak rows first, then the strong rows in decreasing variance.
        spec = SyntheticSpec(n_rows=20, n_cols=9, n_significant=3, seed=1)
        variances = np.array([spec.weak_var] * 6 + [1.0, 0.97, 0.94])
        loadings, factors = reference_draws(spec, variances)
        assert np.array_equal(generate(spec).values, (loadings @ factors).T)
        loadings, factors = reference_draws(spec, variances[::-1])
        assert not np.array_equal(generate(spec).values, (loadings @ factors).T)

    def test_latent_dimension_is_smaller_matrix_side(self):
        for n, p in ((40, 7), (7, 40)):
            spec = SyntheticSpec(n_rows=n, n_cols=p, n_significant=2, seed=1)
            variances = np.array([spec.weak_var] * 5 + [1.0, 0.97])
            loadings, factors = reference_draws(spec, variances)
            assert loadings.shape == (p, 7) and factors.shape == (7, n)
            assert np.array_equal(generate(spec).values, (loadings @ factors).T)

    def test_data_is_transposed_loadings_times_factors(self):
        spec = SyntheticSpec(n_rows=15, n_cols=6, n_significant=2, seed=4)
        loadings, factors = reference_draws(spec, np.array([spec.weak_var] * 4 + [1.0, 0.97]))
        data = generate(spec)
        assert data.shape == (15, 6)
        assert data.values.tobytes() == (loadings @ factors).T.tobytes()

    def test_generated_data_fully_observed_and_reproducible(self):
        spec = SyntheticSpec(n_rows=12, n_cols=8, n_significant=2, seed=5)
        a = generate(spec)
        b = generate(spec)
        assert a.mask.all()
        assert np.array_equal(a.values, b.values)
        c = generate(SyntheticSpec(n_rows=12, n_cols=8, n_significant=2, seed=6))
        assert not np.array_equal(a.values, c.values)

    def test_factor_rows_recover_declared_variances_at_large_sample(self):
        spec = SyntheticSpec(n_rows=10_000, n_cols=9, n_significant=4, seed=7)
        declared = np.array([spec.weak_var] * 5 + [1.0, 0.97, 0.94, 0.91])
        loadings, _ = reference_draws(spec, declared)
        # The 9 x 9 loadings are invertible, so the data give the factors back.
        factors = np.linalg.solve(loadings, generate(spec).values.T)
        sample_var = factors.var(axis=1, ddof=1)
        rel = np.abs(sample_var - declared) / declared
        assert rel.max() < 0.05


class TestScenarioGrid:
    def test_grid_shapes_and_cell_count(self):
        for scenario in SCENARIOS:
            specs = scenario_grid(scenario, base_seed=0, replicates=1)
            assert len(specs) == len(SCENARIO_SWEPT_SIZES) * len(SCENARIO_SIGNIFICANT)
            for spec in specs:
                if scenario == "i":
                    assert spec.n_rows == SCENARIO_FIXED_DIM
                    assert spec.n_cols in SCENARIO_SWEPT_SIZES
                else:
                    assert spec.n_cols == SCENARIO_FIXED_DIM
                    assert spec.n_rows in SCENARIO_SWEPT_SIZES
                assert spec.n_significant in SCENARIO_SIGNIFICANT

    def test_replicates_multiply_cells_with_distinct_seeds(self):
        specs = scenario_grid("i", base_seed=3, replicates=4)
        assert len(specs) == 28 * 4
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_seeds_differ_between_scenarios_and_base_seeds(self):
        seeds_i = {s.seed for s in scenario_grid("i", base_seed=0, replicates=1)}
        seeds_ii = {s.seed for s in scenario_grid("ii", base_seed=0, replicates=1)}
        seeds_alt = {s.seed for s in scenario_grid("i", base_seed=1, replicates=1)}
        assert seeds_i.isdisjoint(seeds_ii)
        assert seeds_i.isdisjoint(seeds_alt)

    def test_grid_is_deterministic(self):
        assert scenario_grid("ii", base_seed=5, replicates=2) == scenario_grid(
            "ii", base_seed=5, replicates=2
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            scenario_grid("iii")
        with pytest.raises(ConfigError):
            scenario_grid("i", replicates=0)
        with pytest.raises(ConfigError):
            scenario_grid("i", replicates=1.5)
