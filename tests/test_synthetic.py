"""Synthetic benchmark generator: spec validation, structure, grids."""

import numpy as np
import pytest

from sigpca import ConfigError, SyntheticSpec, draw_factors, generate, scenario_grid
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


class TestFactorStructure:
    def test_variance_ladder_layout(self):
        spec = SyntheticSpec(n_rows=20, n_cols=9, n_significant=3, seed=1)
        variances = spec.factor_variances()
        d = min(20, 9)
        assert variances.shape == (d,)
        assert np.allclose(variances[: d - 3], spec.weak_var)
        expected = spec.strong_var_base - spec.strong_var_step * np.arange(3)
        assert np.allclose(variances[d - 3 :], expected)

    def test_latent_dimension_is_smaller_matrix_side(self):
        tall = SyntheticSpec(n_rows=40, n_cols=7, n_significant=2, seed=1)
        loadings, factors = draw_factors(tall)
        assert loadings.shape == (7, 7)
        assert factors.shape == (7, 40)
        wide = SyntheticSpec(n_rows=7, n_cols=40, n_significant=2, seed=1)
        loadings, factors = draw_factors(wide)
        assert loadings.shape == (40, 7)
        assert factors.shape == (7, 7)

    def test_data_is_transposed_loadings_times_factors(self):
        spec = SyntheticSpec(n_rows=15, n_cols=6, n_significant=2, seed=4)
        loadings, factors = draw_factors(spec)
        data = generate(spec)
        assert data.shape == (15, 6)
        assert np.array_equal(data.values, (loadings @ factors).T)

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
        _, factors = draw_factors(spec)
        sample_var = factors.var(axis=1, ddof=1)
        declared = spec.factor_variances()
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
