"""Synthetic benchmark data with a known number of significant components.

A dataset of shape (n, p) is built from d = min(n, p) latent factor rows:
the trailing ``n_significant`` rows carry strong variances stepping down
from ``strong_var_base``, the rest sit at ``weak_var``.  Loadings are
i.i.d. normal with variance ``loading_var``, there is no bias and no
additive noise beyond the weak components, and every entry is observed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_count
from .linalg import MaskedMatrix
from .rng import check_seed, derive_seed, generator

# Grid used by the validation scenarios: one fixed dimension of 150, the
# other swept over these sizes, crossed with these significant counts.
SCENARIO_FIXED_DIM = 150
SCENARIO_SWEPT_SIZES = (15, 30, 35, 40, 45, 50, 55)
SCENARIO_SIGNIFICANT = (2, 4, 6, 8)
SCENARIOS = ("i", "ii")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one dataset; ``seed`` pins every random draw.
    ``SyntheticSpec(**entry["spec"])`` rebuilds the spec of an entry of
    a ``synth`` manifest."""

    n_rows: int
    n_cols: int
    n_significant: int
    weak_var: float = 0.001
    strong_var_base: float = 1.0
    strong_var_step: float = 0.03
    loading_var: float = 0.00015
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("n_rows", self.n_rows, 2)
        _check_count("n_cols", self.n_cols, 2)
        _check_count("n_significant", self.n_significant, 1)
        for name in ("weak_var", "strong_var_base", "strong_var_step", "loading_var"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        d = min(self.n_rows, self.n_cols)
        if self.n_significant >= d:
            raise ConfigError(
                f"n_significant={self.n_significant} must be in [1, {d - 1}]"
            )
        if self.weak_var <= 0 or self.loading_var <= 0:
            raise ConfigError("weak_var and loading_var must be positive")
        weakest_strong = self.strong_var_base - self.strong_var_step * (
            self.n_significant - 1
        )
        if weakest_strong <= self.weak_var:
            raise ConfigError(
                f"weakest strong variance {weakest_strong} must exceed "
                f"weak_var {self.weak_var}"
            )
        check_seed(self.seed)


def generate(spec: SyntheticSpec) -> MaskedMatrix:
    """Materialise the dataset described by ``spec``, fully observed.

    Loadings (p, d) are drawn before the factors (d, n), whose variances
    are the ladder of the module docstring; the data are
    (loadings @ factors).T.
    """
    n, p, w = spec.n_rows, spec.n_cols, spec.n_significant
    d = min(n, p)
    variances = np.full(d, spec.weak_var)
    variances[d - w :] = spec.strong_var_base - spec.strong_var_step * np.arange(w)
    gen = generator(spec.seed)
    loadings = gen.standard_normal((p, d)) * np.sqrt(spec.loading_var)
    factors = gen.standard_normal((d, n)) * np.sqrt(variances)[:, None]
    return MaskedMatrix.complete((loadings @ factors).T)


def scenario_grid(
    scenario: str, base_seed: int = 0, replicates: int = 1
) -> list[SyntheticSpec]:
    """Specs for one validation scenario.

    Scenario "i" fixes 150 rows and sweeps the column count; scenario
    "ii" fixes 150 columns and sweeps the row count.  Each grid cell and
    replicate receives a distinct seed derived from ``base_seed``.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    _check_count("replicates", replicates, 1)
    scenario_idx = SCENARIOS.index(scenario)
    specs = []
    for size_idx, size in enumerate(SCENARIO_SWEPT_SIZES):
        n, p = (
            (SCENARIO_FIXED_DIM, size) if scenario == "i" else (size, SCENARIO_FIXED_DIM)
        )
        for w_idx, w in enumerate(SCENARIO_SIGNIFICANT):
            for rep in range(replicates):
                seed = derive_seed(base_seed, scenario_idx, size_idx, w_idx, rep)
                specs.append(
                    SyntheticSpec(n_rows=n, n_cols=p, n_significant=w, seed=seed)
                )
    return specs
