"""Estimate how many principal components of a data matrix are
statistically significant.

The pipeline fits a variational Bayesian PCA to the (possibly partially
observed) matrix once, at the largest component count, and lets the fit
prune the components the data do not support.  It then draws replicate
matrices from the elementwise posterior predictive together with
per-rank nulls that lack the tested component, and counts the leading
components whose removal lowers their rank's normalised eigenvalue in
nearly every draw, under a sequential Holm-Bonferroni step-down.
"""

from .errors import (
    ConfigError,
    DataError,
    LoadError,
    NumericalError,
    ShapeError,
    SigpcaError,
)
from .ingest import (
    ColumnSchema,
    Dataset,
    load_csv,
    preprocess,
    read_schema,
)
from .linalg import MaskedMatrix
from .pipeline import (
    AnalysisOptions,
    AnalysisResult,
    ValidationRun,
    analyze_matrix,
    analyze_numeric,
    build_report,
    csv_table,
    format_p,
    report_to_json,
    run_validation,
    summarize_validation,
)
from .rng import derive_seed, generator
from .significance import (
    SigTestConfig,
    Spectrum,
    SpectrumTestResult,
    count_significant,
    holm_bonferroni,
    normalized_eigenvalues,
    reconstruction_spectrum,
    sample_rank_null_spectra,
)
from .synthetic import SyntheticSpec, generate, scenario_grid
from .vbpca import (
    Reconstruction,
    VbpcaConfig,
    VbpcaModel,
    fit,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions",
    "AnalysisResult",
    "ColumnSchema",
    "ConfigError",
    "DataError",
    "Dataset",
    "LoadError",
    "MaskedMatrix",
    "NumericalError",
    "Reconstruction",
    "ShapeError",
    "SigTestConfig",
    "SigpcaError",
    "Spectrum",
    "SpectrumTestResult",
    "SyntheticSpec",
    "ValidationRun",
    "VbpcaConfig",
    "VbpcaModel",
    "analyze_matrix",
    "analyze_numeric",
    "build_report",
    "format_p",
    "count_significant",
    "csv_table",
    "derive_seed",
    "fit",
    "generate",
    "generator",
    "holm_bonferroni",
    "load_csv",
    "normalized_eigenvalues",
    "preprocess",
    "read_schema",
    "reconstruct",
    "reconstruction_spectrum",
    "report_to_json",
    "run_validation",
    "sample_rank_null_spectra",
    "scenario_grid",
    "summarize_validation",
    "__version__",
]
