"""The package's exports, and equality of the result types that hold arrays."""

from dataclasses import replace

import numpy as np

import sigpca
from helpers import center_cols, complete, rank_k_matrix
from sigpca import (
    AnalysisOptions,
    MaskedMatrix,
    Reconstruction,
    Spectrum,
    VbpcaConfig,
    analyze_matrix,
    fit,
)


def test_every_export_resolves_once():
    assert len(set(sigpca.__all__)) == len(sigpca.__all__)
    missing = [name for name in sigpca.__all__ if not hasattr(sigpca, name)]
    assert missing == []


def test_equality_of_array_holding_results_is_identity():
    # The generated __eq__ would compare arrays with ``==`` and raise
    # "truth value ... is ambiguous"; these types compare by identity.
    data = complete(center_cols(rank_k_matrix(20, 6, 2, seed=3)))
    result = analyze_matrix(data, AnalysisOptions(n_null_samples=100, seed=1))
    model = fit(data, VbpcaConfig(n_components=3))
    pairs = [
        (MaskedMatrix.complete(np.eye(3)), MaskedMatrix.complete(np.eye(3))),
        (Reconstruction(np.eye(2), np.ones((2, 2))), Reconstruction(np.eye(2), np.ones((2, 2)))),
        (Spectrum([2.0, 1.0]), Spectrum([2.0, 1.0])),
        (model, replace(model)),
        (result.test, replace(result.test)),
        (result, replace(result)),
    ]
    for a, b in pairs:
        assert a == a
        assert not a == b
        assert a != b
