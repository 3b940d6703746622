"""Dense matrix primitives: masked matrices and symmetric eigenvalues.

Matrices are plain two-dimensional float64 numpy arrays.  A
:class:`MaskedMatrix` pairs values with an observation mask so that
partially observed data can flow through fitting and scoring without
sentinel values leaking into the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

# Relative tolerance for symmetry checks and for clamping the tiny
# negative eigenvalues a PSD matrix can acquire through rounding.
_SYM_RTOL = 1e-9
_EIG_CLAMP_RTOL = 1e-9


def _as_matrix(values, label: str = "matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{label} must be 2-dimensional, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class MaskedMatrix:
    """A float64 matrix with an elementwise observation mask.

    ``mask[i, j]`` is True where ``values[i, j]`` is observed.  Values at
    masked-out positions are normalised to zero on construction, and both
    arrays are frozen, so equal masked matrices are bitwise equal and safe
    to share across threads.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        values = _as_matrix(self.values, "values")
        mask = np.asarray(self.mask)
        if mask.dtype != np.bool_:
            raise ShapeError(f"mask must be boolean, got dtype={mask.dtype}")
        if mask.shape != values.shape:
            raise ShapeError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        if not np.all(np.isfinite(values[mask])):
            raise ShapeError("observed entries must be finite")
        values = np.where(mask, values, 0.0)
        mask = mask.copy()
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def complete(cls, values) -> "MaskedMatrix":
        """Wrap a fully observed matrix."""
        arr = _as_matrix(values, "values")
        return cls(arr, np.ones(arr.shape, dtype=bool))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column_observed_counts(self) -> np.ndarray:
        return np.count_nonzero(self.mask, axis=0)

    def column_means(self) -> np.ndarray:
        """Mean of observed entries per column; columns with no observed
        entries get 0."""
        counts = self.column_observed_counts()
        sums = self.values.sum(axis=0)
        return np.divide(sums, counts, out=np.zeros(self.n_cols), where=counts > 0)


def sym_eigvals(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix in a stack
    of shape ``(..., m, m)``, descending along the last axis.

    Each matrix's symmetry is checked against its own scale.
    Rounding noise in positive semi-definite inputs is cleaned up: any
    eigenvalue in ``[-1e-9 * norm, 0)``, with ``norm`` the largest
    eigenvalue magnitude of the same matrix, is clamped to exactly 0.
    Genuinely negative eigenvalues of indefinite inputs are returned
    unchanged.  A stack gives the same values as one call per matrix.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ShapeError(f"matrix must be square, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NumericalError("matrix contains non-finite entries")
    matrix_axes = (-2, -1)
    scale = np.max(np.abs(s), axis=matrix_axes, initial=0.0)
    asym = np.max(np.abs(s - np.swapaxes(s, -1, -2)), axis=matrix_axes, initial=0.0)
    if np.any(asym > _SYM_RTOL * np.maximum(scale, 1e-300)):
        raise ShapeError("matrix is not symmetric within tolerance")
    try:
        vals = np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    vals = vals[..., ::-1].copy()
    norm = np.max(np.abs(vals), axis=-1, keepdims=True, initial=0.0)
    clamp = -_EIG_CLAMP_RTOL * norm
    vals[(vals >= clamp) & (vals < 0.0)] = 0.0
    return vals
