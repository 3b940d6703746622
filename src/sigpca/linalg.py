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


def _as_matrix(values, label: str = "matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{label} must be 2-dimensional, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
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

    Only the lower triangle is read, so callers pass matrices that are
    symmetric by construction.  Values are returned as computed: rounding
    can leave tiny negatives in a positive semi-definite input, and the
    one rule that zeroes them is ``significance._rank_cutoff``.  A stack
    gives the same values as one call per matrix.
    """
    s = np.asarray(s, dtype=np.float64)
    # eigvalsh returns NaN without an error on non-finite input
    if not np.isfinite(s).all():
        raise NumericalError("matrix contains non-finite entries")
    try:
        return np.linalg.eigvalsh(s)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
