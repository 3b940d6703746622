"""Variational Bayesian PCA with missing-value support.

The model explains an n-by-p data matrix X as X = Y'A' + 1 m' + noise,
with a q-column loading matrix A, factor matrix Y, and a per-column bias
m.  Mean-field variational inference keeps a Gaussian posterior for each
row of A, each column of Y, and each bias entry, point estimates of the
noise variance, and per-component prior variances for the loadings that
are re-estimated every sweep.  Components the data cannot support are
driven to a small prior variance, which is what keeps larger-than-
necessary fits from interpolating the data.

Two details matter for behaviour.  First, after every sweep the fit is
re-expressed in a normal form (factor second moment identity, loading
Gram matrix diagonal); the reconstruction is unchanged but convergence
is much faster and the per-component prior variances become directly
comparable.  Second, the re-estimated prior variances are floored at a
small fraction of the data variance, so pruned components retain honest
posterior uncertainty instead of collapsing to numerical zero; that
residual uncertainty is what the downstream null resampling relies on.

Missing entries are excluded from every sufficient statistic.  A row's
factor posterior covariance then depends only on which of its entries
are observed, and a column's loading posterior covariance only on which
of its rows are, so the sweep computes one factor covariance per
distinct row mask and one loading covariance per distinct column mask
(typed tables repeat masks: a missing categorical cell hides its whole
one-hot block), and writes every sum over observed entries as a
pattern-weighted matmul (Ilin & Raiko 2010, JMLR 11).  Complete data are
the case of one row mask and one column mask, where those sums are a
handful of dense matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeError, _check_count
from .linalg import MaskedMatrix
from .rng import check_seed, generator

# Initialisation constants: random means with variance 1e-2, isotropic
# posterior covariances 1e-2 I, bias at the observed column means, noise
# at the observed data variance.  The per-component loading prior starts
# at the data variance so every component is free to engage, and the
# evidence-maximisation update then withdraws variance from components
# the data cannot support.
_INIT_STD = 0.1
_INIT_COV = 1e-2

# The per-component prior variances start at this fraction of the data
# variance.  The value trades off two failure modes: too small and the
# evidence-maximisation race prunes weak but genuine directions before
# their loadings can grow out of the random start; too large and noise
# directions survive long enough to be absorbed as spurious structure.
_INIT_PRIOR_REL = 0.1

# The re-estimated loading prior variances are floored at this fraction
# of the data variance.  Pruned components then keep a small posterior
# covariance instead of collapsing to zero, so the elementwise
# reconstruction variance stays honest about directions the fit chose
# not to use.  The floor is far too small to let a pruned component
# re-engage (the data-driven part of its posterior scale is v / n, which
# dominates the floor whenever the component would matter).
_PRIOR_UNCERTAINTY_FLOOR_REL = 1e-3

# Floors keeping re-estimated variances strictly positive.  Relative to
# the observed data variance so behaviour is scale-free.
_PRIOR_FLOOR_REL = 1e-14
_NOISE_FLOOR_REL = 1e-12
_TINY = 1e-300

# Degenerate inputs (constant columns everywhere) have zero observed
# variance; anchoring the relative floors to this absolute value instead
# keeps the first sweeps finite.  Data whose variance is genuinely below
# this is outside float range for the downstream quadratic forms anyway.
_ABS_SCALE_FLOOR = 1e-30

# Default cap on the component count of an analysis's fit.
DEFAULT_Q_CAP = 60

# The sweeps stop once the relative change of the reconstruction cost
# drops below this.
_CONV_TOL = 1e-6


@dataclass(frozen=True)
class VbpcaConfig:
    """Settings for one fit.

    ``n_components`` is the number of retained components, at least 2
    and at most min(n, p) of the data; None, the default, means
    min(n - 1, p - 1, DEFAULT_Q_CAP), which ``fit`` resolves from the
    data.  Iteration stops after ``max_iters`` sweeps, once the relative
    change of the reconstruction cost drops below ``_CONV_TOL`` (1e-6), or
    once that cost (a sum over the observed entries) is at or below the
    noise-variance floor per observed entry, where the fit is exact up
    to rounding.
    """

    n_components: int | None = None
    max_iters: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_components is not None:
            _check_count("n_components", self.n_components, 2)
        _check_count("max_iters", self.max_iters, 1)
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class VbpcaModel:
    """Posterior summary of one fit.

    Shapes, for n rows, p columns and q components: ``loadings_mean``
    (p, q) and ``factors_mean`` (q, n); bias mean/variance of length p;
    the scalar noise variance; and two traces recorded at initialisation
    and after each sweep.  Posterior covariances are stored once per
    block of data columns (rows) that share one: ``loadings_cov``
    (c, q, q) holds c blocks and ``loadings_pattern`` (p,) the block of
    each data column, so column j's loading covariance is
    ``loadings_cov[loadings_pattern[j]]``; likewise ``factors_cov``
    (u, q, q) and ``factors_pattern`` (n,) for the factors of the data
    rows.  A fit makes one block per distinct column (row) mask, so a
    complete fit holds one of each; models built by hand may use one
    block per column and row with identity patterns.

    ``cost_trace`` is the squared error of the posterior-mean
    reconstruction over observed entries.  Its relative change decides
    when the sweeps stop, but it is not the objective they optimise: its
    final value is at or below its initial one, yet on masked data it may
    rise between sweeps.  ``free_energy_trace`` is that objective, the
    variational free energy (negative evidence lower bound): the expected
    negative log-likelihood of the observed entries plus the KL
    divergences of the factor, loading and bias posteriors from their
    priors.  Every sweep is a coordinate step on it, so it does not
    increase from one entry to the next (up to rounding).  The two traces
    have the same length; models built by hand may leave the free-energy
    trace empty.

    ``converged`` is True when the relative-change test or the noise-floor
    test (see ``VbpcaConfig``) stopped the sweeps and False when they ran
    to the ``max_iters`` cap (and for models built by hand, which had no
    sweeps).
    """

    loadings_mean: np.ndarray
    loadings_cov: np.ndarray
    loadings_pattern: np.ndarray
    factors_mean: np.ndarray
    factors_cov: np.ndarray
    factors_pattern: np.ndarray
    bias_mean: np.ndarray
    bias_var: np.ndarray
    noise_var: float
    cost_trace: np.ndarray
    free_energy_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = False

    @property
    def n_components(self) -> int:
        return self.loadings_mean.shape[1]


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Elementwise posterior of the reconstruction: mean and variance of
    a'y + m for every matrix position, both shaped like the data.  The
    mean must be 2-D and finite, the variance finite and nonnegative."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.mean) != 2 or np.shape(self.var) != np.shape(self.mean):
            raise ShapeError(
                f"reconstruction mean must be 2-D and var shaped like it, got "
                f"{np.shape(self.mean)} and {np.shape(self.var)}"
            )
        if not np.isfinite(self.mean).all():
            raise ConfigError("reconstruction mean must be finite")
        if not np.all((self.var >= 0) & (self.var < np.inf)):
            raise ConfigError("reconstruction var must be finite and nonnegative")


def _freeze(arr: np.ndarray) -> np.ndarray:
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def _inv_sym(s: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix (or a batch),
    symmetrised to suppress rounding drift."""
    try:
        inv = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior precision not invertible: {exc}") from exc
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _free_energy(
    fit_sq: float,
    n_obs: int,
    v: float,
    Yb: np.ndarray,
    cy_trace: float,
    cy_logdet: float,
    A: np.ndarray,
    ca_diag: np.ndarray,
    ca_logdet: float,
    va: np.ndarray,
    m: np.ndarray,
    mvar: np.ndarray,
    vm: float,
) -> float:
    """Variational free energy (negative evidence lower bound) of a fit.

    ``fit_sq`` is the expected squared error over the ``n_obs`` observed
    entries: the squared error of the posterior mean plus the posterior
    second-moment terms.  ``cy_trace``/``cy_logdet`` are the trace and
    log-determinant summed over the factors' covariances (one per data
    row), ``ca_diag``/``ca_logdet`` the diagonal (per component) and
    log-determinant summed over the loadings' covariances (one per data
    column).  The priors are N(0, I) on factors, N(0, diag(va)) on
    loading rows and N(0, vm) on bias entries.
    """
    n, q = Yb.shape
    p = A.shape[0]
    likelihood = 0.5 * (n_obs * np.log(2.0 * np.pi * v) + fit_sq / v)
    kl_factors = 0.5 * (cy_trace + float(np.sum(Yb * Yb)) - n * q - cy_logdet)
    kl_loadings = 0.5 * (
        float(np.sum(((A * A).sum(axis=0) + ca_diag) / va))
        - p * q
        + p * float(np.sum(np.log(va)))
        - ca_logdet
    )
    kl_bias = 0.5 * (
        float(np.sum(mvar + m * m)) / vm
        - p
        + p * np.log(vm)
        - float(np.sum(np.log(mvar)))
    )
    return float(likelihood + kl_factors + kl_loadings + kl_bias)


def _patterns(mask: np.ndarray):
    """Group the rows of a boolean matrix by their values.

    Returns the distinct rows as floats, the index of each row's group,
    the group sizes as floats, and the first row of each group.
    """
    # each row as one opaque byte string: np.unique(axis=0) would compare
    # them field by field, about 30x slower
    mask = np.ascontiguousarray(mask)
    keys = mask.view(np.dtype((np.void, mask.shape[1]))).ravel()
    _, first, index, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return mask[first].astype(np.float64), index, counts.astype(np.float64), first


def _pattern_sums(weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row k is the sum of weights[k, i] x_i x_i' over the rows x_i of
    ``X``, flattened to q*q.  One pattern is one dense product, without
    the per-row outer products."""
    if len(weights) == 1:
        return ((X.T * weights[0]) @ X).reshape(1, -1)
    return weights @ (X[:, :, None] * X[:, None, :]).reshape(len(X), -1)


def _matvec(blocks: np.ndarray, index: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row k of the result is blocks[index[k]] @ vecs[k], for symmetric
    blocks.  One block is one dense product, without copying it per row."""
    if len(blocks) == 1:
        return vecs @ blocks[0]
    return np.matmul(blocks[index], vecs[:, :, None])[:, :, 0]


def fit(data: MaskedMatrix, config: VbpcaConfig) -> VbpcaModel:
    """Fit the model to ``data`` and return the posterior summary.

    Rows (columns) with the same mask share one factor (loading)
    posterior covariance, so the model holds one covariance block per
    distinct row mask and per distinct column mask; complete data give
    one of each.

    The component count is ``config.n_components``, or by default
    min(n - 1, p - 1, DEFAULT_Q_CAP).  Raises ConfigError unless it lies
    in [2, min(n, p)], DataError if a column has no observed entries,
    NumericalError if the cost becomes non-finite.
    """
    n, p = data.shape
    q = config.n_components
    if q is None:
        q = min(n - 1, p - 1, DEFAULT_Q_CAP)
    if not 2 <= q <= min(n, p):
        raise ConfigError(
            f"n_components={q} out of range [2, {min(n, p)}] for shape {data.shape}"
        )
    col_counts = data.column_observed_counts()
    if np.any(col_counts == 0):
        bad = int(np.flatnonzero(col_counts == 0)[0])
        raise DataError(f"column {bad} has no observed entries")
    V = data.values  # masked-out entries are zero
    W = data.mask.astype(np.float64)
    qq = q * q
    n_obs = int(col_counts.sum())
    # One factor block per distinct row mask (u) and one loading block per
    # distinct column mask (c).  The mask is constant on every (row
    # pattern, column pattern) pair; ``block`` (u, c) holds its value.
    Wr, row_pattern, row_weights, _ = _patterns(data.mask)
    Wc, col_pattern, col_weights, col_first = _patterns(data.mask.T)
    block = Wr[:, col_first]
    u, c = len(Wr), len(Wc)
    A, Yb, m, scale = _init_state(data, q, config.seed)
    anchor = max(scale, _ABS_SCALE_FLOOR)
    eye = np.eye(q)
    Ca = np.broadcast_to(eye * _INIT_COV, (c, q, q)).copy()
    Cy = np.broadcast_to(eye * _INIT_COV, (u, q, q)).copy()
    mvar = np.full(p, _INIT_COV)
    va = np.full(q, anchor * _INIT_PRIOR_REL)
    vm = 1.0
    prior_floor = anchor * _PRIOR_FLOOR_REL
    uncertainty_floor = anchor * _PRIOR_UNCERTAINTY_FLOOR_REL
    noise_floor = anchor * _NOISE_FLOOR_REL
    v = anchor

    def column_sums() -> tuple[np.ndarray, np.ndarray]:
        # per column pattern, over its observed rows i: the sum of
        # y_i y_i' + Cy_i, and of Cy_i alone (once per row pattern)
        Scy = (block.T * row_weights) @ Cy.reshape(u, qq)
        return _pattern_sums(Wc, Yb) + Scy, Scy

    def second_moments(Sy: np.ndarray, Scy: np.ndarray) -> float:
        # posterior second moments over observed entries: y'Ca y + tr(Cy Ca)
        # from Sy, a'Cy a from Scy, and the bias variances
        return float(
            col_weights @ np.sum(Sy * Ca.reshape(c, qq), axis=1)
            + np.sum(_matvec(Scy.reshape(c, q, q), col_pattern, A) * A)
            + col_counts @ mvar
        )

    def masked_sse(fit_mean: np.ndarray) -> float:
        flat = ((V - fit_mean - m) * W).ravel()
        return float(np.dot(flat, flat))

    def free_energy(sse: float, second: float) -> float:
        return _free_energy(
            sse + second, n_obs, v, Yb, float(row_weights @ np.trace(Cy, axis1=1, axis2=2)),
            float(row_weights @ np.linalg.slogdet(Cy)[1]), A,
            col_weights @ Ca.diagonal(axis1=1, axis2=2),
            float(col_weights @ np.linalg.slogdet(Ca)[1]), va, m, mvar, vm,
        )

    trace = [masked_sse(Yb @ A.T)]
    energy = [free_energy(trace[0], second_moments(*column_sums()))]
    converged = False

    for it in range(config.max_iters):
        Rm = (V - m) * W
        # factor posteriors; each row pattern sums a_j a_j' + Ca_j over its
        # observed columns j, the covariances once per column pattern
        Sa = _pattern_sums(Wr, A) + (block * col_weights) @ Ca.reshape(c, qq)
        Cy = _inv_sym(eye + Sa.reshape(u, q, q) / v)
        Yb = _matvec(Cy, row_pattern, Rm @ A) / v
        # loading posteriors under the per-component prior
        Sy, Scy = column_sums()
        Ca = _inv_sym(np.diag(1.0 / va) + Sy.reshape(c, q, q) / v)
        A = _matvec(Ca, col_pattern, Rm.T @ Yb) / v
        # bias
        F = Yb @ A.T
        mvar = 1.0 / (col_counts / v + 1.0 / vm)
        m = (mvar / v) * (((V - F) * W).sum(axis=0))
        # the normal form below leaves the second moments unchanged
        second = second_moments(Sy, Scy)
        # normal form via the average posterior covariances
        Cy_mean = (row_weights @ Cy.reshape(u, qq)).reshape(q, q) / n
        Ca_mean = (col_weights @ Ca.reshape(c, qq)).reshape(q, q) / p
        M, N = _gauge_maps(A, Ca_mean, Yb, Cy_mean, n, p)
        A = A @ M
        Ca = M.T @ Ca @ M
        Yb = Yb @ N
        Cy = N.T @ Cy @ N
        # prior variances by evidence maximisation, floored so pruned
        # components keep honest uncertainty
        va = np.maximum(
            (A * A).mean(axis=0) + col_weights @ Ca.diagonal(axis1=1, axis2=2) / p,
            uncertainty_floor,
        )
        vm = max(float(np.dot(m, m)) / p + float(mvar.mean()), prior_floor)
        # noise variance from residual plus posterior second moments
        sse = masked_sse(Yb @ A.T)
        if not np.isfinite(sse):
            raise NumericalError(f"cost became non-finite at iteration {it + 1}")
        v = max((sse + second) / n_obs, noise_floor)
        energy.append(free_energy(sse, second))
        prev = trace[-1]
        trace.append(sse)
        if abs(prev - sse) <= _CONV_TOL * max(prev, _TINY) or sse <= n_obs * noise_floor:
            converged = True
            break

    return VbpcaModel(
        loadings_mean=_freeze(A),
        loadings_cov=_freeze(Ca),
        loadings_pattern=_freeze(col_pattern),
        factors_mean=_freeze(Yb.T.copy()),
        factors_cov=_freeze(Cy),
        factors_pattern=_freeze(row_pattern),
        bias_mean=_freeze(m),
        bias_var=_freeze(mvar),
        noise_var=float(v),
        cost_trace=_freeze(np.asarray(trace)),
        free_energy_trace=_freeze(np.asarray(energy)),
        converged=converged,
    )


def _init_state(data: MaskedMatrix, q: int, seed: int):
    """Random starting point.

    The initial loading and factor columns are drawn at the maximum
    admissible count, min(n, p), and truncated to ``q``, so fits at
    different counts with one seed start from a common prefix.
    """
    n, p = data.shape
    cap = min(n, p)
    gen = generator(seed)
    loadings = (gen.standard_normal((p, cap)) * _INIT_STD)[:, :q].copy()
    factors = (gen.standard_normal((n, cap)) * _INIT_STD)[:, :q].copy()
    bias = data.column_means()
    scale = float(data.values[data.mask].var())
    return loadings, factors, bias, scale


def _gauge_maps(A: np.ndarray, Ca_mean: np.ndarray, Yb: np.ndarray,
                Cy_mean: np.ndarray, n: int, p: int):
    """Maps that put the fit into its normal form.

    Returns (M, N) such that replacing each loading row a by M'a and each
    factor y by N'y leaves the reconstruction A Y' unchanged while making
    the factor second moment the identity and the loading Gram matrix
    diagonal with decreasing entries.  ``Ca_mean`` / ``Cy_mean`` are the
    (average) posterior covariances used to form the second moments.
    """
    second_y = (Yb.T @ Yb) / n + Cy_mean
    dy, Ey = np.linalg.eigh(0.5 * (second_y + second_y.T))
    dy = np.sqrt(np.maximum(dy, _TINY))
    T = Ey * dy  # second_y = T T'
    Tinv_t = Ey / dy  # transpose of T's inverse
    A_w = A @ T
    gram = A_w.T @ A_w + p * (T.T @ Ca_mean @ T)
    dg, V = np.linalg.eigh(0.5 * (gram + gram.T))
    V = V[:, np.argsort(dg)[::-1]]
    return T @ V, Tinv_t @ V  # M (loadings), N (factors)


def reconstruct(model: VbpcaModel) -> Reconstruction:
    """Posterior mean and elementwise variance of the reconstruction.

    The variance at (i, j) combines the factor covariance mapped through
    the loading mean, the loading covariance mapped through the factor
    mean, the product of the two covariances, and the bias variance.
    Each term is formed once per covariance block and spread to the rows
    and columns through the model's patterns.
    """
    A = model.loadings_mean
    Yb = model.factors_mean.T
    Cy, Ca = model.factors_cov, model.loadings_cov
    rows, cols = model.factors_pattern, model.loadings_pattern
    mean = Yb @ A.T + model.bias_mean
    a_cy_a = np.einsum("kjq,jq->kj", A @ Cy, A)  # a_j' Cy_k a_j, (u, p)
    y_ca_y = np.einsum("liq,iq->il", Yb @ Ca, Yb)  # y_i' Ca_l y_i, (n, c)
    cross = Cy.reshape(len(Cy), -1) @ Ca.reshape(len(Ca), -1).T  # tr(Cy_k Ca_l)
    var = (a_cy_a + cross[:, cols] + model.bias_var)[rows] + y_ca_y[:, cols]
    var = np.maximum(var, 0.0)
    return Reconstruction(mean=_freeze(mean), var=_freeze(var))


def select_n_components(data: MaskedMatrix, config: VbpcaConfig) -> VbpcaModel:
    """The fit of an analysis: ``fit(data, config)``, by default at the
    largest count that leaves one dimension to the noise model.

    No separate count selection is needed: the per-component prior
    variances withdraw the components the data do not support, so a fit
    at a larger count keeps the supported ones and prunes the rest.
    """
    return fit(data, config)
