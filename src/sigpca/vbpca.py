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
are observed, so the masked sweep computes one per distinct row mask
(typed tables repeat masks: a missing categorical cell hides its whole
one-hot block) and writes every sum over observed entries as a matmul
over flattened q-by-q blocks (Ilin & Raiko 2010, JMLR 11).  When the
data are fully observed all rows share one posterior covariance and all
columns share another, and the sweep reduces to a handful of dense
matrix products; that path is used automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .linalg import MaskedMatrix
from .rng import RngStream

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
DEFAULT_SCAN_CAP = 60


@dataclass(frozen=True)
class VbpcaConfig:
    """Settings for one fit.

    ``n_components`` is the number of retained components (at least 2 and
    at most min(n, p) of the data).  Iteration stops after ``max_iters``
    sweeps, once the relative change of the reconstruction cost drops
    below ``conv_tol``, or once that cost (a sum over the observed
    entries) is at or below the noise-variance floor per observed entry,
    where the fit is exact up to rounding.
    """

    n_components: int
    max_iters: int = 80
    conv_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n_components) != self.n_components or self.n_components < 2:
            raise ConfigError(
                f"n_components must be an integer >= 2, got {self.n_components}"
            )
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.conv_tol < np.inf:
            raise ConfigError(f"conv_tol must be finite and >= 0, got {self.conv_tol}")
        RngStream(self.seed)  # validates the seed range


@dataclass(frozen=True)
class VbpcaModel:
    """Posterior summary of one fit.

    Shapes, for n rows, p columns and q components: ``loadings_mean``
    (p, q) with per-row covariance blocks ``loadings_cov`` (p, q, q),
    ``factors_mean`` (q, n) with per-column blocks ``factors_cov``
    (n, q, q), bias mean/variance of length p, the scalar noise variance,
    and two traces recorded at initialisation and after each sweep.

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

    ``converged`` is True when the ``conv_tol`` test or the noise-floor
    test (see ``VbpcaConfig``) stopped the sweeps and False when they ran
    to the ``max_iters`` cap (and for models built by hand, which had no
    sweeps).
    """

    loadings_mean: np.ndarray
    loadings_cov: np.ndarray
    factors_mean: np.ndarray
    factors_cov: np.ndarray
    bias_mean: np.ndarray
    bias_var: np.ndarray
    noise_var: float
    cost_trace: np.ndarray
    free_energy_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = False

    @property
    def n_components(self) -> int:
        return self.loadings_mean.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.factors_mean.shape[1], self.loadings_mean.shape[0]


@dataclass(frozen=True)
class Reconstruction:
    """Elementwise posterior of the reconstruction: mean and variance of
    a'y + m for every matrix position, both shaped like the data."""

    mean: np.ndarray
    var: np.ndarray


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


def _logdet(s: np.ndarray) -> float:
    """Summed log-determinants of a positive definite matrix (or a batch)."""
    return float(np.sum(np.linalg.slogdet(s)[1]))


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
    mvar,
    vm: float,
) -> float:
    """Variational free energy (negative evidence lower bound) of a fit.

    ``fit_sq`` is the expected squared error over the ``n_obs`` observed
    entries: the squared error of the posterior mean plus the posterior
    second-moment terms.  ``cy_trace``/``cy_logdet`` are the trace and
    log-determinant summed over the factor covariance blocks,
    ``ca_diag``/``ca_logdet`` the diagonal (per component) and
    log-determinant summed over the loading covariance blocks.  The
    priors are N(0, I) on factors, N(0, diag(va)) on loading rows and
    N(0, vm) on bias entries.
    """
    n, q = Yb.shape
    p = A.shape[0]
    mvar = np.broadcast_to(mvar, m.shape)
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


def fit(data: MaskedMatrix, config: VbpcaConfig) -> VbpcaModel:
    """Fit the model to ``data`` and return the posterior summary.

    Raises ConfigError if ``n_components`` exceeds min(n, p), DataError if
    a column has no observed entries, NumericalError if the cost becomes
    non-finite.
    """
    n, p = data.shape
    q = config.n_components
    if q > min(n, p):
        raise ConfigError(
            f"n_components={q} exceeds min(n, p)={min(n, p)} for shape {data.shape}"
        )
    col_counts = data.column_observed_counts()
    if np.any(col_counts == 0):
        bad = int(np.flatnonzero(col_counts == 0)[0])
        raise DataError(f"column {bad} has no observed entries")
    if data.all_observed:
        return _fit_complete(data, config)
    return _fit_masked(data, config, col_counts)


def _init_state(data: MaskedMatrix, q: int, seed: int):
    """Random starting point.

    The initial loading and factor columns are drawn at the maximum
    admissible count, min(n, p), and truncated to ``q``, so fits at
    different counts with one seed start from a common prefix.
    """
    n, p = data.shape
    cap = min(n, p)
    gen = RngStream(seed).generator()
    loadings = (gen.standard_normal((p, cap)) * _INIT_STD)[:, :q].copy()
    factors = (gen.standard_normal((n, cap)) * _INIT_STD)[:, :q].copy()
    bias = data.column_means()
    if data.all_observed:
        scale = float(data.values.var())
    else:
        obs = data.values[data.mask]
        scale = float(obs.var()) if obs.size else 0.0
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


def _fit_complete(data: MaskedMatrix, config: VbpcaConfig) -> VbpcaModel:
    V = data.values
    n, p = V.shape
    q = config.n_components
    A, Yb, m, scale = _init_state(data, q, config.seed)
    anchor = max(scale, _ABS_SCALE_FLOOR)
    eye = np.eye(q)
    Ca = eye * _INIT_COV  # loading-row covariance, shared across rows
    Cy = eye * _INIT_COV  # factor-column covariance, shared across columns
    mvar = _INIT_COV
    va = np.full(q, anchor * _INIT_PRIOR_REL)
    vm = 1.0
    prior_floor = anchor * _PRIOR_FLOOR_REL
    uncertainty_floor = anchor * _PRIOR_UNCERTAINTY_FLOOR_REL
    noise_floor = anchor * _NOISE_FLOOR_REL
    v = max(scale, anchor)

    def second_moments() -> float:
        return (
            n * float(np.sum((A @ Cy) * A))
            + p * float(np.sum((Yb @ Ca) * Yb))
            + n * p * float(np.sum(Ca * Cy))
            + n * p * mvar
        )

    def free_energy(sse: float, second: float, ld_cy: float, ld_ca: float) -> float:
        return _free_energy(
            sse + second, n * p, v, Yb, n * float(np.trace(Cy)), ld_cy,
            A, p * np.diag(Ca), ld_ca, va, m, mvar, vm,
        )

    Rm = V - m
    resid = Rm - Yb @ A.T
    flat = resid.ravel()
    trace = [float(np.dot(flat, flat))]
    ld_init = q * np.log(_INIT_COV)
    energy = [free_energy(trace[0], second_moments(), n * ld_init, p * ld_init)]
    converged = False

    for it in range(config.max_iters):
        # factor posteriors (unit prior)
        Py = eye + (A.T @ A + p * Ca) / v
        Cy = _inv_sym(Py)
        Yb = (Rm @ A) @ Cy / v
        # loading posteriors under the per-component prior
        Pa = np.diag(1.0 / va) + (Yb.T @ Yb + n * Cy) / v
        Ca = _inv_sym(Pa)
        A = (Rm.T @ Yb) @ Ca / v
        # bias
        F = Yb @ A.T
        mvar = 1.0 / (n / v + 1.0 / vm)
        m = (mvar / v) * (V - F).sum(axis=0)
        Rm = V - m
        # normal form: reconstruction unchanged, coordinates rotated
        M, N = _gauge_maps(A, Ca, Yb, Cy, n, p)
        A = A @ M
        Ca = M.T @ Ca @ M
        Yb = Yb @ N
        Cy = N.T @ Cy @ N
        F = Yb @ A.T
        # prior variances by evidence maximisation, floored so pruned
        # components keep honest uncertainty
        va = np.maximum((A * A).mean(axis=0) + np.diag(Ca), uncertainty_floor)
        vm = max(float(np.dot(m, m)) / p + mvar, prior_floor)
        # noise variance from residual plus posterior second moments
        resid = Rm - F
        flat = resid.ravel()
        sse = float(np.dot(flat, flat))
        if not np.isfinite(sse):
            raise NumericalError(f"cost became non-finite at iteration {it + 1}")
        second = second_moments()
        v = max((sse + second) / (n * p), noise_floor)
        # the gauge maps scale the covariance determinants by det(M)^2
        # (loadings) and det(N)^2 = det(M)^-2 (factors)
        ld_m = 2.0 * float(np.linalg.slogdet(M)[1])
        energy.append(
            free_energy(sse, second, n * (-_logdet(Py) - ld_m), p * (-_logdet(Pa) + ld_m))
        )
        prev = trace[-1]
        trace.append(sse)
        if abs(prev - sse) <= config.conv_tol * max(prev, _TINY) or sse <= n * p * noise_floor:
            converged = True
            break

    return VbpcaModel(
        loadings_mean=_freeze(A),
        loadings_cov=np.broadcast_to(_freeze(Ca), (p, q, q)),
        factors_mean=_freeze(Yb.T.copy()),
        factors_cov=np.broadcast_to(_freeze(Cy), (n, q, q)),
        bias_mean=_freeze(m),
        bias_var=_freeze(np.full(p, mvar)),
        noise_var=float(v),
        cost_trace=_freeze(np.asarray(trace)),
        free_energy_trace=_freeze(np.asarray(energy)),
        converged=converged,
    )


def _fit_masked(
    data: MaskedMatrix, config: VbpcaConfig, col_counts: np.ndarray
) -> VbpcaModel:
    V = data.values  # masked-out entries are zero
    W = data.mask.astype(np.float64)
    n, p = V.shape
    q = config.n_components
    qq = q * q
    n_obs = int(col_counts.sum())
    # A row's factor posterior depends on the data only through which of
    # its entries are observed, so rows sharing a mask share one factor
    # precision and covariance: one block per distinct mask (pattern).
    patterns, row_pattern, pattern_rows = np.unique(
        data.mask, axis=0, return_inverse=True, return_counts=True
    )
    row_pattern = row_pattern.ravel()
    Wu = patterns.astype(np.float64)
    weights = pattern_rows.astype(np.float64)
    u = len(patterns)
    A, Yb, m, scale = _init_state(data, q, config.seed)
    anchor = max(scale, _ABS_SCALE_FLOOR)
    eye = np.eye(q)
    Ca = np.broadcast_to(eye * _INIT_COV, (p, q, q)).copy()
    Cy = np.broadcast_to(eye * _INIT_COV, (u, q, q)).copy()  # one block per pattern
    mvar = np.full(p, _INIT_COV)
    va = np.full(q, anchor * _INIT_PRIOR_REL)
    vm = 1.0
    prior_floor = anchor * _PRIOR_FLOOR_REL
    uncertainty_floor = anchor * _PRIOR_UNCERTAINTY_FLOOR_REL
    noise_floor = anchor * _NOISE_FLOOR_REL
    v = max(scale, anchor)

    def masked_sse(fit_mean: np.ndarray, bias: np.ndarray) -> float:
        r = (V - fit_mean - bias) * W
        flat = r.ravel()
        return float(np.dot(flat, flat))

    def free_energy(sse: float, second: float, ld_cy: float, ld_ca: float) -> float:
        return _free_energy(
            sse + second, n_obs, v, Yb, float(weights @ np.trace(Cy, axis1=1, axis2=2)),
            ld_cy, A, Ca.diagonal(axis1=1, axis2=2).sum(axis=0), ld_ca, va, m, mvar, vm,
        )

    trace = [masked_sse(Yb @ A.T, m)]
    ld_init = q * np.log(_INIT_COV)
    second = float(((_second_moment_terms(A, Ca, Yb, Cy[row_pattern]) + mvar) * W).sum())
    energy = [free_energy(trace[0], second, n * ld_init, p * ld_init)]
    converged = False

    for it in range(config.max_iters):
        Rm = (V - m) * W
        # factor posteriors; each pattern sums a_j a_j' + Ca_j over its
        # observed columns j
        TA = (A[:, :, None] * A[:, None, :] + Ca).reshape(p, qq)
        Py = eye + (Wu @ TA).reshape(u, q, q) / v
        Cy = _inv_sym(Py)
        Yb = _matvec(Cy[row_pattern], Rm @ A) / v
        # loading posteriors; column j sums y_i y_i' + Cy_i over its
        # observed rows i, the covariances once per pattern
        YY = (Yb[:, :, None] * Yb[:, None, :]).reshape(n, qq)
        Scy = Wu.T @ (weights[:, None] * Cy.reshape(u, qq))
        Sy = W.T @ YY + Scy
        Pa = np.diag(1.0 / va) + Sy.reshape(p, q, q) / v
        Ca = _inv_sym(Pa)
        A = _matvec(Ca, Rm.T @ Yb) / v
        # bias
        F = Yb @ A.T
        mvar = 1.0 / (col_counts / v + 1.0 / vm)
        m = (mvar / v) * (((V - F) * W).sum(axis=0))
        # posterior second moments over observed entries, summed per column
        # from the statistics above: y'Ca y + tr(Cy Ca) from Sy, a'Cy a
        # from Scy.  The normal form below leaves them unchanged.
        AA = (A[:, :, None] * A[:, None, :]).reshape(p, qq)
        second = float(
            np.sum(Sy * Ca.reshape(p, qq)) + np.sum(Scy * AA) + np.dot(col_counts, mvar)
        )
        # normal form via the average posterior covariances
        Cy_mean = (weights @ Cy.reshape(u, qq)).reshape(q, q) / n
        M, N = _gauge_maps(A, Ca.mean(axis=0), Yb, Cy_mean, n, p)
        A = A @ M
        Ca = M.T @ Ca @ M
        Yb = Yb @ N
        Cy = N.T @ Cy @ N
        F = Yb @ A.T
        # prior variances, floored so pruned components keep honest
        # uncertainty
        va = np.maximum(
            (A * A).mean(axis=0) + Ca.diagonal(axis1=1, axis2=2).mean(axis=0),
            uncertainty_floor,
        )
        vm = max(float(np.dot(m, m)) / p + float(mvar.mean()), prior_floor)
        # noise variance
        sse = masked_sse(F, m)
        if not np.isfinite(sse):
            raise NumericalError(f"cost became non-finite at iteration {it + 1}")
        v = max((sse + second) / n_obs, noise_floor)
        # the gauge maps scale the covariance determinants by det(M)^2
        # (loadings) and det(N)^2 = det(M)^-2 (factors)
        ld_m = 2.0 * float(np.linalg.slogdet(M)[1])
        ld_py = float(weights @ np.linalg.slogdet(Py)[1])
        energy.append(free_energy(sse, second, -ld_py - n * ld_m, -_logdet(Pa) + p * ld_m))
        prev = trace[-1]
        trace.append(sse)
        if abs(prev - sse) <= config.conv_tol * max(prev, _TINY) or sse <= n_obs * noise_floor:
            converged = True
            break

    return VbpcaModel(
        loadings_mean=_freeze(A),
        loadings_cov=_freeze(Ca),
        factors_mean=_freeze(Yb.T.copy()),
        factors_cov=_freeze(Cy[row_pattern]),
        bias_mean=_freeze(m),
        bias_var=_freeze(mvar),
        noise_var=float(v),
        cost_trace=_freeze(np.asarray(trace)),
        free_energy_trace=_freeze(np.asarray(energy)),
        converged=converged,
    )


def _matvec(blocks: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row k of the result is blocks[k] @ vecs[k]."""
    return np.matmul(blocks, vecs[:, :, None])[:, :, 0]


def _second_moment_terms(
    A: np.ndarray, Acov: np.ndarray, Yb: np.ndarray, Ycov: np.ndarray
) -> np.ndarray:
    """Variance of a_j'y_i per position (i, j), excluding the bias term.

    With the q-by-q blocks flattened, a_j'Cy_i a_j + tr(Cy_i Ca_j) is one
    matmul of the factor covariances with a_j a_j' + Ca_j, and
    y_i'Ca_j y_i another, of y_i y_i' with the loading covariances.
    """
    n, q = Yb.shape
    p = A.shape[0]
    TA = (A[:, :, None] * A[:, None, :] + Acov).reshape(p, q * q)
    YY = (Yb[:, :, None] * Yb[:, None, :]).reshape(n, q * q)
    return Ycov.reshape(n, q * q) @ TA.T + YY @ Acov.reshape(p, q * q).T


def reconstruct(model: VbpcaModel) -> Reconstruction:
    """Posterior mean and elementwise variance of the reconstruction.

    The variance at (i, j) combines the factor covariance mapped through
    the loading mean, the loading covariance mapped through the factor
    mean, the product of the two covariances, and the bias variance.
    """
    A = model.loadings_mean
    Yb = model.factors_mean.T
    mean = Yb @ A.T + model.bias_mean
    shared = model.factors_cov.strides[0] == 0 and model.loadings_cov.strides[0] == 0
    if shared:
        Cy = model.factors_cov[0]
        Ca = model.loadings_cov[0]
        per_col = np.sum((A @ Cy) * A, axis=1)  # a_j' Cy a_j
        per_row = np.sum((Yb @ Ca) * Yb, axis=1)  # y_i' Ca y_i
        cross = float(np.sum(Ca * Cy))
        var = per_row[:, None] + (per_col + cross + model.bias_var)[None, :]
    else:
        var = (
            _second_moment_terms(A, model.loadings_cov, Yb, model.factors_cov)
            + model.bias_var[None, :]
        )
    var = np.maximum(var, 0.0)
    return Reconstruction(mean=_freeze(mean), var=_freeze(var))


def select_n_components(
    data: MaskedMatrix, config: VbpcaConfig, q_max: int | None = None
) -> VbpcaModel:
    """Fit the model at the largest component count and return the fit.

    No separate count selection is needed: the per-component prior
    variances withdraw the components the data do not support, so a fit
    at a larger count keeps the supported ones and prunes the rest.  The
    count is ``q_max`` if given, else min(n - 1, p - 1, DEFAULT_SCAN_CAP):
    one dimension is left to the noise model.  ``config.n_components``
    is ignored; the other settings are used as given.
    """
    n, p = data.shape
    if q_max is None:
        q_max = min(n - 1, p - 1, DEFAULT_SCAN_CAP)
    return fit(data, replace(config, n_components=q_max))
