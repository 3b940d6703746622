"""Shared oracle helpers for the test suite.

Everything here is implemented independently of the package internals so
that it can serve as a cross-check: a masked squared error, Monte Carlo
estimators, a literal step-down adjustment, plain-numpy spectrum
computations, and a fit written with one posterior per row and per
column.  That fit shares only the start, the normal-form maps and the
free-energy formula with the package, each of which is tested on its
own.
"""

from __future__ import annotations

import numpy as np

from sigpca import MaskedMatrix, ShapeError, VbpcaConfig, VbpcaModel
from sigpca import vbpca


def rank_k_matrix(n: int, p: int, k: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Exact rank-k matrix from a random factorization."""
    gen = np.random.default_rng(seed)
    left = gen.standard_normal((n, k))
    right = gen.standard_normal((k, p))
    return scale * (left @ right)


def center_cols(x: np.ndarray) -> np.ndarray:
    return x - x.mean(axis=0, keepdims=True)


def complete(x: np.ndarray) -> MaskedMatrix:
    return MaskedMatrix.complete(np.asarray(x, dtype=np.float64))


def frobenius_sq_masked(a: MaskedMatrix, b) -> float:
    """Squared Frobenius distance between ``a`` and ``b`` over observed
    entries of ``a``."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != a.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    flat = np.where(a.mask, a.values - b, 0.0).ravel()
    return float(np.dot(flat, flat))


def masked_mse(data: MaskedMatrix, approx: np.ndarray) -> float:
    """Mean squared error over the observed entries of ``data``."""
    return frobenius_sq_masked(data, approx) / np.count_nonzero(data.mask)


def _random_spd(gen: np.random.Generator, k: int, scale: float) -> np.ndarray:
    w = gen.standard_normal((k, k))
    return scale * (w @ w.T / k + 0.5 * np.eye(k))


def random_posterior_model(gen: np.random.Generator, n: int, p: int, q: int) -> VbpcaModel:
    """A syntactically valid posterior with random means and one random
    SPD covariance block per row and per column (identity patterns), for
    exercising the reconstruction formulas."""
    return VbpcaModel(
        loadings_mean=gen.standard_normal((p, q)),
        loadings_cov=np.stack([_random_spd(gen, q, gen.uniform(0.05, 0.6)) for _ in range(p)]),
        loadings_pattern=np.arange(p),
        factors_mean=gen.standard_normal((q, n)),
        factors_cov=np.stack([_random_spd(gen, q, gen.uniform(0.05, 0.6)) for _ in range(n)]),
        factors_pattern=np.arange(n),
        bias_mean=gen.standard_normal(p),
        bias_var=gen.uniform(0.01, 0.5, size=p),
        noise_var=float(gen.uniform(0.1, 2.0)),
        cost_trace=np.array([1.0, 0.5]),
    )


def mc_reconstruction_variance(model: VbpcaModel, n_draws: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of the elementwise reconstruction variance.

    For every matrix position (i, j), draws loadings row, factor column
    and bias independently from their posteriors and takes the sample
    variance of loadings . factors + bias.
    """
    gen = np.random.default_rng(seed)
    n, p = model.factors_mean.shape[1], model.loadings_mean.shape[0]
    q = model.n_components
    chol_a = np.linalg.cholesky(model.loadings_cov)[model.loadings_pattern]
    chol_y = np.linalg.cholesky(model.factors_cov)[model.factors_pattern]
    var = np.empty((n, p))
    for i in range(n):
        y = model.factors_mean[:, i] + gen.standard_normal((n_draws, q)) @ chol_y[i].T
        for j in range(p):
            a = model.loadings_mean[j] + gen.standard_normal((n_draws, q)) @ chol_a[j].T
            m = model.bias_mean[j] + np.sqrt(model.bias_var[j]) * gen.standard_normal(n_draws)
            x = np.einsum("sk,sk->s", a, y) + m
            var[i, j] = x.var(ddof=1)
    return var


def stepdown_adjust_reference(raw_p, m: int) -> np.ndarray:
    """Literal step-down adjustment: running maximum of min(1, (m-s+1) p_s)
    over testing order s = 1, 2, ...  Written as a plain loop."""
    out = []
    running = 0.0
    for s, p_s in enumerate(raw_p, start=1):
        running = max(running, min(1.0, (m - s + 1) * p_s))
        out.append(running)
    return np.asarray(out)


def gram_top_eigvals(x: np.ndarray, q: int) -> np.ndarray:
    """Top-q eigenvalues of x x^T, descending, plain numpy."""
    g = x @ x.T if x.shape[0] <= x.shape[1] else x.T @ x
    vals = np.linalg.eigvalsh(0.5 * (g + g.T))[::-1]
    return np.maximum(vals[:q], 0.0)


def normalize_spectrum_reference(lam: np.ndarray) -> np.ndarray:
    """Tail normalization written as a plain loop: value at index r is
    (q - 1 - r) * lam[r] / (lam[r] + ... + lam[q-2]), last index 0."""
    q = lam.size
    out = np.zeros(q)
    for r in range(q - 1):
        tail = float(np.sum(lam[r : q - 1]))
        out[r] = (q - 1 - r) * lam[r] / tail if tail > 0 else 0.0
    return out


def _gaussian_kl(mean0, cov0, mean1, cov1) -> float:
    """KL(N(mean0, cov0) || N(mean1, cov1)) in its textbook form."""
    mean0 = np.atleast_1d(mean0)
    mean1 = np.atleast_1d(mean1)
    cov0 = np.atleast_2d(cov0)
    cov1 = np.atleast_2d(cov1)
    prec1 = np.linalg.inv(cov1)
    diff = mean1 - mean0
    return 0.5 * float(
        np.trace(prec1 @ cov0)
        + diff @ prec1 @ diff
        - mean0.size
        + np.log(np.linalg.det(cov1))
        - np.log(np.linalg.det(cov0))
    )


def free_energy_reference(
    data: MaskedMatrix, model: VbpcaModel, loading_prior_var, bias_prior_var: float
) -> float:
    """Negative evidence lower bound of ``model`` on ``data``, written as
    plain loops: the expected Gaussian negative log-likelihood of every
    observed entry, plus one KL term per factor column, loading row and
    bias entry against the priors N(0, I), N(0, diag(loading_prior_var))
    and N(0, bias_prior_var)."""
    x = data.values
    n, p = x.shape
    A = model.loadings_mean
    Y = model.factors_mean
    v = model.noise_var
    Cy = model.factors_cov[model.factors_pattern]
    Ca = model.loadings_cov[model.loadings_pattern]
    total = 0.0
    for i in range(n):
        y_second = Cy[i] + np.outer(Y[:, i], Y[:, i])
        for j in range(p):
            if not data.mask[i, j]:
                continue
            a_second = Ca[j] + np.outer(A[j], A[j])
            resid = x[i, j] - model.bias_mean[j]
            # E[(x - a'y - m)^2] for independent a, y and m
            expected_sq = (
                resid**2
                - 2.0 * resid * float(A[j] @ Y[:, i])
                + float(np.trace(a_second @ y_second))
                + model.bias_var[j]
            )
            total += 0.5 * (np.log(2.0 * np.pi * v) + expected_sq / v)
    q = A.shape[1]
    for i in range(n):
        total += _gaussian_kl(Y[:, i], Cy[i], np.zeros(q), np.eye(q))
    prior_a = np.diag(np.asarray(loading_prior_var, dtype=np.float64))
    for j in range(p):
        total += _gaussian_kl(A[j], Ca[j], np.zeros(q), prior_a)
    for j in range(p):
        total += _gaussian_kl(
            model.bias_mean[j], model.bias_var[j], 0.0, bias_prior_var
        )
    return total


def _inv_sym(s: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(s)
    return 0.5 * (inv + inv.T)


def ungrouped_fit_reference(data: MaskedMatrix, config: VbpcaConfig) -> VbpcaModel:
    """The fit's sweeps with no grouping by mask: one factor posterior per
    data row and one loading posterior per data column, each formed from
    its own observed entries in a loop.  The expected squared error is
    summed row by row after the normal form, and the free energy takes
    the log-determinants of the returned covariances directly.  The model
    holds one covariance per row and per column (identity patterns)."""
    V, mask = data.values, data.mask
    n, p = V.shape
    q = config.n_components
    counts = mask.sum(axis=0)
    n_obs = int(counts.sum())
    A, Yb, m, scale = vbpca._init_state(data, q, config.seed)
    anchor = max(scale, vbpca._ABS_SCALE_FLOOR)
    eye = np.eye(q)
    Ca = np.stack([eye * vbpca._INIT_COV] * p)
    Cy = np.stack([eye * vbpca._INIT_COV] * n)
    mvar = np.full(p, vbpca._INIT_COV)
    va = np.full(q, anchor * vbpca._INIT_PRIOR_REL)
    vm = 1.0
    prior_floor = anchor * vbpca._PRIOR_FLOOR_REL
    uncertainty_floor = anchor * vbpca._PRIOR_UNCERTAINTY_FLOOR_REL
    noise_floor = anchor * vbpca._NOISE_FLOOR_REL
    v = max(scale, anchor)

    def expected_error() -> tuple[float, float]:
        # squared error of the mean, and the posterior second moments
        # a'Cy a + y'Ca y + tr(Cy Ca) + bias variance, over observed entries
        sse = second = 0.0
        for i in range(n):
            obs = mask[i]
            Ao = A[obs]
            r = V[i, obs] - Ao @ Yb[i] - m[obs]
            sse += float(r @ r)
            second += float(
                np.einsum("jq,qr,jr->", Ao, Cy[i], Ao)
                + np.einsum("q,jqr,r->", Yb[i], Ca[obs], Yb[i])
                + np.sum(Ca[obs] * Cy[i])
                + mvar[obs].sum()
            )
        return sse, second

    def free_energy(sse: float, second: float) -> float:
        return vbpca._free_energy(
            sse + second, n_obs, v, Yb, float(np.trace(Cy, axis1=1, axis2=2).sum()),
            float(np.linalg.slogdet(Cy)[1].sum()), A,
            Ca.diagonal(axis1=1, axis2=2).sum(axis=0), float(np.linalg.slogdet(Ca)[1].sum()),
            va, m, mvar, vm,
        )

    sse, second = expected_error()
    trace, energy = [sse], [free_energy(sse, second)]
    converged = False
    for _ in range(config.max_iters):
        for i in range(n):
            obs = mask[i]
            Ao = A[obs]
            Cy[i] = _inv_sym(eye + (Ao.T @ Ao + Ca[obs].sum(axis=0)) / v)
            Yb[i] = Cy[i] @ (Ao.T @ (V[i, obs] - m[obs])) / v
        for j in range(p):
            obs = mask[:, j]
            Yo = Yb[obs]
            Ca[j] = _inv_sym(np.diag(1.0 / va) + (Yo.T @ Yo + Cy[obs].sum(axis=0)) / v)
            A[j] = Ca[j] @ (Yo.T @ (V[obs, j] - m[j])) / v
        for j in range(p):
            obs = mask[:, j]
            mvar[j] = 1.0 / (counts[j] / v + 1.0 / vm)
            m[j] = mvar[j] / v * float(np.sum(V[obs, j] - Yb[obs] @ A[j]))
        M, N = vbpca._gauge_maps(A, Ca.mean(axis=0), Yb, Cy.mean(axis=0), n, p)
        A, Yb = A @ M, Yb @ N
        Ca = np.stack([M.T @ c @ M for c in Ca])
        Cy = np.stack([N.T @ c @ N for c in Cy])
        va = np.maximum(
            (A * A).mean(axis=0) + Ca.diagonal(axis1=1, axis2=2).mean(axis=0),
            uncertainty_floor,
        )
        vm = max(float(m @ m) / p + float(mvar.mean()), prior_floor)
        sse, second = expected_error()
        v = max((sse + second) / n_obs, noise_floor)
        energy.append(free_energy(sse, second))
        prev = trace[-1]
        trace.append(sse)
        if abs(prev - sse) <= vbpca._CONV_TOL * prev or sse <= n_obs * noise_floor:
            converged = True
            break
    return VbpcaModel(
        loadings_mean=A,
        loadings_cov=Ca,
        loadings_pattern=np.arange(p),
        factors_mean=Yb.T,
        factors_cov=Cy,
        factors_pattern=np.arange(n),
        bias_mean=m,
        bias_var=mvar,
        noise_var=float(v),
        cost_trace=np.asarray(trace),
        free_energy_trace=np.asarray(energy),
        converged=converged,
    )
