"""Significance testing of principal component spectra.

The observed spectrum comes from the Gram matrix of the reconstruction
mean.  Each eigenvalue is normalised against the tail that follows it,
which removes overall scale and lets spectra of different matrices be
compared rank by rank.  Spectra are sampled by perturbing every matrix
entry independently with a given variance: the posterior reconstruction
variance, or (as analyses do) that plus the noise variance, which makes
each draw a replicate data matrix from the posterior predictive.  The
null for rank r adds the same perturbations to the reconstruction mean
with its components at ranks r and beyond removed, so each draw shows
what rank r would look like without its component.  Draws run one after
another on the calling thread, each from its own random stream, and the
Gram matrices of one draw share a single stacked eigensolve.  All of a
draw's nulls share its perturbation, so their Gram matrices are assembled
from one Gram matrix of the perturbation, its thin product with the
mean's leading singular vectors and the Gram matrix of each rank's
approximation, computed once: a draw forms two dense Gram products
however many ranks it tests.  The posterior Gram matrix is formed
directly, so posterior spectra are exact; a null Gram matrix equals that
of its perturbed matrix up to rounding.  Ranks are tested sequentially
with a Holm-Bonferroni step-down correction sized to the full spectrum.
The null of a rank is drawn only while that test can still reach the
rank: once the draws made so far decide that testing stops at an earlier
rank, the later ranks' nulls are retired, so the cost of the null stage
follows the ranks tested, not the ranks kept.

The raw value at a rank is a posterior predictive probability, the
chance that removing the component does not lower the rank's normalised
value; it is not a p-value under a null hypothesis, so the Holm step
guards against testing many ranks but carries no familywise error
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, _check_count
from .linalg import sym_eigvals
from .rng import RngStream
from .vbpca import Reconstruction

_QUANTILES = (5.0, 50.0, 95.0)

# Eigenvalues below this fraction of the leading one are rounding
# artefacts of a rank-deficient matrix and are reported as exact zeros.
# Without the cutoff their ratios would masquerade as structure when the
# tail of the spectrum is normalised.
_RANK_TOL_REL = 1e-9


def normalized_eigenvalues(eigenvalues) -> np.ndarray:
    """Tail-normalised spectrum.

    For eigenvalues l_1 >= ... >= l_q the value at rank r is
    (q - r) * l_r / (l_r + ... + l_{q-1}); the last rank is 0 by
    construction.  Ranks whose tail sum vanishes are defined as 0.
    The result is invariant under scaling of the input.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size < 1:
        raise ShapeError("eigenvalues must be a nonempty 1-D array")
    return _normalize_rows(lam)


def _normalize_rows(lam: np.ndarray) -> np.ndarray:
    """``normalized_eigenvalues`` of each spectrum along the last axis."""
    q = lam.shape[-1]
    # tail[..., i] = lam[..., i] + ... + lam[..., q-2]; the top eigenvalue
    # is excluded from no tail, the last eigenvalue from every tail.
    tail = np.zeros(lam.shape)
    if q > 1:
        tail[..., :-1] = np.cumsum(lam[..., -2::-1], axis=-1)[..., ::-1]
    numer = (q - 1 - np.arange(q)) * lam
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(tail > 0.0, numer / tail, 0.0)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Top eigenvalues of a Gram matrix, a nonempty, nonnegative and weakly
    descending 1-D array (``ShapeError``), and the absolute ``floor`` they
    were cut at (values at or below it are exact zeros), which must be
    finite and >= 0 (``ConfigError``).  ``normalized`` is derived from the
    eigenvalues by ``normalized_eigenvalues`` and is not an argument; both
    arrays are read-only copies."""

    eigenvalues: np.ndarray
    floor: float = 0.0
    normalized: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=np.float64)
        norm = normalized_eigenvalues(lam)
        if np.any(lam < 0.0) or np.any(np.diff(lam) > 0.0):
            raise ShapeError("eigenvalues must be nonnegative and weakly descending")
        if not 0.0 <= self.floor < np.inf:
            raise ConfigError(f"floor must be finite and >= 0, got {self.floor}")
        lam.flags.writeable = False
        norm.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "normalized", norm)

    @property
    def n_ranks(self) -> int:
        return self.eigenvalues.size


def _gram(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Smaller-sided Gram matrix of x, exactly symmetric."""
    n, p = x.shape
    g = x @ x.T if n <= p else x.T @ x
    return np.multiply(0.5, g + g.T, out=out)


def _rank_cutoff(lam: np.ndarray, energy_floor: float) -> np.ndarray:
    """Zero the eigenvalues of each descending spectrum along the last
    axis that lie at or below the absolute floor or the numerical-rank
    cutoff relative to the spectrum's leading value; a spectrum with no
    positive value becomes all zeros."""
    cutoff = np.maximum(energy_floor, lam[..., :1] * _RANK_TOL_REL)
    return np.where(lam > cutoff, lam, 0.0)


def _top_eigenvalues(x: np.ndarray, q: int, energy_floor: float = 0.0) -> np.ndarray:
    """Top q eigenvalues of x x' via the smaller-sided Gram matrix,
    with the numerical-rank cutoff and the absolute floor applied."""
    return _rank_cutoff(sym_eigvals(_gram(x))[:q], energy_floor)


def reconstruction_spectrum(x_mean, q: int, energy_floor: float = 0.0) -> Spectrum:
    """Spectrum of the reconstruction mean truncated to the top q ranks.

    Eigenvalues at or below ``energy_floor`` are reported as exact
    zeros, and the spectrum keeps the floor for its null draws.
    Analyses anchor it to the total energy of the data matrix, so that
    a reconstruction made entirely of numerical residue (all its
    eigenvalues a vanishing fraction of the data energy) yields an
    exactly zero spectrum instead of a spectrum of noise ratios; a
    floor relative to the leading eigenvalue cannot make that call,
    because it only sees the reconstruction itself.  The default
    applies only the relative rank cutoff.
    """
    x = np.asarray(x_mean, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"x_mean must be 2-D, got ndim={x.ndim}")
    if not 2 <= q <= min(x.shape):
        raise ConfigError(f"q={q} out of range [2, {min(x.shape)}] for shape {x.shape}")
    return Spectrum(_top_eigenvalues(x, q, energy_floor), energy_floor)


@dataclass(frozen=True)
class SigTestConfig:
    """Null sampling and testing settings: number of null samples (at
    least 100), the error level alpha of the step-down test, and the
    sampling seed."""

    n_null_samples: int = 2000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("n_null_samples", self.n_null_samples, 100)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        RngStream(self.seed)  # validates the seed range


def sample_rank_null_spectra(
    recon: Reconstruction,
    spectrum: Spectrum,
    config: SigTestConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior spectra paired draw by draw with per-rank null spectra.

    Returns two read-only (n_samples, q) arrays of normalised values,
    q = ``spectrum.n_ranks``.  Row k of the first is the spectrum of the
    reconstruction mean perturbed entrywise by normal noise scaled by
    ``sqrt(recon.var)``, drawn from the stream (seed, k), so a run with
    more samples extends a run with fewer.  Column r (0-based) of row k
    of the second is rank r of the spectrum of the same perturbation
    added to the best rank-r approximation of the mean: the draw had the
    mean no component at ranks r and beyond.  Ranks at which ``spectrum``
    is zero have nothing to remove; their columns equal the posterior's.
    Every draw is cut at ``spectrum.floor``, as the spectrum was.  Analyses
    pass the posterior predictive (``recon.var`` plus the noise variance),
    so that a component is judged against the noise in the data.

    Each draw takes the eigenvalues of the posterior Gram matrix and of
    its live ranks' null Gram matrices in one ``sym_eigvals`` call.  The
    posterior Gram is formed directly, so posterior values are exact; each
    null Gram is the draw's noise Gram plus the rank's symmetrised cross
    term plus its fixed base Gram (see below), equal to the direct product
    up to rounding (relative 1e-12 or better in the tests).

    A kept rank's null is drawn only while the step-down test of
    ``count_significant`` at ``config.alpha`` can still reach it: once a
    live rank's running exceedance count puts its Holm value at or above
    alpha, the counts can only grow, so testing ends there or before and
    the later ranks' nulls are retired, their columns all NaN.  Retiring
    changes no drawn column, so that test reports at the same alpha what
    it would on every rank drawn in full.
    """
    mean = recon.mean
    q = spectrum.n_ranks
    if mean.ndim != 2:
        raise ShapeError("reconstruction mean must be 2-D")
    if not 2 <= q <= min(mean.shape):
        raise ConfigError(
            f"q={q} out of range [2, {min(mean.shape)}] for shape {mean.shape}"
        )
    n_removed = int(np.count_nonzero(spectrum.eigenvalues))
    std = np.sqrt(recon.var)
    # Null Grams are built in the frame x whose x'x is the side _gram
    # takes: the mean when it has more rows than columns, else its
    # transpose.  There the null of rank r is (b_r + e)'(b_r + e) for the
    # best rank-r approximation b_r = U_r S_r V_r' and the noise e, that
    # is e'e + (c_r + c_r') + b_r'b_r with c_r = b_r'e = V_r S_r (U_r' e).
    flip = mean.shape[0] <= mean.shape[1]
    if n_removed > 0:
        u, s, vt = np.linalg.svd(mean, full_matrices=False)
        base_grams = np.stack(
            [_gram((u[:, :r] * s[:r]) @ vt[:r]) for r in range(n_removed)]
        )
        # Rows u_i' and s_i v_i' of the frame's singular vectors, for the
        # ranks that some c_r sums over.
        left, right = (vt, u.T) if flip else (u.T, vt)
        left = left[: n_removed - 1]
        right = right[: n_removed - 1] * s[: n_removed - 1, None]
    n_samples = config.n_null_samples
    posterior = np.empty((n_samples, q))
    null = np.empty((n_samples, q))
    noise = np.empty(mean.shape)
    perturbed = np.empty(mean.shape)
    e = noise.T if flip else noise
    side = min(mean.shape)
    grams = np.empty((1 + n_removed, side, side))
    cross = np.empty((side, side))
    # Row 1 + r of a draw's spectra belongs to the null of rank r; the
    # nulls of ranks [0, n_live) are drawn.
    exceed = np.zeros(n_removed, dtype=np.int64)
    n_live = n_removed
    for k in range(n_samples):
        RngStream(config.seed, k).generator().standard_normal(out=noise)
        noise *= std
        np.add(mean, noise, out=perturbed)
        _gram(perturbed, out=grams[0])
        if n_live:
            noise_gram = e.T @ e
            projected = left[: n_live - 1] @ e
            for r in range(n_live):
                # c_r + c_r' first, so the sum stays exactly symmetric.
                np.matmul(right[:r].T, projected[:r], out=cross)
                np.add(cross, cross.T, out=grams[1 + r])
                grams[1 + r] += noise_gram
                grams[1 + r] += base_grams[r]
        lam = _rank_cutoff(sym_eigvals(grams[: 1 + n_live])[:, :q], spectrum.floor)
        norm = _normalize_rows(lam)
        posterior[k] = null[k] = norm[0]
        null[k, :n_live] = norm[1:].diagonal()
        # The paired exceedance rule of count_significant.  Its Holm values
        # on the counts so far can only grow, so the step-down cannot pass
        # the rank where it would stop on them.
        hits = null[k, :n_live] >= posterior[k, :n_live]
        if hits.any():
            exceed[:n_live] += hits
            _, n_live = _step_down(exceed[:n_live] / n_samples, q, config.alpha)
    null[:, n_live:n_removed] = np.nan
    posterior.flags.writeable = False
    null.flags.writeable = False
    return posterior, null


def holm_bonferroni(raw_p, m: int) -> np.ndarray:
    """Step-down adjustment for p-values given in testing order.

    Entry r becomes max over s <= r of min(1, (m - s + 1) * p_s) with
    1-based s, where m is the total number of hypotheses in the family
    (at least the number supplied; untested hypotheses still count).
    """
    p = np.asarray(raw_p, dtype=np.float64)
    if p.ndim != 1:
        raise ShapeError("raw_p must be 1-D")
    if p.size and (np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p))):
        raise ValueError("p-values must lie in [0, 1]")
    if m < p.size:
        raise ConfigError(f"family size m={m} smaller than the {p.size} p-values given")
    scaled = np.minimum(1.0, (m - np.arange(p.size)) * p)
    return np.maximum.accumulate(scaled)


def _step_down(raw: np.ndarray, m: int, alpha: float) -> tuple[np.ndarray, int]:
    """Holm values of ``raw`` over a family of m, and the number of ranks
    the step-down tests: up to the first value at or above alpha, or all."""
    adjusted = holm_bonferroni(raw, m)
    stops = np.flatnonzero(adjusted >= alpha)
    return adjusted, int(stops[0]) + 1 if stops.size else raw.size


@dataclass(frozen=True)
class SpectrumTestResult:
    """Outcome of the sequential rank test.

    ``raw_p`` and ``adjusted_p`` cover only the ranks actually tested
    (testing stops at the first adjusted p >= alpha).  ``n_significant``
    counts the ranks whose adjusted p stayed below alpha.
    ``null_quantiles`` holds the 5/50/95 percent points of the null
    normalised values for every rank, shape (q, 3); its rows are NaN for
    ranks whose null was retired (an all-NaN null column), all of which
    lie after the last tested rank.  The spectrum and the error level are
    the caller's: this holds only what the test found.
    """

    raw_p: np.ndarray
    adjusted_p: np.ndarray
    n_significant: int
    null_quantiles: np.ndarray
    n_null_samples: int


def count_significant(
    spectrum: Spectrum,
    null: np.ndarray,
    config: SigTestConfig,
    posterior: np.ndarray,
) -> SpectrumTestResult:
    """Sequentially test ranks against per-rank null spectra.

    ``posterior`` and ``null`` are the paired (n_samples, q) arrays of
    ``sample_rank_null_spectra``.  The raw value at rank r is the fraction
    of draws whose null value at rank r reaches the posterior value; a
    rank whose null draws equal the posterior ones gets a raw value of 1.
    Ranks are tested from the top; after Holm adjustment sized to the full
    spectrum, testing stops at the first rank that is not significant.
    Reaching a rank whose null column is not fully drawn (a retired null,
    which only a larger alpha than the sampler's can reach) raises
    ``ConfigError``.
    """
    q = spectrum.n_ranks
    if q < 2:
        raise ConfigError(f"spectrum must have at least 2 ranks, got {q}")
    if null.ndim != 2 or null.shape[1] != q or null.shape[0] < 1:
        raise ShapeError(f"null spectra of shape {null.shape} do not fit {q} ranks")
    if posterior.shape != null.shape:
        raise ShapeError("posterior spectra must pair row by row with the null spectra")
    n_null = null.shape[0]
    # The Holm values of a prefix of the ranks are the prefix of the Holm
    # values of all ranks, so every rank is adjusted at once and the result
    # cut after the first rank that is not significant.
    raw = np.count_nonzero(null >= posterior, axis=0) / n_null
    adjusted, n_tested = _step_down(raw, q, config.alpha)
    retired = np.flatnonzero(np.isnan(null[:, :n_tested]).any(axis=0))
    if retired.size:
        raise ConfigError(
            f"the step-down reached rank {retired[0] + 1}, whose null was not drawn "
            f"in full; sample the nulls at alpha >= {config.alpha}"
        )
    raw = raw[:n_tested]
    adjusted = adjusted[:n_tested]
    n_significant = int(np.count_nonzero(adjusted < config.alpha))
    quantiles = np.percentile(null, _QUANTILES, axis=0).T
    raw.flags.writeable = False
    adjusted.flags.writeable = False
    quantiles.flags.writeable = False
    return SpectrumTestResult(
        raw_p=raw,
        adjusted_p=adjusted,
        n_significant=n_significant,
        null_quantiles=quantiles,
        n_null_samples=n_null,
    )
