"""Checks of the program's outputs, computed apart from the program.

Every check raises ``CheckError`` with a message naming what is wrong.
The references here are written out from their definitions (a loop for
the Holm step-down and the tail normalisation, ``numpy.linalg.svd`` for
the spectrum) and share no code with ``sigpca``.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues of the reconstruction at or below this fraction of the
# data energy are reported as zero (README, "spectrum floor").
SPECTRUM_FLOOR_REL = 1e-9
# A fit's free energy may rise between sweeps by rounding only.
FREE_ENERGY_SLACK_REL = 1e-8


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def holm_step_down(raw_p, m: int) -> list[float]:
    """Textbook Holm step-down in testing order: entry s (1-based) is the
    running maximum of min(1, (m - s + 1) p_s)."""
    out = []
    running = 0.0
    for s, p in enumerate(raw_p, start=1):
        running = max(running, min(1.0, (m - s + 1) * p))
        out.append(running)
    return out


def tail_normalized(eigenvalues) -> list[float]:
    """Value at 0-based rank r of q: (q - 1 - r) l_r / (l_r + ... + l_{q-2});
    0 where that tail sum is 0, and 0 at the last rank."""
    lam = [float(x) for x in eigenvalues]
    q = len(lam)
    out = []
    for r in range(q):
        tail = sum(lam[r : q - 1])
        out.append((q - 1 - r) * lam[r] / tail if tail > 0.0 else 0.0)
    return out


def check_report(report: dict) -> None:
    """The rank table of a JSON report is consistent with itself: the
    eigenvalues descend, the normalised values follow from them, the
    adjusted p-values are the Holm step-down of the raw ones over a family
    of all q ranks, testing stops at the first adjusted p at or above
    alpha, and ``n_significant`` counts the leading adjusted p below it."""
    ranks = report["ranks"]
    q = report["n_components"]
    alpha = report["config"]["alpha"]
    _require(len(ranks) == q, f"{len(ranks)} rank rows for {q} components")
    lam = [row["eigenvalue"] for row in ranks]
    _require(
        all(x >= 0.0 for x in lam) and all(a >= b for a, b in zip(lam, lam[1:])),
        "eigenvalues are not nonnegative and descending",
    )
    for r, (row, expected) in enumerate(zip(ranks, tail_normalized(lam)), start=1):
        _require(
            abs(row["normalized"] - expected) <= 1e-9 * max(abs(expected), 1.0),
            f"rank {r}: normalized {row['normalized']!r}, expected {expected!r}",
        )
    tested = [row for row in ranks if row["raw_p"] is not None]
    _require(
        ranks[: len(tested)] == tested,
        "tested ranks are not a leading block of the table",
    )
    _require(
        all(row["adjusted_p"] is None for row in ranks[len(tested) :]),
        "an untested rank has an adjusted p-value",
    )
    _require(len(tested) >= 1, "no rank was tested")
    raw = [row["raw_p"] for row in tested]
    _require(all(0.0 <= p <= 1.0 for p in raw), "a raw p-value lies outside [0, 1]")
    expected_adj = holm_step_down(raw, q)
    for r, (row, expected) in enumerate(zip(tested, expected_adj), start=1):
        _require(
            abs(row["adjusted_p"] - expected) <= 1e-12,
            f"rank {r}: adjusted p {row['adjusted_p']!r}, Holm gives {expected!r}",
        )
    leading = 0
    for p in expected_adj:
        if p >= alpha:
            break
        leading += 1
    _require(
        len(tested) == q or expected_adj[-1] >= alpha,
        f"testing stopped at rank {len(tested)} with adjusted p below alpha",
    )
    _require(
        report["n_significant"] == leading,
        f"n_significant {report['n_significant']}, leading adjusted p below "
        f"alpha {leading}",
    )


def check_spectrum_matches_svd(eigenvalues, recon_mean, data_energy: float) -> None:
    """The reported spectrum equals the squared singular values of the
    reconstruction mean, with values at or below the floor reported as 0.

    Values within a relative 1e-6 of the floor may go either way."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    sv = np.linalg.svd(np.asarray(recon_mean, dtype=np.float64), compute_uv=False)
    expected = (sv**2)[: lam.size]
    floor = SPECTRUM_FLOOR_REL * data_energy
    top = float(expected[0]) if expected.size else 0.0
    tol = 1e-9 * top + 1e-12 * data_energy
    for r, (got, want) in enumerate(zip(lam, expected), start=1):
        if abs(want - floor) <= 1e-6 * floor:
            continue
        if want < floor:
            _require(got == 0.0, f"rank {r}: eigenvalue {got!r} below the floor {floor!r}")
        else:
            _require(
                abs(got - want) <= tol,
                f"rank {r}: eigenvalue {got!r}, squared singular value {want!r}",
            )


def check_not_above_planted(estimate: int, planted: int, label: str) -> None:
    """The paper's claim: the estimate may fall short, never exceed."""
    _require(estimate <= planted, f"{label}: estimate {estimate} above planted {planted}")


def check_low_count_misses(outcomes) -> None:
    """At most one cell with 2 planted components is missed; ``outcomes``
    holds (planted, estimate) pairs."""
    misses = [est for planted, est in outcomes if planted == 2 and est != 2]
    _require(len(misses) <= 1, f"{len(misses)} planted-2 cells missed: {misses}")


def check_mask(parsed_mask, written_missing) -> None:
    """The parsed observation mask is the complement of the cells
    written as missing."""
    parsed = np.asarray(parsed_mask, dtype=bool)
    missing = np.asarray(written_missing, dtype=bool)
    _require(parsed.shape == missing.shape, f"mask shape {parsed.shape}, wrote {missing.shape}")
    wrong = int(np.count_nonzero(parsed == missing))
    _require(wrong == 0, f"{wrong} cells parsed with the wrong observed state")


def check_preprocessed(values, mask, continuous, width: int) -> None:
    """The expanded matrix has ``width`` columns, every column has mean 0
    over its observed cells, and the columns flagged ``continuous`` have
    unit sample (n - 1) standard deviation."""
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    _require(values.shape[1] == width, f"expanded width {values.shape[1]}, expected {width}")
    for j in range(values.shape[1]):
        column = values[mask[:, j], j]
        _require(abs(column.mean()) <= 1e-12 * max(1.0, np.abs(column).max()),
                 f"column {j}: observed mean {column.mean()!r}")
        if continuous[j]:
            sd = float(np.sqrt(np.sum(column**2) / (column.size - 1)))
            _require(abs(sd - 1.0) <= 1e-12, f"column {j}: sample sd {sd!r}")


def check_free_energy(trace, observed_energy: float) -> None:
    """No sweep raises the free energy by more than 1e-8 of the energy of
    the observed data."""
    steps = np.diff(np.asarray(trace, dtype=np.float64))
    slack = FREE_ENERGY_SLACK_REL * observed_energy
    _require(np.asarray(trace).size >= 1, "empty free-energy trace")
    worst = float(steps.max()) if steps.size else 0.0
    _require(worst <= slack, f"free energy rises by {worst!r} (slack {slack!r})")


def check_planted_recovered(report: dict, planted: int, noise_edge: float) -> None:
    """Every planted component lies above the noise edge and is found."""
    lam = [row["eigenvalue"] for row in report["ranks"]]
    _require(
        len(lam) >= planted and min(lam[:planted]) > noise_edge,
        f"leading {planted} eigenvalues {lam[:planted]} not above the noise edge {noise_edge}",
    )
    _require(
        report["n_significant"] == planted,
        f"estimate {report['n_significant']}, planted {planted}",
    )
