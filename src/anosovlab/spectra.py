"""Spectral analytics over word balls: Cartan/Jordan projections, gap
certification, the optimal-regularity ratio estimator, Gelfand-limit
checks and the Jordan/Cartan cone diagnostic.

One kernel, :func:`cartan_logs` and :func:`jordan_logs`, maps a stack of
matrices and the stack of their inverses to (n, d) log-vectors.  A ball
feeds it its products once, and every analytic here reduces over the
resulting arrays; :func:`cartan_jordan` feeds it a stack of one.

Accuracy notes.  Jordan data (eigenvalue moduli) is conjugation
invariant, so it is computed once per conjugacy class, on the canonical
cyclically reduced word, whose matrix is an aligned product with
well-conditioned spectrum.  For both Cartan and Jordan vectors the moduli
>= 1 are read from the element and the moduli < 1 from its inverse
(mu_i(g) = 1/mu_(d+1-i)(g^-1)); the remaining unit-determinant defect is
redistributed onto the worst-conditioned middle indices.  This keeps
log-ratios of the extreme moduli accurate to ~1e-11 even for deep words
whose matrix norms dwarf their middle spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functors import Representation, wedge_power
from .groups import (GroupElement, canonical_cyclic, enumerate_ball,
                     inverse_word)
from .linalg import MatrixD, SpectralData, eigen_moduli, singular_values

__all__ = [
    "GapProfile",
    "AlphaEstimate",
    "ConeReport",
    "cartan_jordan",
    "gap_profile",
    "alpha_m_estimate",
    "gelfand_check",
    "cone_diagnostic",
    "spectral_table",
    "linefit",
]

VERDICT_LINEAR = "gap grows linearly"
VERDICT_NOT_LINEAR = "linear growth not established"

def _merged_log_moduli(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """Combine descending modulus vectors of an element and its inverse.

    Entries >= 1 come from ``fwd``, the rest from the reversed
    reciprocals of ``bwd``.  The sum-log defect is then absorbed entirely
    by the single mid-spectrum index farthest from both extremes, which
    is the one whose direct estimate is least accurate and the dominant
    source of the defect; the result sums to zero exactly.
    """
    merged = np.where(fwd >= 1.0, fwd, 1.0 / bwd[::-1])
    ll = np.log(np.sort(merged)[::-1])
    defect = ll.sum()
    mid = int(np.argmax(np.minimum(ll[0] - ll, ll - ll[-1])))
    ll[mid] -= defect
    return np.sort(ll)[::-1]


def _wedge_refined_logs(Mf, Mb, merged: np.ndarray,
                        suspect: np.ndarray) -> np.ndarray:
    """Repair suspect log moduli via top eigenvalues of exterior powers.

    lam_i = lam_1(wedge^i M) / lam_1(wedge^(i-1) M); top eigenvalues of
    the compound matrices stay relatively accurate when the suspect
    moduli sit far below the matrix norm.  Only indices flagged suspect
    are replaced -- the cross-validated ones are already reliable, and
    for strongly non-normal inputs the compounds themselves degrade.
    The top indices come from M, the bottom ones from its inverse by
    duality; compounds of size above 128 are skipped (full coverage up
    to d = 9) and the unit-determinant defect lands on the least
    reliable uncovered index.
    """
    d = Mf.dim

    def ladder_diffs(M, count):
        out, prev = [], 0.0
        for i in range(1, count + 1):
            if math.comb(d, i) > 128:
                break
            W = M if i == 1 else wedge_power(M, i)
            t = math.log(eigen_moduli(W)[0])
            out.append(t - prev)
            prev = t
        return out

    half = d // 2
    top = ladder_diffs(Mf, half)
    bot = ladder_diffs(Mb, d - half)
    ll = merged.copy()
    covered = np.zeros(d, dtype=bool)
    for i, val in enumerate(top):
        if suspect[i]:
            ll[i] = val
        covered[i] = True
    for j, val in enumerate(bot):
        if suspect[d - 1 - j]:
            ll[d - 1 - j] = -val
        covered[d - 1 - j] = True
    defect = ll.sum()
    pool = np.flatnonzero(~covered if not covered.all() else suspect)
    if pool.size == 0:
        pool = np.arange(d)
    w = np.minimum(ll[0] - ll[pool], ll[pool] - ll[-1])
    ll[pool[int(np.argmax(w))]] -= defect
    return np.sort(ll)[::-1]


def cartan_logs(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """(n, d) Cartan vectors of a stack of matrices ``fwd``, given the
    stack ``bwd`` of their inverses."""
    return np.array([_merged_log_moduli(f, b) for f, b in
                     zip(singular_values(fwd), singular_values(bwd))])


def jordan_logs(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """(n, d) Jordan vectors of a stack of matrices ``fwd``, given the
    stack ``bwd`` of their inverses.  A matrix and its inverse are two
    computations of one spectrum; rows where their logs differ by over
    1e-9 outside the determinant-corrected middle index are repaired from
    exterior powers.
    """
    out = []
    for Mf, Mb, f, b in zip(fwd, bwd, eigen_moduli(fwd), eigen_moduli(bwd)):
        merged = _merged_log_moduli(f, b)
        delta = np.abs(np.log(f) + np.log(b)[::-1])
        mid = int(np.argmax(np.minimum(merged[0] - merged,
                                       merged - merged[-1])))
        suspect = delta > 1e-9
        if suspect.sum() > suspect[mid]:  # a suspect index besides mid
            merged = _wedge_refined_logs(MatrixD(Mf, 1), MatrixD(Mb, 1),
                                         merged, suspect)
        out.append(merged)
    return np.array(out)


def cartan_jordan(g) -> SpectralData:
    """Cartan vector (log singular values) and Jordan vector (log
    eigenvalue moduli) of a group element or a matrix, both descending
    with sum 0."""
    if isinstance(g, GroupElement):
        core = canonical_cyclic(g.word)
        A = g.matrix.mat
        Ainv, C, Cinv = (g.gens.matrix_of_word(w).mat for w in
                         (inverse_word(g.word), core, inverse_word(core)))
    else:
        A = g.mat if isinstance(g, MatrixD) else np.asarray(g, dtype=float)
        C, Cinv = A, Ainv = A, np.linalg.inv(A)
    return SpectralData(mu=cartan_logs(A[None], Ainv[None])[0],
                        lam=jordan_logs(C[None], Cinv[None])[0])


def linefit(x, y):
    """Least-squares line through (x, y): returns (slope, intercept, R^2).

    R^2 is defined as 0 for constant data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if ss_tot <= 1e-300 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return float(coef[0]), float(coef[1]), r2


@dataclass(frozen=True)
class GapProfile:
    k: int
    lengths: np.ndarray
    min_gap: np.ndarray
    max_gap: np.ndarray
    slope: float | None
    intercept: float | None
    r_squared: float | None
    linear: bool
    verdict: str


def gap_profile(rep: Representation, k: int, radius: int,
                slope_min: float = 0.05, r2_min: float = 0.9,
                ball=None) -> GapProfile:
    """Per-length extrema of log(mu_k / mu_(k+1)) over the deduplicated
    ball, with a least-squares fit through the per-length minima.

    The verdict is positive iff the fit exists (>= 3 lengths), its slope
    exceeds ``slope_min`` and R^2 exceeds ``r2_min``; a positive verdict
    is numerical evidence of a linear gap, not a certificate.
    """
    d = rep.dim
    if not 1 <= k <= d - 1:
        raise ValueError(f"gap index k={k} out of range for dimension {d}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if ball is None:
        ball = enumerate_ball(rep.generators, radius)
    gaps = ball.cartan[:, k - 1] - ball.cartan[:, k]
    lengths = np.unique(ball.lengths[ball.lengths > 0])
    mins = np.array([gaps[ball.lengths == n].min() for n in lengths])
    maxs = np.array([gaps[ball.lengths == n].max() for n in lengths])
    if lengths.size >= 3:
        slope, intercept, r2 = linefit(lengths, mins)
        linear = slope > slope_min and r2 > r2_min
    else:
        slope = intercept = r2 = None
        linear = False
    return GapProfile(k=k, lengths=lengths, min_gap=mins, max_gap=maxs,
                      slope=slope, intercept=intercept, r_squared=r2,
                      linear=linear,
                      verdict=VERDICT_LINEAR if linear else VERDICT_NOT_LINEAR)


@dataclass(frozen=True)
class AlphaEstimate:
    m: int
    value: float
    witness: GroupElement
    per_radius: np.ndarray  # shape (R, 2): radius, running infimum (nan if none)
    converged: bool


def alpha_m_estimate(rep: Representation, m: int, radius: int,
                     tol: float = 1e-9, ball=None) -> AlphaEstimate:
    """Infimum over ball elements of
    log(lam_1/lam_(m+1)) / log(lam_1/lam_m), skipping elements whose
    (1, m) eigenvalue gap is below ``tol`` on the log scale.

    The infimum over the whole group is truncated to the ball; the
    per-radius column makes convergence visible and ``converged`` flags
    whether the last two radii agree within 1e-6.
    """
    d = rep.dim
    if not 2 <= m <= d - 1:
        raise ValueError(f"alpha index m={m} out of range for dimension {d}")
    if ball is None:
        ball = enumerate_ball(rep.generators, radius)
    lam = ball.jordan
    top_gap = lam[:, 0] - lam[:, m - 1]
    ratios = np.full(len(ball), math.inf)
    gapped = (ball.lengths > 0) & (top_gap > tol)
    ratios[gapped] = (lam[gapped, 0] - lam[gapped, m]) / top_gap[gapped]
    best = int(np.argmin(ratios))
    if ratios[best] == math.inf:
        raise ValueError(
            "no infinite-order witness: no element has a (1, m) eigenvalue gap")
    # per-radius running infimum, monotone non-increasing
    radii = np.arange(1, radius + 1)
    running = np.minimum.accumulate(
        [ratios[ball.lengths == r].min(initial=math.inf) for r in radii])
    per_radius = np.column_stack(
        [radii, np.where(running < math.inf, running, np.nan)])
    tail = per_radius[~np.isnan(per_radius[:, 1]), 1]
    converged = tail.size >= 2 and abs(tail[-1] - tail[-2]) <= 1e-6
    return AlphaEstimate(m=m, value=ratios[best], witness=ball[best],
                         per_radius=per_radius, converged=converged)


def gelfand_check(M, i: int, K: int) -> np.ndarray:
    """Errors |(1/k) log sigma_i(M^k) - log lam_i(M)| for k = 1..K.

    Powers are renormalized to unit Frobenius norm at every step, with
    the log scale accumulated exactly, so K up to ~10^3 stays within
    double range.  The sequence decreases toward 0 when lam_i sits at a
    strict modulus level.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    A = M.mat if isinstance(M, MatrixD) else np.asarray(M, dtype=float)
    d = A.shape[0]
    if not 1 <= i <= d:
        raise ValueError(f"index i={i} out of range")
    lam_i = math.log(eigen_moduli(A)[i - 1])
    Q = A.copy()
    log_scale = 0.0
    errors = np.empty(K)
    for k in range(1, K + 1):
        if k > 1:
            Q = Q @ A
        norm = np.linalg.norm(Q)
        if not np.isfinite(norm) or norm == 0.0:
            raise FloatingPointError(f"power overflow despite re-scaling at k={k}")
        Q /= norm
        log_scale += math.log(norm)
        sig = singular_values(Q)[i - 1]
        if sig <= 0.0:
            raise FloatingPointError(
                f"sigma_{i} underflowed at k={k}; index too deep for doubles")
        errors[k - 1] = abs((math.log(sig) + log_scale) / k - lam_i)
    return errors


@dataclass(frozen=True)
class ConeReport:
    max_distance: float
    mean_distance: float
    n_elements: int
    degenerate: bool


def cone_diagnostic(rep: Representation, radius: int, n_min: int,
                    ball=None) -> ConeReport:
    """Angular distance between each long element's normalized Cartan
    vector and the nearest normalized Jordan direction over the ball.

    Small values are consistent with the asymptotic Cartan cone agreeing
    with the closed Jordan cone; this is a sampling diagnostic, not a
    proof.  Elements with vanishing vectors (elliptic data) are skipped;
    if everything vanishes the report is flagged degenerate.
    """
    if radius <= n_min:
        raise ValueError("radius must exceed n_min")
    if ball is None:
        ball = enumerate_ball(rep.generators, radius)
    directions = _unit_rows(ball.jordan[ball.lengths > 0])
    cartan = _unit_rows(ball.cartan[ball.lengths >= n_min])
    if not len(directions) or not len(cartan):
        return ConeReport(max_distance=math.nan, mean_distance=math.nan,
                          n_elements=0, degenerate=True)
    arr = np.array([np.arccos(np.clip(directions @ u, -1.0, 1.0).max())
                    for u in cartan])
    return ConeReport(max_distance=float(arr.max()),
                      mean_distance=float(arr.mean()),
                      n_elements=arr.size, degenerate=False)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """The rows of norm above 1e-9, normalized.  Norms are taken row by
    row: a vectorized norm sums in another order."""
    norms = np.array([np.linalg.norm(v) for v in vectors])
    keep = norms > 1e-9
    return vectors[keep] / norms[keep, None]


def spectral_table(rep: Representation, radius: int, m: int | None = None,
                   ball=None) -> list[dict]:
    """Per-element spectral rows for CSV export: word, length, the Cartan
    and Jordan log-vectors, and (optionally) the m-th regularity ratio."""
    if ball is None:
        ball = enumerate_ball(rep.generators, radius)
    rows = []
    for g, mu, lam in zip(ball, ball.cartan, ball.jordan):
        row = {"word": g.word or "<id>", "length": g.length}
        for i, v in enumerate(mu, 1):
            row[f"mu_{i}"] = v
        for i, v in enumerate(lam, 1):
            row[f"lambda_{i}"] = v
        if m is not None:
            top_gap = lam[0] - lam[m - 1]
            row["ratio_m"] = ((lam[0] - lam[m]) / top_gap
                              if top_gap > 1e-9 else math.nan)
        rows.append(row)
    return rows
