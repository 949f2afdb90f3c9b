"""Spectral analytics over word balls: Cartan/Jordan projections, gap
certification, the optimal-regularity ratio estimator and Gelfand-limit
checks.

Every analytic takes the :class:`~anosovlab.groups.Ball` it reads, and
reads the dimension and the radius from it.  One kernel, the compound
ladder :func:`ladder_logs`, gives the Cartan vectors of a ball's
elements and the Jordan vectors of their classes' canonical cyclic words;
:func:`cartan_jordan` runs it on a ball of one element.  By
Cauchy-Binet the k-th exterior power of a word's matrix is the product
of its letters', and its top singular value or eigenvalue modulus gives
the sum of the top k logs, free of the rounded product's loss of every
value below ``sigma_1 * eps``.  Per diagonal block of the generators,
of dimension n, the top floor(n/2) indices come from the word, the
bottom floor(n/2) from its inverse and an odd middle one is log|det|
minus the others.  Each rung reads one value: a Cartan rung the top
singular value, from the largest eigenvalue of a scaled Gram matrix
(:func:`~anosovlab.linalg.singular_values` with ``top``), a Jordan rung
the top eigenvalue modulus.  Compounds are built while C(n, k) <= 126 (every
index up to n = 9); a larger block takes the rest of its middle from the
block product's own spectrum (singular values from LAPACK's SVD),
shifted to its log|det|, and :func:`spectral_kernel` says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functors import _wedge_coordinates, wedge_indices
from .groups import (Ball, GeneratorSet, GroupElement, _tree_products,
                     canonical_cyclic, inverse_word, prefix_tree)
from .linalg import MatrixD, SpectralData, eigen_moduli, singular_values

__all__ = [
    "GapProfile",
    "AlphaEstimate",
    "cartan_jordan",
    "ladder_logs",
    "gap_profile",
    "alpha_m_estimate",
    "gelfand_check",
    "spectral_table",
    "linefit",
]

VERDICT_LINEAR = "gap grows linearly"
VERDICT_NOT_LINEAR = "linear growth not established"

_COMPOUND_CAP = 126  # = C(9, 4): the largest compound the ladder builds
# Byte budget of each chunk of word compounds the ladder holds; it holds
# one chunk per word length.  Wedge^4 of a 9x9 block takes 127 KB.
_LADDER_BYTES = 2 << 20


def _diagonal_blocks(gens: GeneratorSet) -> list[np.ndarray]:
    """Index sets of the generators' common diagonal blocks, in order."""
    d = gens.dim
    linked = np.eye(d, dtype=bool) | np.any(
        [(M.mat != 0) | (M.mat.T != 0) for M in gens.matrices.values()], 0)
    least = np.arange(d)
    for _ in range(d):  # spread each component's least index along links
        least = np.where(linked, least, d).min(axis=1)
    return [np.flatnonzero(least == i) for i in np.unique(least)]


def _rungs(n: int) -> int:
    """The largest k <= n/2 with C(n, k) <= ``_COMPOUND_CAP``."""
    return max(k for k in range(n // 2 + 1)
               if math.comb(n, k) <= _COMPOUND_CAP)


def _capped(n: int) -> bool:
    """Whether a block of dimension n keeps more than one middle index
    past its top and bottom ``_rungs(n)``, which no compound reads."""
    return n - 2 * _rungs(n) > 1


def spectral_kernel(gens: GeneratorSet) -> dict:
    """The block dimensions and ``ladder`` or ``capped at k=K`` per block."""
    dims = [len(b) for b in _diagonal_blocks(gens)]
    return {"blocks": dims,
            "paths": [f"capped at k={_rungs(n)}" if _capped(n) else "ladder"
                      for n in dims]}


def _finite(S: np.ndarray, n: int, radius: int) -> np.ndarray:
    """``S``, the stacked products or compounds some rows of a block of
    dimension n read, if it is finite: LAPACK fails on the rest."""
    if not np.isfinite(S).all():
        raise FloatingPointError(
            f"word products overflow doubles in a block of dimension {n}; "
            f"the longest word has length {radius}")
    return S


def _compound_logs(letters: list, ball: Ball, reads, n: int) -> list:
    """Per (rows, _, _, top) of ``reads``, the (K-1, len(rows)) logs of
    the ``top`` spectrum value of the compounds of the ball's words,
    multiplied from ``letters`` (each letter's compounds, in code order)
    left to right along its prefix tree; ``n`` is the dimension of the
    block they come from."""
    sizes = [C.shape[0] for C in letters[0]]
    if not sizes:
        return [np.zeros((0, len(at))) for at, *_ in reads]
    step = max(1, _LADDER_BYTES // (8 * sum(c * c for c in sizes)))
    prefix, last, radius = ball.prefix, ball.last, ball.radius
    need = [np.isin(np.arange(len(prefix)), at) for at, *_ in reads]
    logs = [np.zeros((len(sizes), len(prefix))) for _ in reads]

    def walk(a, b, stacks):  # the compounds of the rows a:b
        for (*_, top), wanted, out in zip(reads, need, logs):
            sel = wanted[a:b]
            if sel.any():
                for t, S in zip(out, stacks):
                    t[a:b][sel] = np.log(
                        top(_finite(S[sel], n, radius))[:, 0])
        lo, hi = np.searchsorted(prefix, (a, b))  # their children
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            grown = [np.empty((stop - start, c, c)) for c in sizes]
            for code, compounds in enumerate(letters, 1):
                sel = last[start:stop] == code
                at = prefix[start:stop][sel] - a
                for G, S, L in zip(grown, stacks, compounds):
                    G[sel] = S[at] @ L
            walk(start, stop, grown)

    # an overflow leaves inf or nan entries, which _finite reports by name
    with np.errstate(over="ignore", invalid="ignore"):
        walk(0, 1, [np.eye(c)[None] for c in sizes])
    del walk  # it refers to itself: free its arrays now, not at a gc pass
    return [out[:, at] for (at, *_), out in zip(reads, logs)]


def ladder_logs(ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    """Descending (n, d) Cartan and Jordan vectors of the ball's elements.
    Cartan vectors are read on the elements' rows and their inverse words'
    rows, Jordan vectors once per class on the rows of its canonical
    cyclic word and of that word's inverse; the k = 1 rung of each block
    on the ball's ``products``, the others on compounds multiplied along
    its prefix tree."""
    gens, products = ball.gens, ball.products
    class_rows, inverse_rows, member = ball.classes
    reads = [(np.r_[ball.rows, ball.inverse_rows], len(ball), singular_values,
              lambda S: singular_values(S, top=True)),
             (np.r_[class_rows, inverse_rows], len(class_rows), eigen_moduli,
              lambda S: eigen_moduli(S)[:, :1])]
    vectors = [[], []]
    for B in _diagonal_blocks(gens):
        n, K, capped = len(B), _rungs(len(B)), _capped(len(B))
        P = products if n == gens.dim else products[:, B][:, :, B]
        letters = [gens.matrices[x].mat[np.ix_(B, B)] for x in ball.letters]
        ld = np.array([0.0, *(np.linalg.slogdet(L)[1] for L in letters)])
        idx = [np.array(wedge_indices(n, k)) for k in range(2, K + 1)]
        more = _compound_logs([[_wedge_coordinates(L, i, i) for i in idx]
                               for L in letters], ball, reads, n)
        for (at, m, spectrum, top), t, out in zip(reads, more, vectors):
            rows_at, back = np.unique(at, return_inverse=True)
            S = P if len(rows_at) == len(P) else P[rows_at]  # no full copy
            S = _finite(S, n, ball.radius)
            # a capped block reads the rest of its middle off the spectrum
            own = (spectrum(S) if capped else top(S))[back]
            ladder = np.diff(np.vstack([np.zeros(len(at)),
                                        np.log(own[:, 0]), t])
                             [:K + 1], axis=0)  # (K, len(at)): top K logs
            hi, lo = ladder[:, :m].T, -ladder[::-1, m:].T
            mid = np.zeros((m, 0))
            if n > 2 * K:  # the middle sums to the block's log|det|
                logdet = np.zeros(m)  # a block filling the space has unit
                if n < gens.dim:      # |det|; slogdet would add eps * cond
                    for column in ld[ball.codes[at[:m]]].T:
                        logdet += column  # left to right, as words read
                rest = logdet - hi.sum(axis=1) - lo.sum(axis=1)
                if capped:
                    # the log of the moduli read only: the bottom ones of
                    # a long word's rounded product may underflow to 0
                    mid = np.log(own[:m, K:n - K])
                    mid = mid + ((rest - mid.sum(axis=1))
                                 / mid.shape[1])[:, None]
                else:
                    mid = rest[:, None]
            out.append(np.hstack([hi, mid, lo]))
    # descending; adding 0.0 copies the reversed view and clears -0.0
    cartan, jordan = (np.sort(np.hstack(v))[:, ::-1] + 0.0 for v in vectors)
    return cartan, jordan[member]


def cartan_jordan(g) -> SpectralData:
    """Cartan and Jordan vectors (descending, sum 0) of a group element,
    or of a matrix as a one-letter word: the one element of a ball over
    the prefixes of its word, its inverse and their cyclic cores."""
    if isinstance(g, GroupElement):
        gens, word = g.gens, g.word
    else:
        gens, word = GeneratorSet.from_matrices({"a": g}), "a"
    core = canonical_cyclic(word)
    tree, rows = prefix_tree(gens, [word, inverse_word(word), core,
                                    inverse_word(core)])
    ball = Ball(gens, tree, _tree_products(gens, *tree), rows[:1])
    return SpectralData(mu=ball.cartan[0], lam=ball.jordan[0])


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


# a gap is linear when the fit of its per-length minima has a slope above
# SLOPE_MIN and an R^2 above R2_MIN; limit_samples warns on the same test
SLOPE_MIN = 0.05
R2_MIN = 0.9


def gap_profile(ball: Ball, k: int) -> GapProfile:
    """Per-length extrema of log(mu_k / mu_(k+1)) over the deduplicated
    ball, with a least-squares fit through the per-length minima.

    The verdict is positive iff the fit exists (>= 3 lengths), its slope
    exceeds ``SLOPE_MIN`` (0.05) and R^2 exceeds ``R2_MIN`` (0.9); a
    positive verdict is numerical evidence of a linear gap, not a
    certificate.
    """
    d = ball.gens.dim
    if not 1 <= k <= d - 1:
        raise ValueError(f"gap index k={k} out of range for dimension {d}")
    if ball.radius < 1:
        raise ValueError("radius must be >= 1")
    gaps = ball.cartan[:, k - 1] - ball.cartan[:, k]
    lengths = np.unique(ball.lengths[ball.lengths > 0])
    mins = np.array([gaps[ball.lengths == n].min() for n in lengths])
    maxs = np.array([gaps[ball.lengths == n].max() for n in lengths])
    if lengths.size >= 3:
        slope, intercept, r2 = linefit(lengths, mins)
        linear = slope > SLOPE_MIN and r2 > R2_MIN
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
    witness_gap: float  # the witness's Jordan gap log(lam_m / lam_(m+1))


# a Jordan gap of at most GAP_ZERO on the log scale is numerically zero:
# an element with such a (1, m) gap has no regularity ratio
GAP_ZERO = 1e-9


def _ratios(lam: np.ndarray, m: int, fill: float) -> np.ndarray:
    """(n,) regularity ratios (lam_1 - lam_(m+1)) / (lam_1 - lam_m) of the
    rows of Jordan vectors ``lam``, ``fill`` where the (1, m) gap is at
    most ``GAP_ZERO``."""
    top_gap = lam[:, 0] - lam[:, m - 1]
    return np.divide(lam[:, 0] - lam[:, m], top_gap,
                     out=np.full(len(lam), fill), where=top_gap > GAP_ZERO)


def alpha_m_estimate(ball: Ball, m: int) -> AlphaEstimate:
    """Infimum over ball elements of
    log(lam_1/lam_(m+1)) / log(lam_1/lam_m), skipping elements whose
    (1, m) eigenvalue gap is at most ``GAP_ZERO`` (1e-9) on the log
    scale, as :func:`spectral_table`'s ``ratio_m`` column does.

    The infimum over the whole group is truncated to the ball; the
    per-radius column makes convergence visible and ``converged`` flags
    whether the last two radii agree within 1e-6.  The witness is the
    shortest element whose ratio ties the infimum within a relative 1e-12;
    ``witness_gap`` is its (m, m+1) gap on the log scale, which is 0 for
    an element of infinite order only where the representation is not
    P_m-Anosov.
    """
    d = ball.gens.dim
    if not 2 <= m <= d - 1:
        raise ValueError(f"alpha index m={m} out of range for dimension {d}")
    ratios = np.where(ball.lengths > 0,
                      _ratios(ball.jordan, m, math.inf), math.inf)
    value = ratios.min()
    if value == math.inf:
        raise ValueError(
            "no infinite-order witness: no element has a (1, m) eigenvalue gap")
    best = int(np.argmax(ratios <= value * (1 + 1e-12)))
    # per-radius running infimum, monotone non-increasing
    radii = np.arange(1, ball.radius + 1)
    running = np.minimum.accumulate(
        [ratios[ball.lengths == r].min(initial=math.inf) for r in radii])
    per_radius = np.column_stack(
        [radii, np.where(running < math.inf, running, np.nan)])
    tail = per_radius[~np.isnan(per_radius[:, 1]), 1]
    converged = tail.size >= 2 and abs(tail[-1] - tail[-2]) <= 1e-6
    return AlphaEstimate(m=m, value=value, witness=ball[best],
                         per_radius=per_radius, converged=converged,
                         witness_gap=float(ball.jordan[best, m - 1]
                                           - ball.jordan[best, m]))


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


def spectral_table(ball: Ball, m: int | None = None
                   ) -> tuple[list[str], list, np.ndarray]:
    """The (header, columns, values) table of per-element spectra for CSV
    export: ``columns`` holds the elements' words, the identity's written
    ``<id>``, and the int array of their lengths; ``values`` the (n, 2d)
    or (n, 2d + 1) float block of the Cartan and Jordan log-vectors and,
    if m is given, the m-th regularity ratio, NaN where the (1, m) gap is
    at most ``GAP_ZERO`` (1e-9), whose least value over the elements of
    positive length is :func:`alpha_m_estimate`'s."""
    d = ball.gens.dim
    header = ["word", "length", *(f"mu_{i}" for i in range(1, d + 1)),
              *(f"lambda_{i}" for i in range(1, d + 1))]
    blocks = [ball.cartan, ball.jordan]
    if m is not None:
        header.append("ratio_m")
        blocks.append(_ratios(ball.jordan, m, math.nan)[:, None])
    words = ball.words_of(slice(None))
    ids = np.count_nonzero(ball.lengths == 0)  # first, in ball order
    words[:ids] = ["<id>"] * ids
    return header, [words, ball.lengths], np.hstack(blocks)
