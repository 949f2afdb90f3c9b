"""Sampling limit sets and flag maps from attracting data of ball
elements, and testing the boundary axioms: transversality, the
controlled-set condition, hyperconvexity, and an irreducibility proxy.

A :class:`FlagSample` is a witness element together with the flags of its
two fixed boundary points: attracting data of the element at the plus
point, attracting data of its inverse at the minus point (the repelling
flags of the element itself, computed stably from the inverse).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, fields
from functools import cached_property, reduce

import numpy as np

from .functors import Representation
from .groups import Ball, GroupElement, _sorted_lifts, enumerate_ball
from .linalg import (GAP_TOL, MatrixD, Subspace, _readonly, _residuals,
                     _row_norms, _sines, orthonormalize)
# perfbench/selftest.py checks that its tracer patches this cartan_jordan
from .spectra import cartan_jordan, gap_profile  # noqa: F401

__all__ = [
    "FlagSample",
    "LimitCloud",
    "limit_samples",
    "transversality_scan",
    "hyperconvexity_scan",
    "controlled_set_check",
    "irreducibility_proxy",
    "TransversalityReport",
    "HyperconvexityReport",
    "ControlledSetReport",
    "IrreducibilityReport",
]

DEFAULT_FLAG_DEDUP_TOL = 1e-7


@dataclass(frozen=True)
class FlagSample:
    """Flags attached to the fixed points of one witness element."""

    witness: GroupElement
    xi1_plus: Subspace       # attracting line of the witness
    xim_plus: Subspace       # attracting m-subspace of the witness
    xi_dm_minus: Subspace    # attracting (d-m)-subspace of the inverse
    xi_d1_minus: Subspace    # attracting hyperplane of the inverse
    xi1_minus: Subspace      # attracting line of the inverse (minus point)


@dataclass(frozen=True)
class LimitCloud:
    """Flag samples of a limit set, with the flag index m and the recipe
    of the representation.  The scans read the cloud's array form:
    ``frames``, ``lines`` and ``words``, each built on first use and
    read-only.  ``lines`` is the one point array: every distance of or to
    a sampled point reads its rows.

    :func:`limit_samples` passes ``stacks``, the read-only frame stacks
    that its samples' frames are views of, which serve as ``frames``; a
    cloud built from samples alone stacks their frames, to the same
    bits."""

    samples: tuple[FlagSample, ...]
    m: int
    rep_recipe: dict
    stacks: InitVar[dict[str, np.ndarray] | None] = None

    def __post_init__(self, stacks):
        if stacks is not None:
            self.__dict__["frames"] = stacks  # the cached frames

    def __len__(self) -> int:
        return len(self.samples)

    @cached_property
    def frames(self) -> dict[str, np.ndarray]:
        """Flag name (a field of :class:`FlagSample`) -> the (n, d, k)
        stack of the samples' orthonormal frames of that flag."""
        return {f.name: _readonly(np.stack([getattr(s, f.name).frame
                                            for s in self.samples]))
                for f in fields(FlagSample)[1:]}

    @cached_property
    def lines(self) -> np.ndarray:
        """(2, n, d) unit representatives of the plus and the minus points,
        each row divided by its own norm as ``proj_distance`` and
        ``point_subspace_distance`` normalize a line, so a sub-cloud's
        rows are the matching rows of its parent's."""
        F = self.frames
        return _readonly([V / _row_norms(V)[:, None] for V in (
            F["xi1_plus"][:, :, 0], F["xi1_minus"][:, :, 0])])

    def complement(self, name: str) -> np.ndarray:
        """The read-only (n, d, d - k) stack of orthonormal complements of
        the frames of flag ``name``, computed once per cloud, on first
        use: the transversality scan and the controlled-set check share the
        hyperplanes' normals."""
        cache = self.__dict__.setdefault("_complements", {})
        if name not in cache:
            # the SVD's own view, not a contiguous copy: a contiguous
            # (n, d, 1) stack flattens to a view that numpy hands BLAS
            # transposed, which rounds some margins' last bit otherwise
            cache[name] = _complements(self.frames[name])
            cache[name].flags.writeable = False
        return cache[name]

    @cached_property
    def words(self) -> np.ndarray:
        """(n,) witness words of the samples."""
        words = np.array([s.witness.word for s in self.samples], dtype=str)
        words.flags.writeable = False
        return words

    def coverage_stats(self) -> dict:
        """Nearest-neighbour spacing of the sampled points: how densely
        the cloud covers the limit set at this radius.  Descriptive only;
        there is no theoretical coverage guarantee.

        A projection search (Friedman, Baskett & Shustek, IEEE Trans.
        Comput. 24, 1975) over the sorted lifts +-q of
        :func:`groups._sorted_lifts` steps k = 1, 2, ... positions to each
        side of the lift +p, keeping the least residual sine
        ``_sines(p, q)`` of another point q.  A sine s puts one of +-q
        within sqrt(2) s of p, so a side closes at an end of the order or
        at its first lift whose projection gap exceeds sqrt(2) |w| s, for
        the least s so far plus its rounding, and both lifts' slack: the
        search ends within 2n steps with the all-pairs minimum."""
        n = len(self)
        if n < 2:
            return {"n": n, "nn_max": math.nan, "nn_mean": math.nan,
                    "nn_min": math.nan}
        pts = self.lines[0]
        w, lift, swept, slack = _sorted_lifts(pts)
        reach = math.sqrt(2.0) * np.linalg.norm(w)
        fuzz = 4 * pts.shape[1] * np.finfo(float).eps  # of a residual sine
        at = np.argsort(lift)[:n]  # the sorted position of each lift +p
        nn = np.full(n, math.inf)
        rows, pos = np.tile(np.arange(n), 2), np.tile(at, 2)
        step = np.repeat([-1, 1], n)
        while rows.size:
            pos = pos + step
            live = (pos >= 0) & (pos < 2 * n)
            rows, pos, step = rows[live], pos[live], step[live]
            q = lift[pos] % n
            live = (np.abs(swept[pos] - swept[at[rows]])
                    <= reach * (nn[rows] + fuzz) + slack[rows] + slack[q])
            rows, pos, step, q = rows[live], pos[live], step[live], q[live]
            other = q != rows
            np.minimum.at(nn, rows[other],
                          _sines(pts[rows[other]], pts[q[other]]))
        return {"n": n, "nn_max": float(nn.max()),
                "nn_mean": float(nn.mean()), "nn_min": float(nn.min())}


def _moved(stack: np.ndarray, codes: np.ndarray,
           frames: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the spans of ``M(w_n) frames[n]``, where M(w)
    is the product along w of the letter matrices of ``stack``, the
    identity and then the letters in code order, and ``codes`` holds the
    words' code rows (see :class:`Ball`).  The letters act one at a time,
    the last first: one stacked matmul and QR per letter position.

    The rounded product M(w) carries an absolute error of about
    eps * |M(w)|, which a flag that M(w) stretches far less than its norm
    (a middle rank) does not survive: moved by the rounded M(P), the
    exact tau_7 3-planes of the radius-5 ball are off by up to 7e-7,
    moved letter by letter by 5e-14."""
    for t in reversed(range(codes.shape[1])):
        frames = np.linalg.qr(stack[codes[:, t]] @ frames)[0]
    return frames


def _signed(U: np.ndarray) -> np.ndarray:
    """A stack of frames with ``orthonormalize``'s sign convention: the
    largest-|entry| coordinate of each column positive."""
    top = np.take_along_axis(U, np.abs(U).argmax(axis=1)[:, None], axis=1)
    return np.where(top < 0, -U, U)


def _top_frames(mats: np.ndarray, rank: int) -> np.ndarray:
    """(n, d, rank) nested orthonormal frames of the top ``rank``
    eigenvectors by modulus of a stack of (n, d, d) matrices: one stacked
    ``eig``, the eigenvectors ordered by |lambda| (a stable sort), a real
    basis and one stacked QR.  The basis takes Re v for the member of a
    conjugate pair with positive imaginary part, which LAPACK lists first,
    and Im v for its partner, so with a gap at k the leading k columns
    span the real k-plane of the top k eigenvectors, at every k."""
    w, V = np.linalg.eig(mats)
    order = np.argsort(-np.abs(w), axis=-1, kind="stable")[:, :rank]
    w = np.take_along_axis(w, order, axis=1)[:, None, :]
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    return np.linalg.qr(np.where(w.imag < 0, V.imag, V.real))[0]


class _ClassFlags:
    """Attracting flags of ball elements, extracted once per conjugacy
    class and transported along the reduced conjugators.

    ``flags`` lists the flags wanted as ``(side, rank)``: ``("+", r)`` is
    the attracting r-flag of an element w, ``("-", r)`` that of w^-1.  The
    kept elements, ``index`` in ball order, are those whose class has a
    gap at r for each ``+`` flag and at d - r, the gap of w^-1 at r, for
    each ``-`` flag (see :func:`_proximal`).

    For ``w = P c P^-1 = Q c Q^-1`` (see :meth:`Ball.conjugators`) the
    attracting flags of w are M(P) times those of the class word c, and
    those of w^-1 are M(Q) times those of c^-1.  A flag of rank r <= d/2
    is the span of the leading r columns of a nested frame of A = M(c)
    (``+``) or B = M(c^-1) (``-``), moved along the conjugator.  A flag of
    rank r > d/2 is the orthogonal complement of the leading d - r columns
    of a nested frame of ``Bt`` = B^T (``+``) or ``At`` = A^T (``-``),
    moved along the conjugator by the letters' inverse transposes (the
    product M(conjugator)^-T).  So every extraction is at the top of a
    spectrum.  Since ``P c`` and ``Q c^-1`` are reduced, M(P) does not
    contract the attracting flags of c, nor M(Q) those of c^-1.

    Each source gets one stacked start over the classes, at the largest
    rank read from it (see :func:`_top_frames`), refined by three sweeps
    of orthogonal iteration along the source's letters (M(c)^T =
    M(c^-1)^-T: At along c^-1 and Bt along c, with the inverse
    transposes), then moved along the conjugators' letters (see
    :func:`_moved`).  A and Bt read c and P, B and At read c^-1 and Q,
    as code rows gathered by the ball, and each letter stack is built
    once, in code order.  The leading columns of an orthogonal iteration
    are an orthogonal iteration of their own (Golub & Van Loan, Matrix
    Computations, 7.3), so one nested frame serves every rank read from
    its source.  ``eig`` tests no gap, and the start orders the
    eigenvectors by the eigenvalue moduli of the rounded products, which
    need not be separated where the exact ones are: a start ordered
    wrongly there has to be recovered by the sweeps, and nothing else
    checks it.
    """

    def __init__(self, ball, flags: list[tuple[str, int]]):
        d = ball.gens.dim
        self.index = _proximal(ball, [r if side == "+" else d - r
                                      for side, r in flags])
        class_rows, inverse_rows, member = ball.classes
        classes, self._class = np.unique(member[self.index],
                                         return_inverse=True)
        fwd, bwd = class_rows[classes], inverse_rows[classes]
        mats = ball.gens.matrices
        stack = np.array([np.eye(d), *(mats[x].mat for x in ball.letters)])
        # the letters' inverse transposes, in the same code order
        duals = np.array([np.eye(d), *(mats[x.swapcase()].mat.T
                                       for x in ball.letters)])
        c, x = ball.codes_of(fwd), ball.codes_of(bwd)
        P, Q = ball.conjugators(self.index)
        # flag -> its source and the leading columns read from it
        self._flags = [("A" if side == "+" else "B", r) if 2 * r <= d
                       else ("Bt" if side == "+" else "At", d - r)
                       for side, r in flags]
        # source -> its letter stack, class words' and conjugators' codes
        self._route = {"A": (stack, c, P), "B": (stack, x, Q),
                       "At": (duals, x, Q), "Bt": (duals, c, P)}
        A, B = ball.products[fwd], ball.products[bwd]
        sources = {"A": A, "B": B, "At": A.transpose(0, 2, 1),
                   "Bt": B.transpose(0, 2, 1)}
        self._frames = {}
        for src in sorted({src for src, _ in self._flags}):
            frames = _top_frames(sources[src], max(
                k for s, k in self._flags if s == src))
            for _ in range(3):
                frames = _moved(*self._route[src][:2], frames)
            self._frames[src] = frames

    def _move(self, src: str, rows) -> np.ndarray:
        """The frames of ``src`` moved along the conjugators of the kept
        elements at positions ``rows``."""
        stack, _, codes = self._route[src]
        return _moved(stack, codes[rows], self._frames[src][self._class[rows]])

    @cached_property
    def _lead(self) -> np.ndarray:
        """The first flag's source moved for every kept element."""
        return self._move(self._flags[0][0], slice(None))

    def _read(self, moved: np.ndarray, src: str, k: int) -> np.ndarray:
        return _signed(_complements(moved[..., :k]) if src.endswith("t")
                       else moved[..., :k])

    def first(self) -> np.ndarray:
        """(n, d, rank) frames of the first flag of every kept element."""
        return self._read(self._lead, *self._flags[0])

    def __call__(self, rows=slice(None)) -> list[np.ndarray]:
        """(len(rows), d, rank) orthonormal frames of the kept elements at
        positions ``rows`` (all by default), one stack per flag in the
        given order, with ``orthonormalize``'s sign convention.  The first
        flag's source is moved once for every element (see
        :meth:`first`), each other source once for ``rows`` alone: a
        stacked move treats each frame on its own, so the frames equal
        the rows of a move of every element."""
        lead = self._flags[0][0]
        moved = {src: self._lead[rows] if src == lead
                 else self._move(src, rows) for src in self._frames}
        return [self._read(moved[src], src, k) for src, k in self._flags]


def _proximal(ball, ks) -> np.ndarray:
    """Ball indices of the non-identity elements whose class has a
    relative eigenvalue-modulus gap above ``GAP_TOL`` at every index k of
    ``ks`` (read from ``ball.jordan``)."""
    lam = ball.jordan
    keep = ball.lengths > 0
    for k in ks:
        keep &= lam[:, k - 1] - lam[:, k] > math.log1p(GAP_TOL)
    return np.flatnonzero(keep)


# Rows per block of the line dedup, whose cosines within a block are one
# (128, 128) GEMM
_DEDUP_ROWS = 128


def _dedup(points: np.ndarray, tol: float) -> list[int]:
    """Positions of the kept rows of the (n, d) unit rows ``points``, in
    order: a row is kept unless ``proj_distance`` puts an earlier kept row
    within ``tol`` of it.  A pair is screened by its cosine, ``|cos| >
    near`` for near^2 = 1 - tol^2 - ``_BAND``, and decided by the residual
    sine of ``linalg._sines``: near 1 a cosine resolves a sine of 1e-7 to
    about 20 ulps of 1.

    The rows go in blocks of ``_DEDUP_ROWS``.  A block's rows are first
    checked against the kept rows of earlier blocks, through a window on
    the sorted lifts +-k of the kept rows (see :func:`groups._sorted_lifts`
    and :meth:`LimitCloud.coverage_stats`): a sine s puts one of +-k within
    sqrt(2) s of the row, so the window reaches sqrt(2) |w| (tol + fuzz)
    plus the row's slack and the largest slack to either side of the row's
    projection, the fuzz covering the rounding of the sine and of the
    window's ends.  The block's other rows are screened against each
    other by one GEMM of cosines and decided in row order, each dropping
    only when an earlier kept row confirms.  Then the block's kept lifts
    join the sorted index.  Kept rows are tol apart, so a window holds few
    of them at any tol."""
    n, d = points.shape
    near = math.sqrt(max(0.0, 1.0 - tol * tol - _BAND))
    w, lift, swept, slack = _sorted_lifts(points)
    at = np.empty(2 * n, dtype=np.intp)  # the sorted position of each lift
    at[lift] = np.arange(2 * n)
    fuzz = 4 * d * np.finfo(float).eps
    reach = (math.sqrt(2.0) * np.linalg.norm(w) * (tol + fuzz)
             + slack.max(initial=0.0))
    index = np.empty(0, dtype=np.intp)  # sorted positions of the kept lifts
    kept: list[int] = []
    for lo in range(0, n, _DEDUP_ROWS):
        rows = np.arange(lo, min(lo + _DEDUP_ROWS, n))
        if index.size:
            proj, half = swept[at[rows]], reach + slack[rows]
            known = swept[index]
            found = np.searchsorted(known, proj - half)
            c = np.searchsorted(known, proj + half, side="right") - found
            # each row against the kept lifts found .. found + c - 1
            t = np.repeat(rows, c)
            k = lift[index[np.arange(c.sum()) + np.repeat(
                found - np.cumsum(c) + c, c)]] % n
            close = np.abs(np.einsum("ij,ij->i", points[k], points[t])) > near
            k, t = k[close], t[close]
            live = np.ones(len(rows), dtype=bool)
            live[t[_sines(points[k], points[t]) < tol] - lo] = False
            rows = rows[live]
        S = points[rows]
        i, j = np.nonzero(np.abs(S @ S.T) > near)
        i, j = i[i < j], j[i < j]
        confirmed = _sines(S[i], S[j]) < tol
        drop: set[int] = set()
        for later, earlier in sorted(zip(j[confirmed].tolist(),
                                         i[confirmed].tolist())):
            if earlier not in drop:
                drop.add(later)
        rows = np.delete(rows, list(drop))
        kept += rows.tolist()
        new = np.sort(np.concatenate([at[rows], at[rows + n]]))
        index = np.insert(index, np.searchsorted(index, new), new)
    return kept


def limit_samples(rep: Representation, m: int, radius: int,
                  dedup_tol: float = DEFAULT_FLAG_DEDUP_TOL) -> LimitCloud:
    """Flags of the attracting fixed points of all proximal elements of the
    ball of ``radius``; the cloud records the recipe of ``rep``.

    The samples are the flags (+, 1), (+, m), (-, d-m), (-, d-1) and
    (-, 1) of :class:`_ClassFlags`: ``+`` flags are the element's, ``-``
    flags those of its inverse.  So elements need eigenvalue-modulus gaps
    at indices 1, m and d-1, read from the class spectrum ``ball.jordan``.
    The flags are extracted once per conjugacy class, from the matrices of
    its canonical cyclic word c and of c^-1, as one nested frame per
    source: a stacked ``eig`` start refined by three sweeps along the
    class word, then transported to each element along reduced
    conjugators.

    Samples whose limit points are within ``dedup_tol`` by
    ``proj_distance`` are merged (see :func:`_dedup`), keeping the first
    witness in ball order (the shortest), so
    ``dedup_tol`` acts as the spatial resolution of the cloud.  Only the
    lines take part in the dedup, so they are moved for every element
    and the other flags for the kept ones alone.  The cloud's ``frames``
    are those stacks, read-only, and each sample's frames are views of
    them; the witnesses are built from one gather of ``ball.rows``, their
    words formatted by :meth:`Ball.words_of`.
    """
    d = rep.dim
    if not 1 <= m <= d - 1:
        raise ValueError(f"flag index m={m} out of range for dimension {d}")
    ball = enumerate_ball(rep.generators, radius)
    for k in sorted({1, m}):
        profile = gap_profile(ball, k)
        if not profile.linear:
            warnings.warn(
                f"gap profile at k={k} is not certified linear "
                f"({profile.verdict}); limit samples may be unreliable",
                stacklevel=2)
    flags = _ClassFlags(ball, [("+", 1), ("+", m), ("-", d - m),
                               ("-", d - 1), ("-", 1)])
    kept = _dedup(flags.first()[:, :, 0], dedup_tol)
    if not kept:
        raise ValueError("no proximal elements found in the ball")
    stacks = [_readonly(F) for F in flags(kept)]
    index = flags.index[kept]
    witnesses = [GroupElement(w, MatrixD(ball.products[r]), ball.gens)
                 for w, r in zip(ball.words_of(index),
                                 ball.rows[index].tolist())]
    samples = tuple(map(FlagSample, witnesses,
                        *(map(Subspace, F) for F in stacks)))
    return LimitCloud(samples, m, rep.recipe, dict(zip(
        [f.name for f in fields(FlagSample)[1:]], stacks)))


# Byte budget of the float temporaries of one block of the pair scans (the
# cosines behind the sep_tol test, the per-pair products of frames, the
# margins) and of one batch of drawn triples; between blocks only the
# (n, d, k) per-sample stacks and 1-D per-triple arrays stay alive.  Each
# scan states its bytes per pair from the floats a pair holds: 8 (d + 8)
# for the controlled-set distances, 8 (floats_m + floats_1 + 16) for the
# transversality margins (see :class:`_FlagPair`), 224 B at d = 4, m = 2.
_PAIR_BYTES = 256 << 10

# Half-width of the band in which a scan recomputes a value screened from
# one GEMM with the residual formula of ``linalg`` before deciding on it:
# around sep_tol^2 for the squared sines 1 - cos^2, around the least
# distance and the violation threshold for the controlled-set distances.
# Screened and residual values of unit rows differ by a few ulps of 1.
_BAND = 1e-12


def _chunks(n_items: int, item_bytes: int):
    """Slices of ``range(n_items)`` whose float temporaries of
    ``item_bytes`` per item fit in ``_PAIR_BYTES`` (at least one item)."""
    step = max(1, _PAIR_BYTES // item_bytes)
    return (slice(start, start + step) for start in range(0, n_items, step))


def _blocks(n: int, item_bytes: int):
    """(rows, cols) slices of the (n, n) grid of ordered pairs, in
    row-major order, whose float temporaries of ``item_bytes`` per pair fit
    in ``_PAIR_BYTES``: whole rows while one fits, else pieces of one row
    (at least one pair).  ``item_bytes`` is the scan's own count of the
    floats a pair holds, so a scan of fewer floats per pair takes fewer,
    larger blocks."""
    per = max(1, _PAIR_BYTES // item_bytes)
    if per >= n:
        step = per // n
        for start in range(0, n, step):
            yield slice(start, min(start + step, n)), slice(0, n)
        return
    for row in range(n):
        for start in range(0, n, per):
            yield slice(row, row + 1), slice(start, min(start + per, n))


def _complements(F: np.ndarray) -> np.ndarray:
    """(n, d, d - k) orthonormal complements of a stack of (n, d, k)
    orthonormal frames."""
    return np.linalg.svd(F)[0][..., F.shape[2]:]


def _separated(P: np.ndarray, Q: np.ndarray, sep_tol: float,
               below: float = math.inf) -> np.ndarray:
    """Boolean (r, c) mask of ``sep_tol <= proj_distance(P[a], Q[b]) <
    below`` for unit rows: the squared sines 1 - cos^2 from one GEMM of
    cosines, and the orthogonal residual ``_sines(P[a], Q[b])`` for the
    pairs within ``_BAND`` of sep_tol^2 or below^2, so the mask equals the
    residual test's."""
    cos = P @ Q.T
    sine2 = 1.0 - cos * cos
    keep = sine2 >= sep_tol * sep_tol
    band = np.abs(sine2 - sep_tol * sep_tol) <= _BAND
    if below < math.inf:
        keep &= sine2 < below * below
        band |= np.abs(sine2 - below * below) <= _BAND
    a, b = np.nonzero(band)
    if a.size:
        dp = _sines(P[a], Q[b])
        keep[a, b] = (dp >= sep_tol) & (dp < below)
    return keep


def _kept_blocks(plus: np.ndarray, minus: np.ndarray, sep_tol: float,
                 item_bytes: int):
    """Blocks ``(rows, cols, keep)`` of the ordered pairs (x, y) of a
    cloud (see :func:`_blocks`); ``keep`` marks the pairs whose plus point
    of x and minus point of y are at least ``sep_tol`` apart."""
    for rows, cols in _blocks(len(plus), item_bytes):
        yield rows, cols, _separated(plus[rows], minus[cols], sep_tol)


def _sigma_max(G: np.ndarray) -> np.ndarray:
    """(r, c) largest singular values of the p x q blocks of a (p, q, r, c)
    entry-major grid (see :class:`_PairProducts`).  With k = min(p, q):
    for k = 1 a norm, for k = 2 the larger eigenvalue of the 2 x 2 Gram
    matrix (its diagonal a sum of non-negative terms), each from
    elementwise sums over the entries, in order; for k >= 3 a stacked
    SVD."""
    if G.shape[0] > G.shape[1]:
        G = G.transpose(1, 0, 2, 3)
    if G.shape[0] == 1:
        return np.sqrt(reduce(np.add, G[0] * G[0]))
    if G.shape[0] == 2:
        a, e = reduce(np.add, (G * G).transpose(1, 0, 2, 3))
        b = reduce(np.add, G[0] * G[1])
        return np.sqrt(0.5 * (a + e) + np.hypot(0.5 * (a - e), b))
    return np.linalg.svd(G.transpose(2, 3, 0, 1), compute_uv=False)[..., 0]


def _sigma_min(G: np.ndarray) -> np.ndarray:
    """(r, c) k-th singular values, k = min(p, q), of the p x q blocks of a
    (p, q, r, c) entry-major grid.  For k = 2 this is vol / sigma_max, with
    vol^2 the sum of the squared 2 x 2 minors (|det| for a square block),
    each accurate to rounding; a zero block gives 0.  For k >= 3 a stacked
    SVD."""
    if G.shape[0] > G.shape[1]:
        G = G.transpose(1, 0, 2, 3)
    k, width = G.shape[:2]
    if k == 1:
        return np.abs(G[0, 0]) if width == 1 else _sigma_max(G)
    if k == 2:
        u, v = G
        vol = np.sqrt(reduce(np.add, [
            (u[a] * v[b] - u[b] * v[a]) ** 2
            for a in range(width) for b in range(a + 1, width)]))
        # top = 0 only where every entry squares to 0, and so do the
        # minors: those blocks give 0 / 5e-324 = 0
        return vol / np.maximum(_sigma_max(G), 5e-324)
    return np.linalg.svd(G.transpose(2, 3, 0, 1),
                         compute_uv=False)[..., k - 1]


class _PairProducts:
    """The products L_a^T R_b of a stack of (n, d, p) frames L and a stack
    of (n, d, q) frames R, a block of pairs at a time, entry-major: a
    (p, q, r, c) array whose entry [i, j] is the contiguous (r, c) grid of
    the dot products of column i of L_a and column j of R_b.  Both stacks
    are flattened once; a block is one GEMM and one copy into that
    layout.  ``floats`` is the number of entries per pair, p * q."""

    def __init__(self, L: np.ndarray, R: np.ndarray):
        self._p, self._q = L.shape[2], R.shape[2]
        self.floats = self._p * self._q
        self._L = L.transpose(0, 2, 1).reshape(-1, L.shape[1])
        self._R = R.transpose(1, 0, 2).reshape(R.shape[1], -1)

    def __call__(self, rows: slice, cols: slice) -> np.ndarray:
        p, q = self._p, self._q
        G = (self._L[rows.start * p:rows.stop * p]
             @ self._R[:, cols.start * q:cols.stop * q])
        return np.ascontiguousarray(G.reshape(
            rows.stop - rows.start, p, cols.stop - cols.start,
            q).transpose(1, 3, 0, 2))


class _FlagPair:
    """Direct-sum margins ``sigma_min([X_a | Y_b])`` of the pairs of a
    stack of (n, d, p) frames X and a stack of (n, d, q) frames Y, p + q
    <= d (q = d - p for flags), by blocks of pairs.

    [X Y]^T [X Y] has the eigenvalues 1 +- cos(theta_i) and 1, for the
    principal angles theta_i between the two spans (Björck & Golub, Math.
    Comp. 27, 1973), so the margin is sqrt(1 - c) = s / sqrt(1 + c) with
    c = cos(theta_1) = sigma_max(X^T Y) and s = sin(theta_1).  The sine
    form keeps the margin's absolute accuracy near zero (Knyazev &
    Argentati, SIAM J. Sci. Comput. 23, 2002).  With k = min(p, q), s is
    the k-th singular value of X^T Y' for the complement Y' of Y when
    p <= q, else of X'^T Y for the complement X' of X: a k x k block for
    flags.  ``complement`` is that Y' or X', computed when not given.

    ``floats`` is the number of float entries a pair's two products hold:
    k^2 sine entries and p * q cosine entries, for flags."""

    def __init__(self, X: np.ndarray, Y: np.ndarray,
                 complement: np.ndarray | None = None):
        swap = X.shape[2] > Y.shape[2]
        if complement is None:
            complement = _complements(X if swap else Y)
        self._sine = (_PairProducts(complement, Y) if swap
                      else _PairProducts(X, complement))
        self._cos = _PairProducts(X, Y)
        self.floats = self._sine.floats + self._cos.floats

    @classmethod
    def of(cls, cloud: LimitCloud, x: str, y: str) -> _FlagPair:
        """The pair of the cloud's flags ``x`` and ``y``, with the cloud's
        complement (see :meth:`LimitCloud.complement`)."""
        X, Y = cloud.frames[x], cloud.frames[y]
        return cls(X, Y, cloud.complement(x if X.shape[2] > Y.shape[2]
                                          else y))

    def __call__(self, rows: slice, cols: slice) -> np.ndarray:
        s = _sigma_min(self._sine(rows, cols))
        c = _sigma_max(self._cos(rows, cols))
        return s / np.sqrt(1.0 + c)


def _margins(*stacks: np.ndarray) -> np.ndarray:
    """``direct_sum_margin`` of each row of frame stacks (c, d, k_i): one
    batched SVD of the frames concatenated in the same column order."""
    return np.linalg.svd(np.concatenate(stacks, axis=2),
                         compute_uv=False)[:, -1]


def _first_below(values: np.ndarray, best: float) -> int | None:
    """Position of the first least value of a chunk if it beats ``best``:
    chunk by chunk, the item a scan keeping the first strict minimum
    keeps."""
    t = int(np.argmin(values))
    return t if values[t] < best else None


def _least_kept(values: np.ndarray, keep: np.ndarray, best: tuple,
                rows: slice, cols: slice) -> tuple:
    """``best``, a ``(value, (x, y))`` pair, or the first least kept value
    of a block in row-major order with its pair if that beats it."""
    masked = np.where(keep, values, math.inf)
    t = _first_below(masked.reshape(-1), best[0])
    if t is None:
        return best
    a, b = divmod(t, masked.shape[1])
    return float(masked[a, b]), (rows.start + a, cols.start + b)


def _pair_words(cloud: LimitCloud, pair) -> tuple[str, str]:
    """The witness words of a pair of sample indices, ("", "") for none."""
    if pair is None:
        return "", ""
    return tuple(cloud.words[list(pair)].tolist())


@dataclass(frozen=True)
class TransversalityReport:
    min_margin_m: float
    worst_pair_m: tuple[str, str]
    min_margin_1: float
    worst_pair_1: tuple[str, str]
    n_pairs: int


def _transversality_blocks(cloud: LimitCloud, sep_tol: float):
    """Blocks ``(rows, cols, keep, margin_m, margin_1)`` of the pair grid
    of :func:`transversality_scan`: the (r, c) margins of xi^(m)(x)
    against xi^(d-m)(y) and of xi^(1)(x) against xi^(d-1)(y), for x in
    ``rows`` and y in ``cols``, and the mask of the pairs it keeps."""
    flags_m = _FlagPair.of(cloud, "xim_plus", "xi_dm_minus")
    flags_1 = _FlagPair.of(cloud, "xi1_plus", "xi_d1_minus")
    for rows, cols, keep in _kept_blocks(
            *cloud.lines, sep_tol, 8 * (flags_m.floats + flags_1.floats + 16)):
        yield rows, cols, keep, flags_m(rows, cols), flags_1(rows, cols)


def transversality_scan(cloud: LimitCloud,
                        sep_tol: float = 1e-3) -> TransversalityReport:
    """Minimum direct-sum margins over ordered pairs of distinct samples:
    xi^(m)(x) against xi^(d-m)(y), and xi^(1)(x) against xi^(d-1)(y).

    The y-flags live at the minus point of y's witness.  Pairs of
    boundary points closer than ``sep_tol`` are skipped: transversality
    is a condition on distinct points, and the margin degenerates
    continuously (quadratically, at a tangency) as they collide.

    The margin ``sigma_min([X Y])`` of two complementary flags is
    ``s / sqrt(1 + c)``, with c the cosine and s the sine of their least
    principal angle (see :class:`_FlagPair`): for the line x against the
    hyperplane with unit normal n_y, s = |x . n_y| and c the norm of x's
    projection on the hyperplane.  It agrees with ``direct_sum_margin``
    to rounding.  The pairs are evaluated a block at a time (see
    :func:`_blocks`), separation test included, each block's products
    entry-major (see :class:`_PairProducts`) so that the closed forms
    for k <= 2 are elementwise sums over contiguous grids.  A block is
    sized by the floats a pair holds, 8 (floats_m + floats_1 + 16) bytes
    (224 at d = 4, m = 2; 176 at d = 3): beyond the (n, d, k) per-sample
    frame stacks and the cloud's complements, memory stays within a few
    block temporaries of ``_PAIR_BYTES`` (256 KiB) each."""
    if len(cloud) < 2:
        raise ValueError("need at least 2 samples")
    best_m = best_1 = (math.inf, None)
    n = 0
    for rows, cols, keep, marg_m, marg_1 in _transversality_blocks(
            cloud, sep_tol):
        n += int(np.count_nonzero(keep))
        best_m = _least_kept(marg_m, keep, best_m, rows, cols)
        best_1 = _least_kept(marg_1, keep, best_1, rows, cols)
    return TransversalityReport(
        min_margin_m=best_m[0], worst_pair_m=_pair_words(cloud, best_m[1]),
        min_margin_1=best_1[0], worst_pair_1=_pair_words(cloud, best_1[1]),
        n_pairs=n)


@dataclass(frozen=True)
class HyperconvexityReport:
    min_margin: float
    worst_triple: tuple[str, str, str]
    margins: np.ndarray
    n_evaluated: int


def hyperconvexity_scan(cloud: LimitCloud, n_triples: int = 500,
                        seed: int = 0,
                        sep_tol: float = 1e-3) -> HyperconvexityReport:
    """Minimum of direct_sum_margin(xi^(1)(x), xi^(1)(z), xi^(d-m)(y))
    over seeded random triples of pairwise-distinct boundary points, for
    the cloud's m.

    x and z are plus points of two samples, y the minus point of a third;
    triples with any pairwise distance below ``sep_tol`` are resampled
    (the margin degenerates continuously as points collide), at most
    2000 draws per requested triple.

    Candidates are drawn in batches of ``rng.integers(0, n, (B, 3))``,
    the same stream as B draws of three, and only the drawn pairs are
    tested for separation, with ``proj_distance``'s residual; a batch
    holds at most ``_PAIR_BYTES`` (256 KiB) of temporaries.  The margins
    of the accepted triples come after the draws from one batched SVD
    per chunk, bit-identical to ``direct_sum_margin`` triple by triple.
    """
    if cloud.m < 2:
        raise ValueError("hyperconvexity scan requires m >= 2")
    if len(cloud) < 3:
        raise ValueError("need at least 3 samples")
    rng = np.random.default_rng(seed)
    n = len(cloud)
    plus, minus = cloud.lines
    triples = np.empty((n_triples, 3), dtype=np.intp)
    count = 0
    tries = 0
    max_tries = 2000 * n_triples
    batch = max(1, _PAIR_BYTES // (plus.itemsize * 8 * plus.shape[1]))
    while count < n_triples:
        if tries >= max_tries:
            raise ValueError(
                f"cannot find {n_triples} separated triples "
                f"(sep_tol={sep_tol}); got {count}")
        draws = rng.integers(0, n, (min(batch, max_tries - tries,
                                        2 * (n_triples - count) + 16), 3))
        tries += len(draws)
        i, j, k = draws.T
        ok = (i != j) & (j != k) & (i != k)
        i, j, k = i[ok], j[ok], k[ok]
        ok[ok] = ((_sines(plus[i], plus[j]) >= sep_tol)
                  & (_sines(plus[i], minus[k]) >= sep_tol)
                  & (_sines(plus[j], minus[k]) >= sep_tol))
        taken = draws[ok][:n_triples - count]
        triples[count:count + len(taken)] = taken
        count += len(taken)
    X1, Ydm = cloud.frames["xi1_plus"], cloud.frames["xi_dm_minus"]
    margins = np.empty(n_triples)
    _, d, width = Ydm.shape
    for part in _chunks(n_triples, Ydm.itemsize * d * (2 + width)):
        i, j, k = triples[part].T
        margins[part] = _margins(X1[i], X1[j], Ydm[k])
    best = math.inf
    worst = ("", "", "")
    if n_triples and (t := _first_below(margins, best)) is not None:
        best = float(margins[t])
        worst = tuple(cloud.words[triples[t]].tolist())
    return HyperconvexityReport(min_margin=best, worst_triple=worst,
                                margins=margins, n_evaluated=count)


@dataclass(frozen=True)
class ControlledSetReport:
    min_margin: float
    worst_pair: tuple[str, str]
    violations: tuple[tuple[str, str], ...]
    n_pairs: int


def controlled_set_check(cloud: LimitCloud,
                         sep_tol: float = 1e-3) -> ControlledSetReport:
    """Checks that sampled limit points meet each hyperplane flag only at
    its own boundary point: for p != xi^(1)(y) the distance from p to
    xi^(d-1)(y) must be positive; distances up to 1e-10 are violations.

    Points within ``sep_tol`` of the hyperplane's own boundary point are
    skipped (the distance vanishes quadratically at the tangency).

    The distances are screened as |u . n_y| for the unit point u and the
    unit normal n_y of the hyperplane (the cloud's complement of the
    hyperplanes, which :func:`transversality_scan` reads too), one GEMM
    per block of pairs (see :func:`_blocks`), separation test included.
    The pairs within ``_BAND`` of a block's least distance or of the
    violation threshold are recomputed as ``point_subspace_distance``'s
    residual, so the minimum, its pair and the violations are the
    residual's.  Beyond the (n, d, d - 1) stack of hyperplanes, memory
    stays within a few block temporaries of ``_PAIR_BYTES`` (256 KiB)
    each."""
    if len(cloud) < 2:
        raise ValueError("need at least 2 samples")
    plus, minus = cloud.lines
    H = cloud.frames["xi_d1_minus"]
    normals = cloud.complement("xi_d1_minus")[..., 0]
    best = (math.inf, None)
    violations = []
    n = 0
    for rows, cols, keep in _kept_blocks(plus, minus, sep_tol,
                                         8 * (plus.shape[1] + 8)):
        n += int(np.count_nonzero(keep))
        dist = np.where(keep, np.abs(plus[rows] @ normals[cols].T), math.inf)
        a, b = np.nonzero(keep & ((dist <= dist.min() + _BAND)
                                  | (np.abs(dist - 1e-10) <= _BAND)))
        dist[a, b] = _residuals(plus[rows][a], H[cols][b])
        dist = np.minimum(1.0, dist)
        best = _least_kept(dist, keep, best, rows, cols)
        a, b = np.nonzero(dist <= 1e-10)
        violations += zip(cloud.words[rows.start + a].tolist(),
                          cloud.words[cols.start + b].tolist())
    return ControlledSetReport(min_margin=best[0],
                               worst_pair=_pair_words(cloud, best[1]),
                               violations=tuple(violations), n_pairs=n)


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    xi1_rank: int
    dim: int
    min_invariant_dim: int


def _invariant_closure_dim(seed: np.ndarray,
                           gen_mats: list[np.ndarray]) -> int:
    """Dimension of the smallest subspace containing ``seed`` that is
    invariant under all generators (Krylov-style closure)."""
    V = orthonormalize(seed)
    d = V.shape[0]
    while V.shape[1] < d:
        images = [V] + [A @ V for A in gen_mats]
        W = orthonormalize(np.column_stack(images), rtol=1e-10)
        if W.shape[1] == V.shape[1]:
            break
        V = W
    return V.shape[1]


def irreducibility_proxy(ball: Ball) -> IrreducibilityReport:
    """Numerical proxy for irreducibility.

    Positive iff (a) the sampled limit points span R^d and (b) no proper
    invariant subspace is found by closing up eigenvector seeds of the
    generators under the whole generating set.  Any invariant subspace
    must contain an eigenvector (or conjugate eigen-plane) of each
    generator, so a proper closure certifies reducibility; the converse
    direction is heuristic.
    """
    d = ball.gens.dim
    lines, = _ClassFlags(ball, [("+", 1)])()
    xi1_rank = 0
    if len(lines):
        s = np.linalg.svd(lines[:, :, 0].T, compute_uv=False)
        xi1_rank = int((s > 1e-8 * s[0]).sum())

    gen_mats = [ball.gens.matrices[l].mat for l in ball.gens.positive_labels]
    min_dim = d
    for A in gen_mats:
        w, vecs = np.linalg.eig(A)
        seen = set()
        for idx in range(d):
            if idx in seen:
                continue
            if abs(w[idx].imag) < 1e-12:
                seed = vecs[:, idx].real.reshape(-1, 1)
            else:
                conj = np.argmin(np.abs(w - w[idx].conjugate()))
                seen.add(int(conj))
                seed = np.column_stack([vecs[:, idx].real, vecs[:, idx].imag])
            min_dim = min(min_dim, _invariant_closure_dim(seed, gen_mats))
            if min_dim < d:
                break
        if min_dim < d:
            break
    return IrreducibilityReport(
        irreducible=(xi1_rank == d and min_dim == d),
        xi1_rank=xi1_rank, dim=d, min_invariant_dim=min_dim)
