"""Sampling limit sets and flag maps from attracting data of ball
elements, and testing the boundary axioms: transversality, the
controlled-set condition, hyperconvexity, and an irreducibility proxy.

A :class:`FlagSample` is a witness element together with the flags of its
two fixed boundary points: attracting data of the element at the plus
point, attracting data of its inverse at the minus point (the repelling
flags of the element itself, computed stably from the inverse).
"""

from __future__ import annotations

import itertools
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
    of the representation.  The scans read the cloud's array form,
    read-only: ``frames``, built with the cloud, and ``lines`` and
    ``words``, built on first use.  ``lines`` is the one point array:
    every distance of or to a sampled point reads its rows.  The flags of
    a sample have ranks 1, m, d - m, d - 1 and 1, in the order of the
    fields of :class:`FlagSample`; a cloud of other ranks raises
    ``ValueError``.

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
        if not self.samples:
            return
        d = self.samples[0].xi1_plus.ambient_dim
        for (name, F), rank in zip(self.frames.items(),
                                   (1, self.m, d - self.m, d - 1, 1)):
            if F.shape[2] != rank:
                raise ValueError(f"flag {name} has rank {F.shape[2]}, not "
                                 f"{rank} (d = {d}, m = {self.m})")

    def __len__(self) -> int:
        return len(self.samples)

    @cached_property
    def frames(self) -> dict[str, np.ndarray]:
        """Flag name (a field of :class:`FlagSample`) -> the (n, d, k)
        stack of the samples' orthonormal frames of that flag."""
        frames = {}
        for f in fields(FlagSample)[1:]:
            stack = [getattr(s, f.name).frame for s in self.samples]
            try:
                frames[f.name] = _readonly(np.stack(stack))
            except ValueError:
                shapes = sorted({F.shape for F in stack})
                raise ValueError(f"flag {f.name} has frames of shapes "
                                 f"{shapes}") from None
        return frames

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
        use: the pair pass reads the hyperplanes' normals, for the
        transversality margins and the controlled-set distances alike,
        and the triple margins those of xi^(d-m)."""
        cache = self.__dict__.setdefault("_complements", {})
        if name not in cache:
            # the QR's own view, not a contiguous copy: a contiguous
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


def _orth(X: np.ndarray) -> np.ndarray:
    """(n, d, k) orthonormal frames of a stack of (n, d, k) matrices of
    full column rank, whose leading j columns span those of X at every j:
    classical Gram-Schmidt with one reorthogonalization, which keeps the
    columns orthonormal to rounding while eps * cond(X) stays well below 1
    ("twice is enough": Giraud, Langou & Rozloznik, Comput. Math. Appl.
    50, 2005).  The first column is normalized; each later one takes two
    projection passes against the columns before it, then one
    normalization.

    Elementwise ``einsum`` calls only, no BLAS, so the bits do not depend
    on the BLAS thread count, and each row of a stack comes out as it does
    from a call on that row alone.  The stack is read as a C-contiguous
    copy, since einsum's rounding can follow the memory layout."""
    X = np.ascontiguousarray(X)
    Q = np.empty_like(X)
    for j in range(X.shape[2]):
        v = X[..., j]
        if j:
            for _ in range(2):
                v = v - np.einsum("ndj,nj->nd", Q[..., :j], np.einsum(
                    "ndj,nd->nj", Q[..., :j], v))
        Q[..., j] = v / np.sqrt(np.einsum("nd,nd->n", v, v))[:, None]
    return Q


def _moved(stack: np.ndarray, codes: np.ndarray,
           frames: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the spans of ``M(w_n) frames[n]``, where M(w)
    is the product along w of the letter matrices of ``stack``, the
    identity and then the letters in code order, and ``codes`` holds the
    words' code rows (see :class:`Ball`).  The letters act one at a time,
    the last first: one stacked matmul and one :func:`_orth` per letter
    position.  An invertible letter times an orthonormal frame has full
    column rank, with condition number at most the letter's, and
    ``_orth`` keeps the leading columns of each frame nested.

    The rounded product M(w) carries an absolute error of about
    eps * |M(w)|, which a flag that M(w) stretches far less than its norm
    (a middle rank) does not survive: moved by the rounded M(P), the
    exact tau_7 3-planes of the radius-5 ball are off by up to 1e-6,
    moved letter by letter by 3e-13 (by 6e-12 with Householder QR in
    place of ``_orth``)."""
    for t in reversed(range(codes.shape[1])):
        frames = _orth(stack[codes[:, t]] @ frames)
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
    span the real k-plane of the top k eigenvectors, at every k.  The QR
    is LAPACK's, not :func:`_orth`: eigenvectors from ``eig`` can be
    (nearly) dependent, and Householder QR needs no full rank."""
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
    join a sorted buffer, searched beside the index and merged into it
    once it outgrows 1/16 of it, so the index is not copied per block.
    Kept rows are tol apart, so a window holds few of them at any tol."""
    n, d = points.shape
    near = math.sqrt(max(0.0, 1.0 - tol * tol - _BAND))
    w, lift, swept, slack = _sorted_lifts(points)
    at = np.empty(2 * n, dtype=np.intp)  # the sorted position of each lift
    at[lift] = np.arange(2 * n)
    fuzz = 4 * d * np.finfo(float).eps
    reach = (math.sqrt(2.0) * np.linalg.norm(w) * (tol + fuzz)
             + slack.max(initial=0.0))
    # sorted positions of the kept lifts, the latest of them in ``recent``
    index = recent = np.empty(0, dtype=np.intp)
    kept: list[int] = []
    for lo in range(0, n, _DEDUP_ROWS):
        rows = np.arange(lo, min(lo + _DEDUP_ROWS, n))
        if kept:
            # each row's window, as the sorted positions first .. stop - 1
            proj, half = swept[at[rows]], reach + slack[rows]
            first = np.searchsorted(swept, proj - half)
            stop = np.searchsorted(swept, proj + half, side="right")
            k, t = [], []
            for lifts in filter(len, (index, recent)):
                found = np.searchsorted(lifts, first)
                c = np.searchsorted(lifts, stop) - found
                # each row against the kept lifts found .. found + c - 1
                t.append(np.repeat(rows, c))
                k.append(lift[lifts[np.arange(c.sum()) + np.repeat(
                    found - np.cumsum(c) + c, c)]] % n)
            k, t = np.concatenate(k), np.concatenate(t)
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
        recent = np.sort(np.concatenate([recent, at[rows], at[rows + n]]))
        if 16 * len(recent) > len(index):
            # a merge of two sorted runs
            index = np.sort(np.concatenate([index, recent]), kind="stable")
            recent = recent[:0]
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


# Byte budget of the float temporaries of one block of the pair pass (the
# cosines behind the sep_tol test, the per-pair sine products, the sines),
# of one batch of drawn triples and of one chunk of triple margins, whose
# triple holds 8 (d (d + 2m + 4) + 24) bytes: its gathered frames and
# complement, their entry-major copies, one product and the quartic's
# scalars (see :func:`_triple_margins`); between blocks only the (n, d, k)
# per-sample stacks and 1-D per-triple arrays stay alive.  A pair holds
# 8 (floats_m + floats_1 + 16) bytes, its k^2 sine entries of both flag
# pairs (see :class:`_FlagPair`) and 16 for the mask and the sines, 168 B
# at d = 4, m = 2; the pass computes no cosine block but the one of each
# least margin's own pair, after the last block.  A block of the pair pass
# is whole rows of the pair grid, at least one, so it holds
# max(_PAIR_BYTES, one row) bytes: one row of n pairs outgrows the budget
# from n = 1,561 at d = 4, m = 2.
_PAIR_BYTES = 256 << 10

# Half-width of the band in which a scan recomputes a value screened from
# one GEMM with the residual formula of ``linalg`` before deciding on it:
# around sep_tol^2 for the squared sines 1 - cos^2, up to the least
# distance or the violation threshold for the controlled-set distances.
# Screened and residual values of unit rows differ by a few ulps of 1.
_BAND = 1e-12

# Controlled-set distances up to this are violations
_VIOLATION = 1e-10


def _chunks(n_items: int, item_bytes: int):
    """Slices of ``range(n_items)``, in order, whose float temporaries of
    ``item_bytes`` per item fit in ``_PAIR_BYTES`` (at least one item):
    rows of the pair grid, triples, or anchors."""
    step = max(1, _PAIR_BYTES // item_bytes)
    return (slice(start, min(start + step, n_items))
            for start in range(0, n_items, step))


def _complements(F: np.ndarray) -> np.ndarray:
    """(n, d, d - k) orthonormal complements of a stack of (n, d, k)
    orthonormal frames: the trailing columns of a complete QR."""
    return np.linalg.qr(F, mode="complete")[0][..., F.shape[2]:]


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
    if band.any():
        a, b = np.nonzero(band)
        dp = _sines(P[a], Q[b])
        keep[a, b] = (dp >= sep_tol) & (dp < below)
    return keep


def _sigma_max(G: np.ndarray) -> np.ndarray:
    """Largest singular values of the p x q blocks of a (p, q, ...)
    entry-major grid (see :meth:`_FlagPair.__call__`), one per trailing
    index.  With k = min(p, q): for k = 1 a norm, for k = 2 the larger
    eigenvalue of the 2 x 2 Gram matrix (its diagonal a sum of
    non-negative terms), each from elementwise sums over the entries, in
    order; for k >= 3 a stacked SVD."""
    if G.shape[0] > G.shape[1]:
        G = G.swapaxes(0, 1)
    if G.shape[0] == 1:
        return np.sqrt(reduce(np.add, G[0] * G[0]))
    if G.shape[0] == 2:
        a, e = reduce(np.add, (G * G).swapaxes(0, 1))
        b = reduce(np.add, G[0] * G[1])
        return np.sqrt(0.5 * (a + e) + np.hypot(0.5 * (a - e), b))
    return np.linalg.svd(np.moveaxis(G, (0, 1), (-2, -1)),
                         compute_uv=False)[..., 0]


def _det(G: np.ndarray) -> np.ndarray:
    """|det| of the 2 x 2 blocks of a (2, 2, ...) entry-major grid."""
    (u0, u1), (v0, v1) = G
    return np.abs(u0 * v1 - u1 * v0)


def _sigma_min(G: np.ndarray) -> np.ndarray:
    """k-th singular values of the k x k blocks of a (k, k, ...)
    entry-major grid, one per trailing index: for k = 1 the entry's
    modulus, for k = 2 |det| / sigma_max, each accurate to rounding, and
    0 for a zero block; for k >= 3 a stacked SVD."""
    if len(G) == 1:
        return np.abs(G[0, 0])
    if len(G) == 2:
        # top = 0 only where every entry squares to 0, and so does the
        # determinant: those blocks give 0 / 5e-324 = 0
        return _det(G) / np.maximum(_sigma_max(G), 5e-324)
    return np.linalg.svd(np.moveaxis(G, (0, 1), (-2, -1)),
                         compute_uv=False)[..., -1]


class _FlagPair:
    """The sines of the least principal angles between a stack of (n, d, p)
    frames X and a stack of (n, d, q) frames Y, complementary (p + q = d),
    a range of rows of X at a time, and the direct-sum margins
    ``sigma_min([X_a | Y_b])`` of given pairs.

    [X Y]^T [X Y] has the eigenvalues 1 +- cos(theta_i) and 1, for the
    principal angles theta_i between the two spans (Björck & Golub, Math.
    Comp. 27, 1973), so the margin is sqrt(1 - c) = s / sqrt(1 + c) with
    c = cos(theta_1) = sigma_max(X^T Y) and s = sin(theta_1).  The sine
    form keeps the margin's absolute accuracy near zero (Knyazev &
    Argentati, SIAM J. Sci. Comput. 23, 2002).  With k = min(p, q), s is
    the k-th singular value of the k x k block L^T R: L = X and R the
    complement Y' of Y when p <= q, else L the complement X' of X and
    R = Y.  ``complement`` is that Y' or X', computed when not given.

    As c = sqrt(1 - s^2), the margin sqrt(1 - sqrt(1 - s^2)) rises with
    s: the least sine belongs to the least margin, and a search for the
    least margin reads the sines alone.

    ``floats`` is the number of float entries of a pair's sine block,
    k^2."""

    def __init__(self, X: np.ndarray, Y: np.ndarray,
                 complement: np.ndarray | None = None):
        swap = X.shape[2] > Y.shape[2]
        if complement is None:
            complement = _complements(X if swap else Y)
        self._X, self._Y = X, Y
        L, R = (complement, Y) if swap else (X, complement)
        # L as the (n, k, d) view of its columns, R as the (d, n k) matrix
        # of its rows (a copy for k > 1): a block of rows of L is one GEMM
        self._L = L.transpose(0, 2, 1)
        self._R = R.transpose(1, 0, 2).reshape(R.shape[1], -1)
        self.floats = L.shape[2] ** 2

    @classmethod
    def of(cls, cloud: LimitCloud, x: str, y: str) -> _FlagPair:
        """The pair of the cloud's flags ``x`` and ``y``, with the cloud's
        complement (see :meth:`LimitCloud.complement`)."""
        X, Y = cloud.frames[x], cloud.frames[y]
        return cls(X, Y, cloud.complement(x if X.shape[2] > Y.shape[2]
                                          else y))

    def __call__(self, rows: slice, keep: np.ndarray) -> np.ndarray:
        """The (r, n) sines of a range of rows a, inf where ``keep`` is
        False: the k-th singular values (see :func:`_sigma_min`) of the
        products L_a^T R_b against every b, from one GEMM, as a contiguous
        (k, k, r, n) entry-major grid whose entry [i, j] is the (r, n) grid
        of the dot products of column i of L_a and column j of R_b."""
        L = self._L[rows]
        r, k, d = L.shape
        G = (L.reshape(-1, d) @ self._R).reshape(r, k, -1, k)
        sines = _sigma_min(np.ascontiguousarray(G.transpose(1, 3, 0, 2)))
        return np.where(keep, sines, math.inf)

    def margins(self, a, b, s: np.ndarray) -> np.ndarray:
        """The margins s / sqrt(1 + c) of the pairs (X_a, Y_b), for index
        arrays a and b and the pairs' sines s from a call: one stacked
        product X_a^T Y_b of the pairs' own frames gives the cosines c.
        Taken as sqrt(1 - s^2) instead, c would lose half its digits as s
        nears 1."""
        G = self._X[a].swapaxes(1, 2) @ self._Y[b]
        return s / np.sqrt(1.0 + _sigma_max(np.moveaxis(G, 0, -1)))


# The flag pairs of the transversality scan: xi^(m)(x) against xi^(d-m)(y),
# and xi^(1)(x) against xi^(d-1)(y)
_FLAGS = (("xim_plus", "xi_dm_minus"), ("xi1_plus", "xi_d1_minus"))


def _margins(*stacks: np.ndarray) -> np.ndarray:
    """``direct_sum_margin`` of each row of frame stacks (c, d, k_i): one
    batched SVD of the frames concatenated in the same column order, each
    row with the bits of ``direct_sum_margin`` on that row alone.  The
    triple margins take it on the rows their screen rejects (see
    :func:`_triple_margins`)."""
    return np.linalg.svd(np.concatenate(stacks, axis=2),
                         compute_uv=False)[:, -1]


# Newton steps from 0 to the least root of the triple margins' quartic
_NEWTON_STEPS = 12


def _off(C: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C - Y (Y^T C) for stacks of frames C (n, d, m) and Y (n, d, q),
    in elementwise sums in index order: one Gram-Schmidt pass of C
    against Y.  A complement from Householder QR is orthogonal to Y only
    to a few eps (8e-16 on the tau_4 clouds); after the pass, to
    rounding (1.4e-16)."""
    YtC = reduce(np.add, (Y[..., None] * C[:, :, None]).swapaxes(0, 1))
    return C - reduce(np.add, (Y[..., None] * YtC[:, None]).transpose(
        2, 0, 1, 3))


def _triple_margins(X: np.ndarray, Z: np.ndarray, Y: np.ndarray,
                    C: np.ndarray) -> tuple[np.ndarray, int]:
    """The margins ``sigma_min([x | z | Y])`` of the rows of the line
    frames X and Z (c, d, 1) and the frames Y (c, d, q), m = d - q >= 2,
    given C (c, d, m), the orthonormal complements of Y passed through
    :func:`_off`, and the number of rows that took the SVD of
    :func:`_margins`.

    With G = [x z]^T [x z], B = G + I, b = Y^T [x z] and a = C^T [x z],
    M = [x z Y] has M^T M = [[G, b^T], [b, I]] and G - b^T b = a^T a = A,
    so det(M^T M - lambda I) = (1 - lambda)^(q - 2) p(lambda) with
        p(lambda) = det(A - lambda B + lambda^2 I)
                  = lambda^4 - tr B lambda^3 + (tr A + det B) lambda^2
                    - (A11 B22 + A22 B11 - 2 A12 B12) lambda + det A,
    and the margin is the square root of the least root of p, which is
    at most 1, as the four roots sum to tr B = 4 for unit x and z.  det A
    is the sum of the squared 2 x 2 minors of a (Cauchy-Binet), so a small
    margin keeps the relative accuracy of those minors.  C^T Y adds
    itself times Y^T x to a: straight from QR it costs a margin near
    1e-5 a relative 1e-11, hence :func:`_off`.

    Every root of p is an eigenvalue of M^T M or 1, so all are real and
    at least 0, and Newton's method from 0 climbs to the least root
    without passing it: ``_NEWTON_STEPS`` steps, in Horner's rule.  A row
    keeps that root if its last step is at most 4 eps of it, the root is
    positive, and the running error bound 8 eps sum |c_k| lambda^k /
    |p'(lambda)| of Horner's rule (twice gamma_8: Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1) is at most 32 eps
    sqrt(lambda), so the margin errs by at most 16 eps from that
    rounding.  The other rows, where the least root is (nearly) double,
    where it is 0, or where the quartic has no accurate value, take the
    SVD.  The sums go in index order by elementwise ufuncs, with no
    BLAS, so each row's bits depend on neither the BLAS thread count nor
    the stack it is in."""
    # entry-major copies: x and z (d, c), C (d, m, c)
    x, z = (np.ascontiguousarray(F[..., 0].T) for F in (X, Z))
    Ct = np.ascontiguousarray(C.transpose(1, 2, 0))
    a, c = (reduce(np.add, Ct * v[:, None]) for v in (x, z))
    g11, g22, g12 = (reduce(np.add, u * v) for u, v in ((x, x), (z, z),
                                                        (x, z)))
    a11, a22, a12 = (reduce(np.add, u * v) for u, v in ((a, a), (c, c),
                                                        (a, c)))
    det_a = reduce(np.add, [(a[i] * c[j] - a[j] * c[i]) ** 2
                            for i, j in itertools.combinations(range(len(a)),
                                                               2)])
    b11, b22 = g11 + 1.0, g22 + 1.0
    c3 = b11 + b22
    c2 = a11 + a22 + (b11 * b22 - g12 * g12)
    c1 = a11 * b22 + a22 * b11 - 2.0 * a12 * g12
    lam = np.zeros_like(det_a)
    d3, d2 = 3.0 * c3, 2.0 * c2
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows with p'(lambda) = 0 step to nan and fail the screen
        for _ in range(_NEWTON_STEPS):
            p = (((lam - c3) * lam + c2) * lam - c1) * lam + det_a
            dp = ((4.0 * lam - d3) * lam + d2) * lam - c1
            step = p / dp
            lam = lam - step
        # sum |c_k| lambda^k: the coefficients are all at least 0, c1 as
        # A11 + A22 at least (B >= I), and c2 as det B >= 1
        size = (((lam + c3) * lam + c2) * lam + c1) * lam + det_a
        # the bound 8 eps size / |p'| at most 32 eps sqrt(lambda)
        keep = ((np.abs(step) <= 4 * np.finfo(float).eps * lam)
                & (lam > 0) & (size <= 4.0 * np.sqrt(lam) * np.abs(dp)))
    margins = np.sqrt(np.where(keep, lam, 0.0))
    svd = np.flatnonzero(~keep)
    if svd.size:
        margins[svd] = _margins(X[svd], Z[svd], Y[svd])
    return margins, int(svd.size)


def _first_below(values: np.ndarray, best: float) -> int | None:
    """Position of the first least value of a chunk if it beats ``best``:
    chunk by chunk, the item a scan keeping the first strict minimum
    keeps."""
    t = int(np.argmin(values))
    return t if values[t] < best else None


def _least(values: np.ndarray, best: tuple, rows: slice) -> tuple:
    """``best``, a ``(value, (x, y))`` pair, or the first least value of a
    block of rows in row-major order with its pair if that beats it."""
    if (t := _first_below(values.ravel(), best[0])) is None:
        return best
    a, b = divmod(t, values.shape[1])
    return float(values[a, b]), (rows.start + a, b)


def _worst(cloud: LimitCloud, best: tuple) -> tuple[float, tuple[str, str]]:
    """A ``(value, (x, y))`` least of a scan with the witness words of x
    and y in place of the sample indices, ("", "") for none."""
    value, pair = best
    return value, ("", "") if pair is None else tuple(
        cloud.words[list(pair)].tolist())


@dataclass(frozen=True)
class TransversalityReport:
    min_margin_m: float
    worst_pair_m: tuple[str, str]
    min_margin_1: float
    worst_pair_1: tuple[str, str]
    n_pairs: int


@dataclass(frozen=True)
class ControlledSetReport:
    min_margin: float
    worst_pair: tuple[str, str]
    violations: tuple[tuple[str, str], ...]
    n_pairs: int


def _pair_blocks(cloud: LimitCloud, sep_tol: float, pairs: list):
    """Blocks ``(rows, keep, sines_m, sines_1)`` of the ordered pairs (x, y)
    of a cloud, whole rows x of the pair grid at a time (see
    :func:`_chunks`): the mask of the pairs whose plus point of x and
    minus point of y are sep_tol or more apart, and for each
    :class:`_FlagPair` in ``pairs`` (those of ``_FLAGS``) the (r, n) sines
    of the kept pairs, inf elsewhere; the second's are |x . n_y|.  The
    blocks hold no cosine of a flag pair: the least margins need the
    sines alone (see :func:`_pair_reports`)."""
    plus, minus = cloud.lines
    n = len(cloud)
    floats = sum(flags.floats for flags in pairs) + 16
    for rows in _chunks(n, n * 8 * floats):
        keep = _separated(plus[rows], minus, sep_tol)
        yield rows, keep, *(flags(rows, keep) for flags in pairs)


def _pair_reports(cloud: LimitCloud, sep_tol: float) -> tuple:
    """Both pair scans' reports from one pass over :func:`_pair_blocks`,
    computed once per cloud and ``sep_tol``, on first use.

    A margin rises with its sine (see :class:`_FlagPair`), so each least
    margin is found as the first least kept sine in row-major order, which
    in exact arithmetic is also the first least margin.  Once the pass
    ends, that pair's margin comes from its sine and one cosine block of
    its own frames (:meth:`_FlagPair.margins`): one per least margin, and
    none where no pair is kept.

    The sine |x . n_y| screens the controlled-set distance: a block's kept
    pairs screened at most ``_BAND`` above ``_VIOLATION`` or above the
    lesser of its least kept sine and the least distance so far are
    recomputed as ``point_subspace_distance``'s residual, and the least
    distance, its first pair and the violations are read from those
    alone, so they are the residual's."""
    if len(cloud) < 2:
        raise ValueError("need at least 2 samples")
    cache = cloud.__dict__.setdefault("_pair_reports", {})
    if sep_tol in cache:
        return cache[sep_tol]
    pairs = [_FlagPair.of(cloud, x, y) for x, y in _FLAGS]
    least = [(math.inf, None)] * len(pairs)
    best = (math.inf, None)
    violations = []
    n = 0
    for rows, keep, *sines in _pair_blocks(cloud, sep_tol, pairs):
        n += int(np.count_nonzero(keep))
        least = [_least(s, b, rows) for s, b in zip(sines, least)]
        s = sines[1]
        low = s.min()
        top = max(min(low, best[0]), _VIOLATION) + _BAND
        if low >= top:  # no kept pair, or none that can count
            continue
        a, b = np.divmod(np.flatnonzero(s <= top), s.shape[1])
        a += rows.start
        dist = _residuals(cloud.lines[0][a], cloud.frames["xi_d1_minus"][b])
        if (t := _first_below(dist, best[0])) is not None:
            best = float(dist[t]), (int(a[t]), int(b[t]))
        bad = dist <= _VIOLATION
        violations += zip(cloud.words[a[bad]].tolist(),
                          cloud.words[b[bad]].tolist())
    worst = []
    for flags, (value, pair) in zip(pairs, least):
        if pair is not None:
            x, y = pair
            value = float(flags.margins([x], [y], value)[0])
        worst += _worst(cloud, (value, pair))
    cache[sep_tol] = (TransversalityReport(*worst, n),
                      ControlledSetReport(*_worst(cloud, best),
                                          tuple(violations), n))
    return cache[sep_tol]


def transversality_scan(cloud: LimitCloud,
                        sep_tol: float = 1e-3) -> TransversalityReport:
    """Are the flags of distinct boundary points transverse?  Minimum
    direct-sum margins over ordered pairs of distinct samples: xi^(m)(x)
    against xi^(d-m)(y), and xi^(1)(x) against xi^(d-1)(y).

    The y-flags live at the minus point of y's witness.  Pairs of
    boundary points closer than ``sep_tol`` are skipped: transversality
    is a condition on distinct points, and the margin degenerates
    continuously (quadratically, at a tangency) as they collide.

    The margin ``sigma_min([X Y])`` of two complementary flags is
    ``s / sqrt(1 + c)``, with c the cosine and s the sine of their least
    principal angle (see :class:`_FlagPair`): for the line x against the
    hyperplane with unit normal n_y, s = |x . n_y| and c the norm of x's
    projection on the hyperplane.  It agrees with ``direct_sum_margin``
    to rounding.  As c = sqrt(1 - s^2), the margin rises with s, so the
    pass reads each kept pair's sine alone and keeps the first least sine
    in row-major order, the pair of the first least margin in exact
    arithmetic; only that pair's margin is computed, with one cosine
    block per least margin (see :func:`_pair_reports`).  The pairs go a
    block of whole rows at a time (see :func:`_pair_blocks`), separation
    test included, in one pass per cloud and ``sep_tol`` shared with
    :func:`controlled_set_check`: a caller of both pays for one pass.
    Beyond the (n, d, k) frame stacks and the cloud's complements, memory
    stays within a few block temporaries of max(``_PAIR_BYTES``, one row
    of n pairs) each, linear in the number of samples."""
    return _pair_reports(cloud, sep_tol)[0]


def controlled_set_check(cloud: LimitCloud,
                         sep_tol: float = 1e-3) -> ControlledSetReport:
    """Do the sampled limit points meet each hyperplane flag only at its
    own boundary point?  For p != xi^(1)(y) the distance from p to
    xi^(d-1)(y) must be positive; distances up to ``_VIOLATION`` (1e-10)
    are violations.  Points within ``sep_tol`` of the hyperplane's own
    boundary point are skipped (the distance vanishes quadratically at
    the tangency).

    The distance of the unit point x is screened as |x . n_y|, the sine
    of :func:`transversality_scan`'s margin_1, in the pass that the two
    scans share, and decided by ``point_subspace_distance``'s residual
    (see :func:`_pair_reports`)."""
    return _pair_reports(cloud, sep_tol)[1]


@dataclass(frozen=True)
class HyperconvexityReport:
    min_margin: float
    worst_triple: tuple[str, str, str]
    margins: np.ndarray
    n_evaluated: int
    n_svd: int  # triples whose margin took the SVD (see _triple_margins)


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
    of the accepted triples come after the draws, a chunk at a time, as
    the square roots of the least roots of a quartic, with the cloud's
    complements of xi^(d-m)(y) (see :func:`_triple_margins`); the rows
    that the quartic's screen rejects take the batched SVD of
    ``direct_sum_margin``, and ``n_svd`` counts them.  Each triple's
    margin has the bits of that kernel on the triple alone.
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
    C = _off(cloud.complement("xi_dm_minus"), Ydm)
    margins = np.empty(n_triples)
    n_svd = 0
    d, m = C.shape[1:]
    for part in _chunks(n_triples, C.itemsize * (d * (d + 2 * m + 4) + 24)):
        i, j, k = triples[part].T
        margins[part], svd = _triple_margins(X1[i], X1[j], Ydm[k], C[k])
        n_svd += svd
    best = math.inf
    worst = ("", "", "")
    if n_triples and (t := _first_below(margins, best)) is not None:
        best = float(margins[t])
        worst = tuple(cloud.words[triples[t]].tolist())
    return HyperconvexityReport(min_margin=best, worst_triple=worst,
                                margins=margins, n_evaluated=count,
                                n_svd=n_svd)


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
