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
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .functors import Representation
from .groups import GroupElement, cyclic_reduce, enumerate_ball, inverse_word
from .linalg import (GAP_TOL, SpectralData, SpectralGapError, Subspace,
                     orthonormalize, top_invariant_subspace)
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
    spectral: SpectralData


@dataclass(frozen=True)
class LimitCloud:
    samples: tuple[FlagSample, ...]
    m: int
    rep_recipe: dict

    def __len__(self) -> int:
        return len(self.samples)

    def points(self) -> np.ndarray:
        """Unit representatives of the sampled limit-set points, stacked."""
        return np.array([s.xi1_plus.vector() for s in self.samples])

    def coverage_stats(self) -> dict:
        """Nearest-neighbour spacing of the sampled points: how densely
        the cloud covers the limit set at this radius.  Descriptive only;
        there is no theoretical coverage guarantee."""
        pts = self.points()
        if len(pts) < 2:
            return {"n": len(pts), "nn_max": math.nan, "nn_mean": math.nan,
                    "nn_min": math.nan}
        # nearest of +-q by chordal distance (no cancellation; the first
        # hit is p or a copy of it), then proj_distance's residual sine
        _, hit = cKDTree(np.vstack([pts, -pts])).query(pts, k=2)
        near = pts[hit[:, 1] % len(pts)]
        resid = near - pts * (pts * near).sum(axis=1)[:, None]
        nn = np.minimum(1.0, np.linalg.norm(resid, axis=1))
        return {"n": len(pts), "nn_max": float(nn.max()),
                "nn_mean": float(nn.mean()), "nn_min": float(nn.min())}


def _conjugators(word: str, c: str) -> tuple[str, str]:
    """The plus and minus conjugators P, Q of a reduced word w with class
    word ``c = canonical_cyclic(w)``: ``w = P c P^-1 = Q c Q^-1``.

    With ``w = u core u^-1`` and ``core = c[j:] + c[:j]``, ``P = u c[j:]``
    (``u`` when j = 0) and ``Q = u c[:j]^-1``.  Both are reduced words
    shorter than w, and ``P c`` and ``Q c^-1`` are reduced products.
    """
    core = cyclic_reduce(word)
    u = word[:(len(word) - len(core)) // 2]
    j = (c + c).index(core)
    return (u + c[j:] if j else u), u + inverse_word(c[:j])


def _moved(letters: dict, words: list[str], frames: np.ndarray,
           transposed: bool = False) -> np.ndarray:
    """Orthonormal frames of the spans of ``M(w_n) frames[n]``, or of
    ``M(w_n)^T frames[n]`` if ``transposed``, where M(w) is the product of
    ``letters[x]`` along w.  The letters act one at a time, the last
    first: one stacked matmul and QR per letter position (words are
    right-aligned, shorter ones padded with the identity).

    The rounded product M(w) carries an absolute error of about
    eps * |M(w)|, which a flag that M(w) stretches far less than its norm
    (a middle rank) does not survive: moved by the rounded M(P), the
    exact tau_7 3-planes of the radius-5 ball are off by up to 7e-7,
    moved letter by letter by 5e-14."""
    if transposed:  # M(w)^T is the product of the transposes, reversed
        letters = {x: L.T for x, L in letters.items()}
        words = [w[::-1] for w in words]
    code = {x: n + 1 for n, x in enumerate(letters)}
    stack = np.array([np.eye(frames.shape[1]), *letters.values()])
    width = max(map(len, words), default=0)
    codes = np.zeros((len(words), width), dtype=np.intp)
    for n, w in enumerate(words):
        codes[n, width - len(w):] = [code[x] for x in w]
    for t in reversed(range(width)):
        frames = np.linalg.qr(stack[codes[:, t]] @ frames)[0]
    return frames


def _signed(U: np.ndarray) -> np.ndarray:
    """A stack of frames with ``orthonormalize``'s sign convention: the
    largest-|entry| coordinate of each column positive."""
    top = np.take_along_axis(U, np.abs(U).argmax(axis=1)[:, None], axis=1)
    return np.where(top < 0, -U, U)


class _ClassFlags:
    """Attracting flags of ball elements, extracted once per conjugacy
    class and transported along the reduced conjugators.

    For ``w = P c P^-1 = Q c Q^-1`` (see :func:`_conjugators`) the
    attracting flags of w are M(P) times those of the class word c, and
    those of w^-1 are M(Q) times those of c^-1.  ``specs`` maps each
    flag to ``(source, rank, conjugator, dual)``: the flag is extracted as
    the top invariant subspace of that rank of the source matrix, A =
    M(c), B = M(c^-1) or their transposes ``At``, ``Bt``.  A direct flag
    is the span of M(conjugator) times the extracted frame; a dual flag
    is the orthogonal complement of M(conjugator)^-T times it.  Since
    ``P c`` and ``Q c^-1`` are reduced, M(P) does not contract the
    attracting flags of c, nor M(Q) those of c^-1.

    Each distinct (source, rank) costs one ``top_invariant_subspace``
    call per class on the source's rounded product.  That Schur frame is
    then polished by two sweeps of orthogonal iteration along the
    source's letters, and moved along the conjugator's letters (see
    :func:`_moved`).  A class with no spectral gap at some extraction is
    dropped with its elements; ``index`` holds the ball indices kept, in
    the given order.
    """

    def __init__(self, ball, index, specs: dict):
        words, member = ball.classes
        products = ball.products
        keys = list(dict.fromkeys((src, rank)
                                  for src, rank, _, _ in specs.values()))
        extracted: dict[int, list] = {}
        for k in dict.fromkeys(member[index].tolist()):
            A = products[ball.row[words[k]]]
            B = products[ball.row[inverse_word(words[k])]]
            sources = {"A": A, "B": B, "At": A.T, "Bt": B.T}
            try:
                extracted[k] = [top_invariant_subspace(sources[src], rank)
                                .frame for src, rank in keys]
            except SpectralGapError:
                continue
        self.index = np.array([i for i in index if member[i] in extracted],
                              dtype=np.intp)
        position = {k: p for p, k in enumerate(extracted)}
        self._class = np.array([position[member[i]] for i in self.index],
                               dtype=np.intp)
        self._letters = {x: M.mat for x, M in ball.gens.matrices.items()}
        fwd = [words[k] for k in extracted]
        bwd = [inverse_word(c) for c in fwd]
        source_words = {"A": fwd, "B": bwd, "At": fwd, "Bt": bwd}
        d = products.shape[1]
        self._frames = {}
        for n, (src, rank) in enumerate(keys):
            frames = np.array([f[n] for f in extracted.values()]).reshape(
                -1, d, rank)
            for _ in range(2):
                frames = _moved(self._letters, source_words[src], frames,
                                transposed=src.endswith("t"))
            self._frames[src, rank] = frames
        conj = [_conjugators(ball[i].word, words[member[i]])
                for i in self.index]
        self._conj = {"P": [p for p, _ in conj], "Q": [q for _, q in conj]}
        self._specs = specs

    def __call__(self, name: str, sel=None) -> np.ndarray:
        """(n, d, rank) orthonormal frames of flag ``name`` of the kept
        elements at positions ``sel`` (all by default), with
        ``orthonormalize``'s sign convention."""
        src, rank, conj, dual = self._specs[name]
        if sel is None:
            sel = range(len(self.index))
        conj_words = [self._conj[conj][t] for t in sel]
        frames = self._frames[src, rank][self._class[list(sel)]]
        if not dual:
            return _signed(_moved(self._letters, conj_words, frames))
        moved = _moved(self._letters, [inverse_word(x) for x in conj_words],
                       frames, transposed=True)  # M(x)^-T = M(x^-1)^T
        return _signed(np.linalg.svd(moved)[0][..., rank:])


def _proximal(ball, ks) -> np.ndarray:
    """Ball indices of the non-identity elements whose class has a
    relative eigenvalue-modulus gap above ``GAP_TOL`` at every index k of
    ``ks`` (read from ``ball.jordan``)."""
    lam = ball.jordan
    keep = ball.lengths > 0
    for k in ks:
        keep &= lam[:, k - 1] - lam[:, k] > math.log1p(GAP_TOL)
    return np.flatnonzero(keep)


def limit_samples(rep: Representation, m: int, radius: int,
                  dedup_tol: float = DEFAULT_FLAG_DEDUP_TOL,
                  ball=None) -> LimitCloud:
    """Flags of the attracting fixed points of all proximal ball elements.

    Elements need eigenvalue-modulus gaps at indices 1 and m (the same
    gaps serve the inverse element at d-1 and d-m), read from the class
    spectrum ``ball.jordan``.  The flags are extracted once per conjugacy
    class, from the matrices of its canonical cyclic word c and of c^-1,
    and transported to each element along reduced conjugators (see
    :class:`_ClassFlags`).  Ranks above d/2 come by duality, as
    orthogonal complements of transported flags of the transposes: a
    Schur extraction at the bottom of the spectrum would lose them.

    Samples whose limit points agree within ``dedup_tol`` are merged,
    keeping the first witness in ball order (the shortest), so
    ``dedup_tol`` acts as the spatial resolution of the cloud.  Only the
    lines take part in the dedup; the other four flags are transported
    for the kept samples only.
    """
    d = rep.dim
    if not 1 <= m <= d - 1:
        raise ValueError(f"flag index m={m} out of range for dimension {d}")
    if ball is None:
        ball = enumerate_ball(rep.generators, radius)
    for k in sorted({1, m}):
        profile = gap_profile(rep, k, radius, ball=ball)
        if not profile.linear:
            warnings.warn(
                f"gap profile at k={k} is not certified linear "
                f"({profile.verdict}); limit samples may be unreliable",
                stacklevel=2)
    flags = _ClassFlags(ball, _proximal(ball, sorted({1, m})), {
        "xi1_plus": ("A", 1, "P", False),
        "xim_plus": (("A", m, "P", False) if m <= d - m
                     else ("Bt", d - m, "P", True)),
        "xi_dm_minus": (("B", d - m, "Q", False) if d - m <= m
                        else ("At", m, "Q", True)),
        "xi_d1_minus": ("At", 1, "Q", True),
        "xi1_minus": ("B", 1, "Q", False),
    })
    lines = flags("xi1_plus")[:, :, 0]
    cos_thresh = math.sqrt(max(0.0, 1.0 - dedup_tol ** 2))
    kept: list[int] = []  # positions in flags.index of the kept samples
    points = np.empty_like(lines)  # their limit points
    for t, v in enumerate(lines):
        n = len(kept)
        if n and float(np.max(np.abs(points[:n] @ v))) > cos_thresh:
            continue
        points[n] = v
        kept.append(t)
    if not kept:
        raise ValueError("no proximal elements found in the ball")
    frames = {name: flags(name, kept) for name in
              ("xim_plus", "xi_dm_minus", "xi_d1_minus", "xi1_minus")}
    samples = tuple(
        FlagSample(witness=ball[i], xi1_plus=Subspace(points[n, :, None]),
                   **{name: Subspace(F[n]) for name, F in frames.items()},
                   spectral=SpectralData(mu=ball.cartan[i],
                                         lam=ball.jordan[i]))
        for n, i in enumerate(flags.index[kept]))
    return LimitCloud(samples=samples, m=m, rep_recipe=rep.recipe)


# Byte budget of each chunk temporary of the pair scans (the residuals
# behind the sep_tol masks, the gathered frame stacks); between chunks only
# the boolean (n, n) masks, the (n, d, k) frame stacks and 1-D per-triple
# arrays stay alive.
_PAIR_BYTES = 256 << 10


def _chunks(n_items: int, item_bytes: int):
    """Slices of ``range(n_items)`` whose float temporaries of
    ``item_bytes`` per item fit in ``_PAIR_BYTES`` (at least one item)."""
    step = max(1, _PAIR_BYTES // item_bytes)
    return (slice(start, start + step) for start in range(0, n_items, step))


def _unit_lines(lines) -> np.ndarray:
    """(n, d) unit representatives of lines, normalized as
    ``proj_distance`` and ``point_subspace_distance`` normalize them."""
    return np.array([L.frame[:, 0] / np.linalg.norm(L.frame[:, 0])
                     for L in lines])


def _frames(subspaces) -> np.ndarray:
    """(n, d, k) stack of the orthonormal frames of equal-rank subspaces."""
    return np.stack([V.frame for V in subspaces])


def _near(P: np.ndarray, Q: np.ndarray, sep_tol: float) -> np.ndarray:
    """Boolean (n, n) mask of ``proj_distance(P[i], Q[j]) < sep_tol`` for
    unit rows, from the same orthogonal residual, a chunk of rows at a
    time."""
    near = np.empty((len(P), len(Q)), dtype=bool)
    for rows in _chunks(len(P), Q.nbytes):
        U = P[rows]
        resid = Q - U[:, None, :] * (U @ Q.T)[:, :, None]
        near[rows] = np.minimum(1.0, np.linalg.norm(resid, axis=2)) < sep_tol
    return near


def _kept_pairs(near: np.ndarray, item_bytes: int):
    """Row and column indices of the pairs that ``near`` does not mask, in
    row-major order, one chunk of the flattened mask at a time (chunks
    may split a row); chunks with no kept pair are left out."""
    flat = near.reshape(-1)
    for part in _chunks(flat.size, item_bytes):
        kept = part.start + np.flatnonzero(~flat[part])
        if kept.size:
            yield np.divmod(kept, near.shape[1])


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


@dataclass(frozen=True)
class TransversalityReport:
    min_margin_m: float
    worst_pair_m: tuple[str, str]
    min_margin_1: float
    worst_pair_1: tuple[str, str]
    n_pairs: int


def transversality_scan(cloud: LimitCloud,
                        sep_tol: float = 1e-3) -> TransversalityReport:
    """Minimum direct-sum margins over ordered pairs of distinct samples:
    xi^(m)(x) against xi^(d-m)(y), and xi^(1)(x) against xi^(d-1)(y).

    The y-flags live at the minus point of y's witness.  Pairs of
    boundary points closer than ``sep_tol`` are skipped: transversality
    is a condition on distinct points, and the margin degenerates
    continuously (quadratically, at a tangency) as they collide.

    Evaluated over stacked arrays: the skip mask is one boolean (n, n)
    array, and the margins of the kept pairs come from one batched SVD
    per chunk of pairs, bit-identical to ``direct_sum_margin`` pair by
    pair.  Beyond the mask and the (n, d, k) frame stacks, memory stays
    within a few chunk temporaries of ``_PAIR_BYTES`` (256 KiB) each; a
    mask row larger than that is one chunk."""
    if len(cloud) < 2:
        raise ValueError("need at least 2 samples")
    samples = cloud.samples
    words = [s.witness.word for s in samples]
    near = _near(_unit_lines(s.xi1_plus for s in samples),
                 _unit_lines(s.xi1_minus for s in samples), sep_tol)
    Xm = _frames(s.xim_plus for s in samples)
    Ydm = _frames(s.xi_dm_minus for s in samples)
    X1 = _frames(s.xi1_plus for s in samples)
    Yd1 = _frames(s.xi_d1_minus for s in samples)
    d = Xm.shape[1]
    best_m, best_1 = math.inf, math.inf
    pair_m = pair_1 = ("", "")
    n = 0
    for i, j in _kept_pairs(near, Xm.itemsize * d * d):
        n += len(i)
        marg_m = _margins(Xm[i], Ydm[j])
        marg_1 = _margins(X1[i], Yd1[j])
        if (t := _first_below(marg_m, best_m)) is not None:
            best_m, pair_m = float(marg_m[t]), (words[i[t]], words[j[t]])
        if (t := _first_below(marg_1, best_1)) is not None:
            best_1, pair_1 = float(marg_1[t]), (words[i[t]], words[j[t]])
    return TransversalityReport(min_margin_m=best_m, worst_pair_m=pair_m,
                                min_margin_1=best_1, worst_pair_1=pair_1,
                                n_pairs=n)


@dataclass(frozen=True)
class HyperconvexityReport:
    min_margin: float
    worst_triple: tuple[str, str, str]
    margins: np.ndarray
    n_evaluated: int


def hyperconvexity_scan(cloud: LimitCloud, m: int | None = None,
                        n_triples: int = 500, seed: int = 0,
                        sep_tol: float = 1e-3) -> HyperconvexityReport:
    """Minimum of direct_sum_margin(xi^(1)(x), xi^(1)(z), xi^(d-m)(y))
    over seeded random triples of pairwise-distinct boundary points.

    x and z are plus points of two samples, y the minus point of a third;
    triples with any pairwise distance below ``sep_tol`` are resampled
    (the margin degenerates continuously as points collide).

    The separation tests read two boolean (n, n) masks, plus against plus
    and plus against minus points, built in chunks of rows within
    ``_PAIR_BYTES`` (256 KiB) of temporaries; the margins of the accepted
    triples come after the draws from one batched SVD per chunk,
    bit-identical to ``direct_sum_margin`` triple by triple.
    """
    if m is None:
        m = cloud.m
    if m != cloud.m:
        raise ValueError(f"cloud was sampled for m={cloud.m}, not m={m}")
    if m < 2:
        raise ValueError("hyperconvexity scan requires m >= 2")
    if len(cloud) < 3:
        raise ValueError("need at least 3 samples")
    rng = np.random.default_rng(seed)
    n = len(cloud)
    samples = cloud.samples
    plus = _unit_lines(s.xi1_plus for s in samples)
    near_plus = _near(plus, plus, sep_tol)
    near_minus = _near(plus, _unit_lines(s.xi1_minus for s in samples),
                       sep_tol)
    triples = np.empty((n_triples, 3), dtype=np.intp)
    count = 0
    tries = 0
    max_tries = 2000 * n_triples
    while count < n_triples:
        tries += 1
        if tries > max_tries:
            raise ValueError(
                f"cannot find {n_triples} separated triples "
                f"(sep_tol={sep_tol}); got {count}")
        i, j, k = rng.integers(0, n, 3)
        if i == j or j == k or i == k:
            continue
        if near_plus[i, j] or near_minus[i, k] or near_minus[j, k]:
            continue
        triples[count] = i, j, k
        count += 1
    X1 = _frames(s.xi1_plus for s in samples)
    Ydm = _frames(s.xi_dm_minus for s in samples)
    margins = np.empty(n_triples)
    _, d, width = Ydm.shape
    for part in _chunks(n_triples, Ydm.itemsize * d * (2 + width)):
        i, j, k = triples[part].T
        margins[part] = _margins(X1[i], X1[j], Ydm[k])
    best = math.inf
    worst = ("", "", "")
    if n_triples and (t := _first_below(margins, best)) is not None:
        best = float(margins[t])
        worst = tuple(samples[idx].witness.word for idx in triples[t])
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

    Evaluated over stacked arrays: the skip mask is one boolean (n, n)
    array, and the distances of the kept pairs come from one stacked
    ``matmul`` residual per chunk of pairs (equal to
    ``point_subspace_distance`` up to rounding in the last bits).  Beyond
    the mask and the frame stacks, memory stays within a few chunk
    temporaries of ``_PAIR_BYTES`` (256 KiB) each."""
    if len(cloud) < 2:
        raise ValueError("need at least 2 samples")
    samples = cloud.samples
    words = [s.witness.word for s in samples]
    plus = _unit_lines(s.xi1_plus for s in samples)
    near = _near(plus, _unit_lines(s.xi1_minus for s in samples), sep_tol)
    H = _frames(s.xi_d1_minus for s in samples)
    d = H.shape[1]
    best = math.inf
    worst = ("", "")
    violations = []
    n = 0
    for i, j in _kept_pairs(near, H.itemsize * d * d):
        n += len(i)
        u, F = plus[i], H[j]
        resid = u - (u[:, None, :] @ F @ F.transpose(0, 2, 1))[:, 0]
        marg = np.minimum(1.0, np.linalg.norm(resid, axis=1))
        if (t := _first_below(marg, best)) is not None:
            best, worst = float(marg[t]), (words[i[t]], words[j[t]])
        violations += [(words[i[t]], words[j[t]])
                       for t in np.flatnonzero(marg <= 1e-10)]
    return ControlledSetReport(min_margin=best, worst_pair=worst,
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


def irreducibility_proxy(rep: Representation, radius: int,
                         ball=None) -> IrreducibilityReport:
    """Numerical proxy for irreducibility.

    Positive iff (a) the sampled limit points span R^d and (b) no proper
    invariant subspace is found by closing up eigenvector seeds of the
    generators under the whole generating set.  Any invariant subspace
    must contain an eigenvector (or conjugate eigen-plane) of each
    generator, so a proper closure certifies reducibility; the converse
    direction is heuristic.
    """
    d = rep.dim
    if ball is None:
        ball = enumerate_ball(rep.generators, radius)
    lines = _ClassFlags(ball, _proximal(ball, [1]),
                        {"xi1_plus": ("A", 1, "P", False)})("xi1_plus")
    xi1_rank = 0
    if len(lines):
        s = np.linalg.svd(lines[:, :, 0].T, compute_uv=False)
        xi1_rank = int((s > 1e-8 * s[0]).sum())

    gen_mats = [rep.generators.matrices[l].mat
                for l in rep.generators.positive_labels]
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
