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

from .functors import Representation
from .groups import GroupElement, enumerate_ball
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
        gram = np.clip(np.abs(pts @ pts.T), 0.0, 1.0)
        np.fill_diagonal(gram, 0.0)
        nn = np.sqrt(1.0 - gram.max(axis=1) ** 2)
        return {"n": len(pts), "nn_max": float(nn.max()),
                "nn_mean": float(nn.mean()), "nn_min": float(nn.min())}


def limit_samples(rep: Representation, m: int, radius: int,
                  dedup_tol: float = DEFAULT_FLAG_DEDUP_TOL,
                  ball=None) -> LimitCloud:
    """Flags of the attracting fixed points of all proximal ball elements.

    Elements need eigenvalue-modulus gaps at indices 1 and m (the same
    gaps serve the inverse element at d-1 and d-m).  Samples whose limit
    points agree within ``dedup_tol`` are merged, keeping the shortest
    witness, so ``dedup_tol`` acts as the spatial resolution of the cloud.
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
    samples: list[FlagSample] = []
    cos_thresh = math.sqrt(max(0.0, 1.0 - dedup_tol ** 2))
    lam = ball.moduli
    proximal = np.flatnonzero(
        (ball.lengths > 0)
        & (lam[:, 0] / lam[:, -1] > 1.0 + 1e-9)  # is_infinite_order_proxy
        & (lam[:, 0] / lam[:, 1] > 1.0 + GAP_TOL)
        & (lam[:, m - 1] / lam[:, m] > 1.0 + GAP_TOL))
    kept = np.empty((len(proximal), d))  # limit points kept so far
    for i in proximal:
        g = ball[i]
        M = g.matrix
        Minv = ball.products[ball.inverse_rows[i]]
        try:
            # only the line takes part in the dedup: test it first
            xi1 = top_invariant_subspace(M, 1)
            v = xi1.vector()
            n_kept = len(samples)
            if n_kept and float(
                    np.max(np.abs(kept[:n_kept] @ v))) > cos_thresh:
                continue
            xim = xi1 if m == 1 else top_invariant_subspace(M, m)
            xi1_m = top_invariant_subspace(Minv, 1)
            xi_dm = top_invariant_subspace(Minv, d - m)
            xi_d1 = top_invariant_subspace(Minv, d - 1)
        except SpectralGapError:
            continue
        kept[n_kept] = v
        samples.append(FlagSample(witness=g, xi1_plus=xi1, xim_plus=xim,
                                  xi_dm_minus=xi_dm, xi_d1_minus=xi_d1,
                                  xi1_minus=xi1_m,
                                  spectral=SpectralData(mu=ball.cartan[i],
                                                        lam=ball.jordan[i])))
    if not samples:
        raise ValueError("no proximal elements found in the ball")
    return LimitCloud(samples=tuple(samples), m=m, rep_recipe=rep.recipe)


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
    points = []
    # a top modulus gap also makes the element infinite order
    lam = ball.moduli
    for i in np.flatnonzero((ball.lengths > 0)
                            & (lam[:, 0] / lam[:, 1] > 1.0 + GAP_TOL)):
        try:
            points.append(top_invariant_subspace(ball[i].matrix, 1).vector())
        except SpectralGapError:
            continue
    xi1_rank = 0
    if points:
        s = np.linalg.svd(np.array(points).T, compute_uv=False)
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
