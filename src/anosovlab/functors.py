"""Representation constructors and induced maps on flags: the standard
irreducible SL2 representations, exterior powers, the symmetric square,
direct sums, a 9-dimensional SU(2,1) example, and the exterior-power flag
maps for Hitchin-type data.

A :class:`Representation` is a symmetric generator set plus a replayable
recipe (base matrices and a functor chain), so configurations can be
serialized and rebuilt bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .groups import GeneratorSet
from .linalg import MatrixD, Subspace, normalize_lift

__all__ = [
    "Representation",
    "tau_d",
    "wedge_power",
    "sym_square",
    "veronese_point",
    "flag_wedge",
    "direct_sum_rep",
    "build_su21_rep",
    "perturb_rep",
    "tau_representation",
    "wedge_representation",
    "sym_square_representation",
    "su21_representation",
    "representation_from_matrices",
    "build_representation",
    "RECIPES",
    "wedge_indices",
]

SU21_FORM = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


@dataclass(frozen=True)
class Representation:
    generators: GeneratorSet
    recipe: dict

    @property
    def dim(self) -> int:
        return self.generators.dim


def representation_from_matrices(gens: dict, name: str = "") -> Representation:
    gs = GeneratorSet.from_matrices(gens)
    recipe = {
        "kind": "matrices",
        "dim": gs.dim,
        "generators": {l: gs.matrices[l].mat.tolist() for l in gs.positive_labels},
    }
    if name:
        recipe["name"] = name
    return Representation(generators=gs, recipe=recipe)


# ---------------------------------------------------------------------------
# matrix-level functors


def tau_d(g, d: int) -> MatrixD:
    """Standard irreducible representation of a 2x2 matrix in dimension d.

    Acts on degree-(d-1) homogeneous polynomials in X, Y by precomposing
    with the inverse, in the monomial basis X^(d-i) Y^(i-1).  The input is
    normalized to unit determinant modulus first; its inverse is then the
    (exact) adjugate up to sign, and the image has unit determinant by
    the determinant character identity, with no output rescaling.  An
    image with entries past the double range raises ``ValueError``.
    """
    if d < 2:
        raise ValueError("tau_d requires d >= 2")
    M = normalize_lift(g)
    if M.dim != 2:
        raise ValueError("tau_d expects a 2x2 matrix")
    A = M.mat
    h = (np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
         * np.sign(np.linalg.det(A)))
    n = d - 1
    cols = []
    # an overflow (and the 0 * inf after it) is caught below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            # (h00 X + h01 Y)^(n-j) (h10 X + h11 Y)^j, by Y-degree
            p1 = np.array([math.comb(n - j, t) * h[0, 0] ** (n - j - t)
                           * h[0, 1] ** t for t in range(n - j + 1)])
            p2 = np.array([math.comb(j, t) * h[1, 0] ** (j - t)
                           * h[1, 1] ** t for t in range(j + 1)])
            cols.append(np.convolve(p1, p2))
    image = np.ascontiguousarray(np.array(cols).T)
    if not np.isfinite(image).all():
        raise ValueError(f"tau_{d} image overflows doubles")
    return MatrixD(image)


def wedge_indices(d: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered k-element index tuples for the wedge basis."""
    return list(combinations(range(d), k))


# Byte budget of the (n, block, k, k) stack gathered by _wedge_coordinates;
# wedge^4 of a 9x9 matrix, the largest compound spectra builds, fits in one.
_GATHER_BYTES = 2 << 20


def _wedge_coordinates(A: np.ndarray, rows: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """The k x k minors det A[r, c] for the row tuples r of ``rows`` (n x k)
    and column tuples c of ``cols`` (m x k), as an n x m array: column j
    holds the Pluecker coordinates of the frame A[:, c_j].

    One batched ``det`` over the gathered stack runs the same LU per
    matrix as a scalar call, so each minor is bit-identical to a per-minor
    loop; blocks of columns keep the stack within ``_GATHER_BYTES``.
    """
    n, k = rows.shape
    block = max(1, _GATHER_BYTES // (A.itemsize * n * k * k))
    return np.concatenate([
        np.linalg.det(A[rows[:, None, :, None],
                        cols[None, start:start + block, None, :]])
        for start in range(0, len(cols), block)], axis=1)


def wedge_power(M, k: int) -> MatrixD:
    """k-th exterior power in the lexicographic wedge basis.

    Columns are the wedge coordinates of the images of the basis wedges:
    all C(d, k)^2 minors, from one stacked determinant (about 2 MB for
    C(d, k) <= 126).  Eigenvalue and singular-value moduli are the k-fold
    products of those of M.  The input is normalized first; the image of
    a unit-determinant matrix has unit determinant exactly.
    """
    Mu = normalize_lift(M)
    A, d = Mu.mat, Mu.dim
    if not 1 <= k <= d - 1:
        raise ValueError(f"wedge index k={k} out of range for dimension {d}")
    idx = np.array(wedge_indices(d, k))
    return MatrixD(_wedge_coordinates(A, idx, idx))


def _sym_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i, d)]


def sym_square(M) -> MatrixD:
    """Symmetric square acting on Sym2(R^d), dimension D = d(d+1)/2.

    Basis {e_i . e_j : i <= j} with off-diagonal elements scaled by
    sqrt(2), so the standard inner product pulls back correctly and the
    singular-value identities hold exactly (S of an orthogonal matrix is
    orthogonal).  An image past the double range raises ``ValueError``.
    """
    Mu = normalize_lift(M)
    A, d = Mu.mat, Mu.dim
    pairs = _sym_pairs(d)
    rt2 = np.sqrt(2.0)
    S = np.empty((len(pairs), len(pairs)))
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        for col, (i, j) in enumerate(pairs):
            B = np.outer(A[:, i], A[:, j])
            X = B + B.T if i != j else 2.0 * B
            X *= 0.5 * rt2 if i != j else 0.5
            # X = M B_ij M^T; read off its coordinates in the weighted basis
            for row, (kk, ll) in enumerate(pairs):
                S[row, col] = X[kk, ll] if kk == ll else rt2 * X[kk, ll]
    if not np.isfinite(S).all():
        raise ValueError("sym2 image overflows doubles")
    return MatrixD(np.ascontiguousarray(S))


def veronese_point(v) -> Subspace:
    """The point [v (x) v] in P(Sym2(R^d)), in the same weighted basis
    as :func:`sym_square`; lands in the closure of the positive cone."""
    u = v.vector() if isinstance(v, Subspace) else np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    d = u.size
    rt2 = np.sqrt(2.0)
    coords = np.array([u[i] * u[j] * (1.0 if i == j else rt2)
                       for (i, j) in _sym_pairs(d)])
    return Subspace.line(coords)


def flag_wedge(V: Subspace) -> Subspace:
    """The line [v_1 ^ ... ^ v_m] in the wedge space, for any frame of V;
    independent of the frame choice up to sign."""
    frame = V.frame if isinstance(V, Subspace) else np.asarray(V, dtype=float)
    d, m = frame.shape
    coords = _wedge_coordinates(frame, np.array(wedge_indices(d, m)),
                                np.arange(m)[None, :])
    return Subspace.line(coords[:, 0])


def direct_sum_rep(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum of two representations over the same labels."""
    l1, l2 = r1.generators.positive_labels, r2.generators.positive_labels
    if l1 != l2:
        raise ValueError(f"generator label mismatch: {l1} vs {l2}")
    d1, d2 = r1.dim, r2.dim

    def block(label):
        M1, M2 = (r.generators.matrices[label] for r in (r1, r2))
        blk = np.zeros((d1 + d2, d1 + d2))
        blk[:d1, :d1] = M1.mat
        blk[d1:, d1:] = M2.mat
        return MatrixD(blk)

    gens = {label: block(label) for label in l1}
    invs = {label: block(label.upper()) for label in l1}
    return Representation(
        generators=GeneratorSet.from_matrices(gens, inverses=invs),
        recipe={"kind": "direct_sum", "left": r1.recipe, "right": r2.recipe},
    )


# ---------------------------------------------------------------------------
# the 9-dimensional SU(2,1) example

def _complex_to_real6(g: np.ndarray) -> np.ndarray:
    """R-linear action of a complex 3x3 matrix on R^6 with coordinates
    (Re z1, Im z1, Re z2, Im z2, Re z3, Im z3)."""
    out = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            x, y = g[i, j].real, g[i, j].imag
            out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[x, -y], [y, x]]
    return out


def _su21_fixed_basis() -> np.ndarray:
    """The 15 x 9 matrix of the fixed space of wedge^2 of multiplication
    by i, in the lexicographic wedge basis of wedge^2 R^6."""
    pairs = wedge_indices(6, 2)
    idx = np.array(pairs)
    # column (i, j) of the compound of the identity is e_i ^ e_j
    wv = dict(zip(pairs, _wedge_coordinates(np.eye(6), idx, idx).T))
    cols = [
        wv[0, 1],
        wv[1, 2] - wv[0, 3],
        wv[0, 2] + wv[1, 3],
        wv[2, 3],
        wv[1, 4] - wv[0, 5],
        wv[0, 4] + wv[1, 5],
        wv[2, 4] + wv[3, 5],
        wv[3, 4] - wv[2, 5],
        wv[4, 5],
    ]
    return np.column_stack(cols)


_SU21_BASIS = _su21_fixed_basis()


def build_su21_rep(g) -> MatrixD:
    """9x9 real matrix of an SU(2,1) element acting on the invariant
    9-dimensional subspace of wedge^2 R^6.

    The input must preserve the antidiagonal Hermitian form to 1e-8; for
    an element with eigenvalue moduli (w, 1, 1/w) the output moduli are
    (w^2, w, w, 1, 1, 1, 1/w, 1/w, 1/w^2).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (3, 3):
        raise ValueError("expected a 3x3 complex matrix")
    if np.abs(g.conj().T @ SU21_FORM @ g - SU21_FORM).max() > 1e-8:
        raise ValueError("not in SU(2,1): Hermitian form not preserved")
    # the unnormalized compound: wedge_power would rescale the lift
    idx = np.array(wedge_indices(6, 2))
    image = _wedge_coordinates(_complex_to_real6(g), idx, idx) @ _SU21_BASIS
    coef, *_ = np.linalg.lstsq(_SU21_BASIS, image, rcond=None)
    resid = np.abs(_SU21_BASIS @ coef - image).max()
    if resid > 1e-8:
        raise ValueError(f"fixed space not preserved (residual {resid:.2e})")
    return normalize_lift(coef)


# ---------------------------------------------------------------------------
# representation-level constructors

def _map_generators(rep: Representation, fn, recipe: dict) -> Representation:
    # map the stored inverses through the functor too: inverting the
    # image numerically would lose the small spectrum for stiff inputs
    gens, invs = {}, {}
    for label in rep.generators.positive_labels:
        gens[label] = fn(rep.generators.matrices[label])
        invs[label] = fn(rep.generators.matrices[label.upper()])
    return Representation(
        generators=GeneratorSet.from_matrices(gens, inverses=invs),
        recipe=recipe)


def tau_representation(rep: Representation, d: int) -> Representation:
    if rep.dim != 2:
        raise ValueError("tau requires a 2-dimensional base representation")
    return _map_generators(rep, lambda M: tau_d(M, d),
                           {"kind": "tau", "d": d, "base": rep.recipe})


def wedge_representation(rep: Representation, k: int) -> Representation:
    return _map_generators(rep, lambda M: wedge_power(M, k),
                           {"kind": "wedge", "k": k, "base": rep.recipe})


def sym_square_representation(rep: Representation) -> Representation:
    return _map_generators(rep, sym_square,
                           {"kind": "sym2", "base": rep.recipe})


def su21_representation(gens: dict) -> Representation:
    """Representation from complex 3x3 SU(2,1) generators (label -> matrix)."""
    real_gens = {}
    real_invs = {}
    recipe_gens = {}
    for label in sorted(gens):
        g = np.asarray(gens[label], dtype=complex)
        real_gens[label] = build_su21_rep(g).mat
        # form-preserving inverse in closed form: g^-1 = J g* J
        ginv = SU21_FORM @ g.conj().T @ SU21_FORM
        real_invs[label] = build_su21_rep(ginv).mat
        recipe_gens[label] = [[[z.real, z.imag] for z in row] for row in g]
    return Representation(
        generators=GeneratorSet.from_matrices(real_gens, inverses=real_invs),
        recipe={"kind": "su21", "generators": recipe_gens},
    )


def perturb_rep(rep: Representation, eps: float, seed: int) -> Representation:
    """Add i.i.d. uniform [-eps, eps] noise to each positive generator,
    renormalize, and rebuild inverses exactly.  Deterministic given seed."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    rng = np.random.default_rng(seed)
    gens = {}
    for label in rep.generators.positive_labels:
        M = rep.generators.matrices[label].mat
        noise = rng.uniform(-eps, eps, size=M.shape) if eps > 0 else 0.0
        P = M + noise
        if abs(np.linalg.det(P)) < 1e-12:
            raise ValueError(f"perturbed generator {label!r} is singular")
        gens[label] = P
    return Representation(
        generators=GeneratorSet.from_matrices(gens),
        recipe={"kind": "perturb", "eps": eps, "seed": seed, "base": rep.recipe},
    )


def _matrices_recipe(recipe: dict) -> Representation:
    gens = {l: np.array(m, dtype=float)
            for l, m in recipe["generators"].items()}
    return representation_from_matrices(gens, name=recipe.get("name", ""))


def _su21_recipe(recipe: dict) -> Representation:
    return su21_representation({
        label: np.array([[complex(re, im) for re, im in row] for row in rows])
        for label, rows in recipe["generators"].items()})


# Each recipe kind: the fields it reads besides "kind", all required but a
# matrices recipe's "name", and its builder, called with the recipe and
# its built sub-recipes ("base", or "left" and "right") in field order.
RECIPES = {
    "matrices": (("dim", "generators", "name"), _matrices_recipe),
    "su21": (("generators",), _su21_recipe),
    "tau": (("base", "d"), lambda r, base: tau_representation(base, r["d"])),
    "wedge": (("base", "k"),
              lambda r, base: wedge_representation(base, r["k"])),
    "sym2": (("base",), lambda r, base: sym_square_representation(base)),
    "perturb": (("base", "eps", "seed"),
                lambda r, base: perturb_rep(base, r["eps"], r["seed"])),
    "direct_sum": (("left", "right"),
                   lambda r, left, right: direct_sum_rep(left, right)),
}
SUB_RECIPES = ("base", "left", "right")


def build_representation(recipe: dict) -> Representation:
    """Replay a recipe; rebuilding reproduces generator matrices."""
    kind = recipe.get("kind")
    if kind not in RECIPES:
        raise ValueError(f"unknown recipe kind {kind!r}")
    fields, build = RECIPES[kind]
    return build(recipe, *(build_representation(recipe[key])
                           for key in fields if key in SUB_RECIPES))
