"""Dense linear algebra on small matrices: normalized lifts, spectra,
invariant subspaces and projective/Grassmannian distances.

Matrices live in SL^±_d(R): every input is rescaled so |det| = 1, which
leaves all eigenvalue and singular-value ratios unchanged.  Subspaces are
stored as orthonormal frames.  Everything here is a pure function on small
(d <= ~64) dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatrixD",
    "Subspace",
    "SpectralData",
    "SpectralGapError",
    "normalize_lift",
    "eigen_moduli",
    "singular_values",
    "top_invariant_subspace",
    "proj_distance",
    "point_subspace_distance",
    "direct_sum_margin",
    "subspace_distance",
    "subspace_intersection",
    "orthonormalize",
]

# least relative modulus gap of top_invariant_subspace, and of the class
# spectra at the flag ranks for boundary's limit samples
GAP_TOL = 1e-6


class SpectralGapError(ValueError):
    """Raised when an invariant-subspace extraction has no modulus gap."""


@dataclass(frozen=True)
class MatrixD:
    """A d x d real matrix scaled to unit determinant modulus; ``mat`` is
    read-only."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^d as an orthonormal d x k frame."""

    frame: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def rank(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_spanning(cls, vectors) -> "Subspace":
        """Orthonormalize a (d x k) spanning set, dropping dependent columns."""
        return cls(orthonormalize(np.asarray(vectors, dtype=float)))

    @classmethod
    def line(cls, v) -> "Subspace":
        v = np.asarray(v, dtype=float).reshape(-1, 1)
        return cls(orthonormalize(v))

    def vector(self) -> np.ndarray:
        """Unit representative of a rank-1 subspace."""
        if self.rank != 1:
            raise ValueError("vector() is only defined for rank-1 subspaces")
        return self.frame[:, 0]

    def contains(self, other: "Subspace", tol: float = 1e-8) -> bool:
        """True if ``other`` is contained in this subspace within ``tol``."""
        if other.rank == 0:
            return True
        resid = other.frame - self.frame @ (self.frame.T @ other.frame)
        return float(np.linalg.norm(resid, 2)) < tol


@dataclass(frozen=True)
class SpectralData:
    """Sorted log singular values (mu) and log eigenvalue moduli (lam)
    of a unit-determinant-modulus lift; both vectors sum to zero."""

    mu: np.ndarray
    lam: np.ndarray


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _as_matrix(M, stack: bool = False) -> np.ndarray:
    """A square matrix, or with ``stack`` also a stack (..., d, d)."""
    if isinstance(M, MatrixD):
        return M.mat
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or (A.ndim > 2 and not stack):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def _as_frame(V) -> np.ndarray:
    if isinstance(V, Subspace):
        return V.frame
    F = np.asarray(V, dtype=float)
    if F.ndim == 1:
        F = F.reshape(-1, 1)
    return F


def _row_norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of an (n, d) array, bit for bit.  A
    vector's norm is the square root of its BLAS ``ddot`` with itself, and
    a stacked (1, d) @ (d, 1) matmul hands each contiguous row to the same
    ``ddot``; an axis norm or ``einsum`` sums in another order."""
    V = np.ascontiguousarray(V, dtype=float)
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _sines(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``proj_distance`` of the unit rows of an (n, d) array ``U`` to the
    unit row ``V``, or to the matching rows of an (n, d) array ``V``, from
    the same orthogonal residual ``V - U (U . V)``."""
    V = np.broadcast_to(V, U.shape)
    resid = V - U * np.einsum("ij,ij->i", U, V)[:, None]
    return np.minimum(1.0, np.linalg.norm(resid, axis=1))


def _residuals(P: np.ndarray, F: np.ndarray) -> np.ndarray:
    """``point_subspace_distance`` of the unit rows of an (n, d) array
    ``P`` to the orthonormal (d, k) frame ``F``, or to the matching frames
    of an (n, d, k) stack ``F``, from the same residual ``P - P F F^T``."""
    resid = P - (P[:, None, :] @ F @ F.swapaxes(-1, -2))[:, 0]
    return np.minimum(1.0, np.linalg.norm(resid, axis=1))


def normalize_lift(M) -> MatrixD:
    """Rescale an invertible matrix into SL^±_d(R).

    Returns M / |det M|^(1/d); all ratios of eigenvalues and singular
    values are unchanged.  A MatrixD is kept as it is: its determinant,
    read off rounded entries, errs by eps*cond.
    """
    if isinstance(M, MatrixD):
        return M
    A = _as_matrix(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    sign, logabsdet = np.linalg.slogdet(A)
    if sign == 0 or not np.isfinite(logabsdet):
        raise ValueError("non-invertible generator")
    d = A.shape[0]
    return MatrixD(_readonly(A * np.exp(-logabsdet / d)))


def eigen_moduli(M) -> np.ndarray:
    """Absolute values of the (complex) eigenvalues, sorted descending,
    of one matrix or of each matrix of a stack (..., d, d)."""
    A = _as_matrix(M, stack=True)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    return np.sort(np.abs(w))[..., ::-1]


def singular_values(M, top: bool = False) -> np.ndarray:
    """Singular values sorted descending, of one matrix or of each matrix
    of a stack (..., d, d), from LAPACK's SVD.  With ``top``, only the
    largest, of shape (..., 1): sqrt(lambda) 2^e, lambda the largest
    eigenvalue of the Gram G = U^T U of U = M / 2^e, e the exponent of the
    matrix's largest |entry|.  The scaling is exact and keeps G's entries
    at most d, so no finite M overflows it.  lambda comes from LAPACK's
    ``eigvalsh`` of G: the top eigenvalue of a rounded PSD matrix errs by
    O(d eps) of itself (Weyl), so sigma_1 keeps the SVD's relative
    accuracy.

    For d = 3 a closed form gives lambda (Smith, Commun. ACM 4, 1961):
    with q = tr G / 3, p^2 = ||G - qI||_F^2 / 6 and r = det((G - qI)/p) / 2
    in [-1, 1], the eigenvalues are q + 2p cos((arccos r + 2 pi k) / 3),
    so lambda = q + 2p c(r), c(r) = cos(arccos(r) / 3) in [1/2, 1], and
    lambda = q where p = 0 (a multiple of I, returned exactly).  Both
    terms are >= 0 and p <= lambda / 3, so the rounding of q and p, read
    off entries |G_ij| <= lambda, costs a few eps of lambda.  Rounding r
    by dr ~ eps lambda / p costs 2p |c'(r)| |dr|, and c'(r) =
    sin(phi/3) / (3 sin phi) <= 1 / (2 sqrt(6) sqrt(1 + r)), phi =
    arccos r.  So to first order
        |d lambda| <= (a + b / sqrt(1 + r)) eps lambda,
    a <= 8 and b <= 9 by a running-error count (the off-diagonal entries
    of G - qI are G's own), a ~ 1 and b ~ 0.6 measured as the worst over
    6,000 random Grams.  Where p is itself a few ulps of lambda, dr may
    be O(1), but then 2p |dc| <= p.  As the top two eigenvalues meet,
    r -> -1 and the first-order term diverges: the error grows to
    O(sqrt(eps)) (Kopp, Int. J. Mod. Phys. C 19, 2008).  The closed form
    is therefore kept for r > -3/4, where 1 / sqrt(1 + r) < 2 holds the
    r term to twice its size at r = 0: there the worst measured error
    was 1 eps of lambda, against 4 eps for ``eigvalsh``.  The rows with
    r <= -3/4 take ``eigvalsh`` as above, with its bits.  The closed
    form's Gram sums its three products in index order, with no BLAS,
    so those rows' bits depend on no thread count and no stack size."""
    A = _as_matrix(M, stack=True)
    if not top:
        return np.linalg.svd(A, compute_uv=False)
    if A.shape[-1] != 3:
        e = np.frexp(np.abs(A).max(axis=(-2, -1), keepdims=True))[1]
        U = np.ldexp(A, -e)
        lam = np.linalg.eigvalsh(U.swapaxes(-1, -2) @ U)[..., -1:]
        return np.ldexp(np.sqrt(lam), e[..., 0])
    S = A.reshape(-1, 3, 3)
    U = S.reshape(-1, 9).T.copy()  # U[3k + i] = S[:, k, i]
    e = np.frexp(np.maximum(U.max(axis=0), -U.min(axis=0)))[1]
    U = np.ldexp(U, -e, out=U).reshape(3, 3, -1)
    g00, g01, g02, g11, g12, g22 = (
        U[0, i] * U[0, j] + U[1, i] * U[1, j] + U[2, i] * U[2, j]
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    del U
    # G - qI with q = g00 + t: diagonal -t, b1, b2; off-diagonal G's own
    b1, b2 = g11 - g00, g22 - g00
    t = (b1 + b2) / 3
    b1 -= t
    b2 -= t
    b0 = -t
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2
                 + 2 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with p = 0
        s = 1 / p
        for x in (b0, b1, b2, g01, g02, g12):  # (G - qI) / p
            x *= s
        r = (b0 * (b1 * b2 - g12 * g12) - g01 * (g01 * b2 - g12 * g02)
             + g02 * (g01 * g12 - b1 * g02)) / 2
    r = np.where(p > 0, np.clip(r, -1.0, 1.0), 1.0)
    lam = g00 + t + 2 * p * np.cos(np.arccos(r) / 3)
    close = np.flatnonzero(r <= -0.75)
    if close.size:
        V = np.ldexp(S[close], -e[close, None, None])
        lam[close] = np.linalg.eigvalsh(V.swapaxes(-1, -2) @ V)[:, -1]
    return np.ldexp(np.sqrt(lam), e).reshape(*A.shape[:-2], 1)


def top_invariant_subspace(M, m: int) -> Subspace:
    """Invariant subspace spanned by generalized eigenvectors of the top
    ``m`` eigenvalue moduli.

    Requires a relative modulus gap at index m; conjugate pairs are kept
    together by working with the ordered real Schur form.  Two
    orthogonal-iteration steps remove the forward-error wobble of the
    Schur reordering (the subspace is attracting, so iteration contracts).
    """
    A = _as_matrix(M)
    d = A.shape[0]
    if not 1 <= m <= d:
        raise ValueError(f"index m={m} out of range for dimension {d}")
    if m == d:
        return Subspace(np.eye(d))
    lam = eigen_moduli(A)
    if lam[m] <= 0 or lam[m - 1] / lam[m] <= 1.0 + GAP_TOL:
        raise SpectralGapError(f"no spectral gap at index {m}")
    thresh = np.sqrt(lam[m - 1] * lam[m])
    # imported here: a test oracle, kept off the import of the package
    import scipy.linalg as sla
    _, Z, sdim = sla.schur(A, output="real",
                           sort=lambda re, im: np.hypot(re, im) > thresh)
    if sdim != m:
        raise SpectralGapError(f"no spectral gap at index {m}")
    V = Z[:, :m]
    for _ in range(2):
        V = np.linalg.qr(A @ V)[0]
    return Subspace(orthonormalize(V))


def proj_distance(p, q) -> float:
    """Sine of the principal angle between two lines in R^d.

    Computed from the orthogonal residual, which stays accurate for
    nearly-equal lines (no cancellation near distance 0).
    """
    u = _as_frame(p)[:, 0]
    v = _as_frame(q)[:, 0]
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    r = v - u * (u @ v)
    return min(1.0, float(np.linalg.norm(r)))


def point_subspace_distance(p, V) -> float:
    """Norm of the component of the unit representative of p orthogonal
    to the subspace V; zero iff p lies in V."""
    u = _as_frame(p)[:, 0]
    u = u / np.linalg.norm(u)
    F = _as_frame(V)
    r = u - F @ (F.T @ u)
    return min(1.0, float(np.linalg.norm(r)))


def direct_sum_margin(subspaces) -> float:
    """Smallest singular value of the concatenated orthonormal frames.

    Positive iff the sum of the subspaces is direct; invariant (to
    rounding) under re-basing each subspace.
    """
    frames = [_as_frame(V) for V in subspaces]
    d = frames[0].shape[0]
    total = sum(F.shape[1] for F in frames)
    if total > d:
        raise ValueError(f"ranks sum to {total} > ambient dimension {d}")
    stacked = np.column_stack(frames)
    return float(np.linalg.svd(stacked, compute_uv=False)[-1])


def subspace_distance(U, V) -> float:
    """Largest principal-angle sine between two subspaces of equal rank.

    Computed as the spectral norm of the residual of one frame against
    the other, which resolves small angles without cancellation.
    """
    FU, FV = _as_frame(U), _as_frame(V)
    if FU.shape != FV.shape:
        raise ValueError("subspace ranks differ")
    resid = FV - FU @ (FU.T @ FV)
    return min(1.0, float(np.linalg.norm(resid, 2)))


def subspace_intersection(U, V) -> Subspace:
    """Intersection of two subspaces via the nullspace of [U | -V]."""
    FU, FV = _as_frame(U), _as_frame(V)
    stacked = np.hstack([FU, -FV])
    _, s, vh = np.linalg.svd(stacked)
    ns = (vh[s.size:] if stacked.shape[1] > s.size
          else vh[(s > 1e-10 * s[0]).sum():])
    if ns.shape[0] == 0:
        d = FU.shape[0]
        return Subspace(np.zeros((d, 0)))
    vecs = FU @ ns[:, :FU.shape[1]].T
    return Subspace.from_spanning(vecs)


def orthonormalize(A: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column span with a deterministic sign
    convention (largest-|entry| coordinate of each column positive)."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.reshape(A.shape[0], 0)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int((s > rtol * s[0]).sum()) if s.size and s[0] > 0 else 0
    U = U[:, :rank]
    for j in range(U.shape[1]):
        k = int(np.argmax(np.abs(U[:, j])))
        if U[k, j] < 0:
            U[:, j] = -U[:, j]
    return U

