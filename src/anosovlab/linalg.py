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
import scipy.linalg as sla

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
    "apply_to_subspace",
]

GAP_TOL = 1e-6  # least relative modulus gap of top_invariant_subspace


class SpectralGapError(ValueError):
    """Raised when an invariant-subspace extraction has no modulus gap."""


@dataclass(frozen=True)
class MatrixD:
    """A d x d real matrix scaled to unit determinant modulus.

    ``mat`` is read-only; ``det_sign`` records the sign of the original
    determinant (the scaling factor is always positive).
    """

    mat: np.ndarray
    det_sign: int

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def inv(self) -> "MatrixD":
        return MatrixD(_readonly(np.linalg.inv(self.mat)), self.det_sign)

    def __matmul__(self, other: "MatrixD") -> "MatrixD":
        return MatrixD(_readonly(self.mat @ other.mat),
                       self.det_sign * other.det_sign)


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


def normalize_lift(M) -> MatrixD:
    """Rescale an invertible matrix into SL^±_d(R).

    Returns M / |det M|^(1/d) together with the determinant sign.  All
    ratios of eigenvalues and singular values are unchanged.  A MatrixD is
    kept as it is: its determinant, read off rounded entries, errs by eps*cond.
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
    return MatrixD(_readonly(A * np.exp(-logabsdet / d)), int(sign))


def eigen_moduli(M) -> np.ndarray:
    """Absolute values of the (complex) eigenvalues, sorted descending,
    of one matrix or of each matrix of a stack (..., d, d)."""
    A = _as_matrix(M, stack=True)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    return np.sort(np.abs(w))[..., ::-1]


def singular_values(M) -> np.ndarray:
    """Singular values sorted descending (sqrt of eigenvalues of M^T M),
    of one matrix or of each matrix of a stack (..., d, d)."""
    return np.linalg.svd(_as_matrix(M, stack=True), compute_uv=False)


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


def apply_to_subspace(M, V) -> Subspace:
    """Image of a subspace under an invertible matrix, re-orthonormalized."""
    return Subspace(orthonormalize(_as_matrix(M) @ _as_frame(V)))
