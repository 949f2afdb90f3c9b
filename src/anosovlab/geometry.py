"""Regularity geometry: affine charts adapted to a flag pair, the
Hölder-exponent regression, tangency verification, the Hilbert metric on
the positive-definite cone, and the eigenvalue-gap inequality audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import FlagSample, LimitCloud
from .groups import Ball
from .linalg import (_residuals, _row_norms, _sines, direct_sum_margin,
                     subspace_intersection)
from .spectra import linefit

__all__ = [
    "ChartFrame",
    "build_chart",
    "chart_coords",
    "hoelder_regression",
    "tangency_check",
    "hilbert_distance_psd",
    "eigen_gap_inequality_check",
    "RegressionReport",
    "TangencyReport",
    "GapInequalityReport",
]

DISTANCE_FLOOR = 1e-14
_MARGIN_TOL = 1e-8  # chart compatibility tolerance


@dataclass(frozen=True)
class ChartFrame:
    """Basis change adapted to a transverse flag pair (x, y):
    in the new basis xi^(1)(x) = [e1], xi^(m)(x) = span{e1..em},
    xi^(d-m)(y) = span{e(m+1)..ed} and xi^(d-1)(y) = span{e2..ed}."""

    basis_change: np.ndarray
    inverse: np.ndarray
    m: int


def build_chart(sx: FlagSample, sy: FlagSample) -> ChartFrame:
    """Affine chart adapted to the flags of x (plus data of sx) and y
    (minus data of sy).

    Columns: the line of x, then a basis of xi^(m)(x) inside the
    hyperplane of y, then a basis of xi^(d-m)(y).  Requires the four
    compatibility conditions (nesting of each flag pair, transversality
    of line/hyperplane and of m/(d-m)); fails naming the violated one.
    """
    x1, xm = sx.xi1_plus, sx.xim_plus
    y_dm, y_d1 = sy.xi_dm_minus, sy.xi_d1_minus
    d, m = x1.ambient_dim, xm.rank
    checks = [
        ("xi1(x) inside xim(x)", xm.contains(x1, _MARGIN_TOL)),
        ("xi_dm(y) inside xi_d1(y)", y_d1.contains(y_dm, _MARGIN_TOL)),
        ("xi1(x) + xi_d1(y)", direct_sum_margin([x1, y_d1]) > _MARGIN_TOL),
        ("xim(x) + xi_dm(y)", direct_sum_margin([xm, y_dm]) > _MARGIN_TOL),
    ]
    for name, ok in checks:
        if not ok:
            raise ValueError(f"chart compatibility failed: {name}")
    cols = [x1.frame]
    if m > 1:
        inter = subspace_intersection(xm, y_d1)
        if inter.rank != m - 1:
            raise ValueError("chart compatibility failed: xim(x) meets "
                             f"xi_d1(y) in rank {inter.rank}, expected {m - 1}")
        cols.append(inter.frame)
    cols.append(y_dm.frame)
    B = np.column_stack(cols)
    if B.shape != (d, d):
        raise ValueError("flag ranks do not assemble a full basis")
    if abs(np.linalg.det(B)) < _MARGIN_TOL:
        raise ValueError("chart compatibility failed: assembled basis singular")
    return ChartFrame(basis_change=B, inverse=np.linalg.inv(B), m=m)


def chart_coords(frame: ChartFrame, points) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Affine coordinates [1 : u : w] in the chart of the projective points
    given by the rows of an (n, d) array, from one product with the
    chart's inverse basis; they do not depend on the scale of a row.

    Returns ``(rows, u, w)``: the positions of the rows off the hyperplane
    at infinity (first chart coordinate at least 1e-12 of the row's norm),
    and their (r, m - 1) tangent and (r, d - m) transverse coordinates.
    """
    C = np.asarray(points, dtype=float) @ frame.inverse.T
    rows = np.flatnonzero(np.abs(C[:, 0]) >= 1e-12 * _row_norms(C))
    C = C[rows] / C[rows, :1]
    return rows, C[:, 1:frame.m], C[:, frame.m:]


REGRESSION_CAVEAT = ("slope estimates the regularity exponent only where "
                     "the sampled points actually fill the graph over the "
                     "tangent flag; the underlying bound is one-sided")


@dataclass(frozen=True)
class RegressionReport:
    slope: float
    intercept: float
    r_squared: float
    n_floored: int
    window: tuple[float, float]
    points: np.ndarray  # (n, 2): the fitted (point, tangent) distances
    caveat: str = REGRESSION_CAVEAT

    @property
    def n_points(self) -> int:
        return len(self.points)


def hoelder_regression(cloud: LimitCloud, anchor: FlagSample,
                       window: tuple[float, float] = (1e-5, 1e-1),
                       min_points: int = 20) -> RegressionReport:
    """Least-squares slope of log(distance to the anchor's tangent flag)
    against log(distance to the anchor point), over cloud points whose
    anchor distance lies in ``window``.

    The slope estimates the Hölder exponent of the limit set at the
    anchor where the graph-equality hypothesis holds; points numerically
    on the tangent flag (distance at most ``DISTANCE_FLOOR``) are excluded
    and counted.  The report keeps the points the fit used.  Both
    distances are read from the cloud's ``lines``.
    """
    lo, hi = window
    x = anchor.xi1_plus.frame[:, 0]
    dp = _sines(cloud.lines[0], x / np.linalg.norm(x))
    dt = _residuals(cloud.lines[0], anchor.xim_plus.frame)
    inside = (lo < dp) & (dp < hi)
    floored = int(np.count_nonzero(inside & (dt <= DISTANCE_FLOOR)))
    used = inside & (dt > DISTANCE_FLOOR)
    xs, ys = np.log(dp[used]), np.log(dt[used])
    if len(xs) < min_points:
        raise ValueError(
            f"too few cloud points in window ({len(xs)} < {min_points}); "
            "increase the ball radius or widen the window")
    slope, intercept, r2 = linefit(xs, ys)
    return RegressionReport(slope=slope, intercept=intercept, r_squared=r2,
                            n_floored=floored, window=(lo, hi),
                            points=np.column_stack([dp[used], dt[used]]))


@dataclass(frozen=True)
class TangencyReport:
    distances: np.ndarray
    angles: np.ndarray

    def max_angle_nearest(self, n: int) -> float:
        return float(self.angles[:n].max())


def tangency_check(cloud: LimitCloud, anchor: FlagSample) -> TangencyReport:
    """Angles between secant directions from the anchor and the anchor's
    tangent flag, for the 20 nearest cloud points within 0.5, nearest first.

    The angles must decrease toward zero as the secant point approaches
    the anchor when the tangent flag is correct.  The distances are the
    ``proj_distance`` residuals of the anchor point to the cloud's
    ``lines``, the angles the arcsines of the ``point_subspace_distance``
    residuals of the unit secants to the tangent flag.
    """
    x1 = anchor.xi1_plus.vector()
    x1 = x1 / np.linalg.norm(x1)
    dp = _sines(cloud.lines[0], x1)
    near = np.flatnonzero((dp >= 1e-13) & (dp <= 0.5))
    if len(near) < 5:
        raise ValueError("need at least 5 cloud points near the anchor")
    # secant directions: components of the points transverse to the anchor
    P = cloud.lines[0][near]
    sec = P - x1 * (P @ x1)[:, None]
    sec /= np.linalg.norm(sec, axis=1)[:, None]
    angles = np.arcsin(_residuals(sec, anchor.xim_plus.frame))
    order = np.lexsort((angles, dp[near]))[:20]
    return TangencyReport(distances=dp[near][order], angles=angles[order])


def hilbert_distance_psd(X, Y) -> float:
    """Hilbert distance between positive-definite symmetric matrices in
    the projectivized PD cone.

    Computed as log(kappa_max / kappa_min) over the generalized
    eigenvalues of the pencil (Y, X); this equals the cross-ratio along
    the projective line through [X] and [Y] with the cone boundary points
    where det(X + tY) = 0.
    """
    A = np.asarray(X, dtype=float)
    B = np.asarray(Y, dtype=float)
    for name, M in (("X", A), ("Y", B)):
        if not np.allclose(M, M.T, atol=1e-10):
            raise ValueError(f"{name} is not symmetric")
        if np.linalg.eigvalsh(M).min() <= 1e-10:
            raise ValueError(f"{name} is not positive definite")
    # imported here: no run path needs the pencil solver
    import scipy.linalg as sla
    kappa = sla.eigvalsh(B, A)
    return float(np.log(kappa[-1] / kappa[0]))


@dataclass(frozen=True)
class GapInequalityReport:
    passed: bool
    worst_margin: float
    worst_witness: str
    alpha: float
    m: int


def eigen_gap_inequality_check(ball: Ball, m: int,
                               alpha: float) -> GapInequalityReport:
    """Audits lam_(m+1)/lam_m <= (lam_2/lam_1)^(alpha-1) over the ball.

    In log form the margin is log(lam_m/lam_(m+1)) -
    (alpha-1) log(lam_1/lam_2); the check passes when the smallest margin
    stays above -1e-9.  A claimed regularity exponent alpha for the
    limit set forces this inequality for every element.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    d = ball.gens.dim
    if not 2 <= m <= d - 1:
        raise ValueError(f"index m={m} out of range for dimension {d}")
    lam = ball.jordan
    margins = np.where(ball.lengths > 0, (lam[:, m - 1] - lam[:, m])
                       - (alpha - 1.0) * (lam[:, 0] - lam[:, 1]), math.inf)
    # the identity comes first, so a ball of it alone reports no witness
    worst = int(np.argmin(margins))
    return GapInequalityReport(passed=bool(margins[worst] >= -1e-9),
                               worst_margin=margins[worst],
                               worst_witness=ball[worst].word, alpha=alpha,
                               m=m)
