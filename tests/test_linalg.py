import math

import mpmath
import numpy as np
import pytest

from anosovlab.boundary import limit_samples
from anosovlab.linalg import (SpectralGapError, Subspace, _residuals,
                              _row_norms, _sines, direct_sum_margin,
                              eigen_moduli, normalize_lift,
                              point_subspace_distance, proj_distance,
                              singular_values, subspace_distance,
                              top_invariant_subspace)
from tests.conftest import apply_to_subspace

EPS = np.finfo(float).eps


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestRowNorms:
    """One stacked norm against ``np.linalg.norm`` row by row, bit for
    bit; an axis-1 norm differs in the last bit of some rows."""

    @staticmethod
    def assert_per_row(V):
        loop = np.array([np.linalg.norm(v) for v in V])
        assert _row_norms(V).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("d", range(2, 11))
    def test_random_rows(self, d):
        rng = np.random.default_rng(d)
        V = rng.standard_normal((5000, d)) * 10.0 ** rng.uniform(-3, 3,
                                                                (5000, 1))
        self.assert_per_row(V)
        self.assert_per_row(V[::2])  # rows of a strided view
        assert not np.array_equal(_row_norms(V), np.linalg.norm(V, axis=1))

    @pytest.mark.parametrize("d, m, radius", [(3, 2, 6), (4, 2, 5)])
    def test_cloud_lines(self, tau3_rep, tau4_rep, d, m, radius):
        cloud = limit_samples({3: tau3_rep, 4: tau4_rep}[d], m, radius)
        for name in ("xi1_plus", "xi1_minus"):
            self.assert_per_row(cloud.frames[name][:, :, 0])


class TestNormalizeLift:
    def test_scaling_to_unit_determinant(self):
        M = normalize_lift(np.diag([2.0, 2.0]))
        assert np.allclose(M.mat, np.eye(2))
        assert np.sign(np.linalg.det(M.mat)) == 1

    def test_already_unimodular(self):
        M = normalize_lift(np.diag([3.0, 1 / 3.0]))
        assert np.allclose(M.mat, np.diag([3.0, 1 / 3.0]))

    def test_negative_determinant(self):
        # |det| = 2, so the matrix is divided by sqrt(2)
        M = normalize_lift(np.diag([-2.0, 1.0]))
        assert np.allclose(M.mat, np.diag([-2.0, 1.0]) / np.sqrt(2))
        assert np.sign(np.linalg.det(M.mat)) == -1

    def test_singular_input_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            normalize_lift(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            normalize_lift(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_det_invariant_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = normalize_lift(rng.normal(size=(4, 4)))
            assert abs(abs(np.linalg.det(M.mat)) - 1.0) < 1e-10


class TestEigenModuli:
    def test_diagonal(self):
        assert np.allclose(eigen_moduli(np.diag([2.0, 1.0, 0.5])),
                           [2.0, 1.0, 0.5])

    def test_unipotent_jordan_block(self):
        assert np.allclose(eigen_moduli(np.array([[1.0, 1.0], [0.0, 1.0]])),
                           [1.0, 1.0])

    def test_rotation_complex_pair(self):
        assert np.allclose(eigen_moduli(rotation(0.7)), [1.0, 1.0])

    def test_product_one_after_lift(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = normalize_lift(rng.normal(size=(5, 5)))
            assert abs(np.prod(eigen_moduli(M)) - 1.0) < 1e-8


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 1 / 3.0])),
                           [3.0, 1 / 3.0])

    def test_unipotent_golden_ratio(self):
        # M^T M = [[1,1],[1,2]] has eigenvalues (3 +- sqrt(5))/2, whose
        # square roots are the golden ratio and its inverse
        phi = (1 + np.sqrt(5)) / 2
        sv = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(sv, [phi, 1 / phi], atol=1e-12)

    def test_orthogonal_is_isometry(self):
        assert np.allclose(singular_values(rotation(1.2)), [1.0, 1.0])

    def test_inverse_duality(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            M = normalize_lift(rng.normal(size=(4, 4))).mat
            mu = singular_values(M)
            mu_inv = singular_values(np.linalg.inv(M))
            assert np.allclose(mu, 1.0 / mu_inv[::-1], rtol=1e-8)

    def test_product_submultiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = rng.normal(size=(4, 4))
            B = rng.normal(size=(4, 4))
            s_ab = singular_values(A @ B)[0]
            assert s_ab <= singular_values(A)[0] * singular_values(B)[0] * (1 + 1e-8)


def graded_stack(rng, d: int, scale: float | None = None) -> np.ndarray:
    """Four d x d matrices U diag(s) V^T, U and V random orthogonal, s
    graded geometrically from 1 down to 1/cond for cond = 1, 1e4, 1e8 and
    1e12, each times ``scale`` or times 10^k, k uniform in [-30, 30]."""
    stack = []
    for c in (0, 4, 8, 12):
        U, V = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in "UV")
        k = rng.uniform(-30, 30) if scale is None else math.log10(scale)
        stack.append((U * np.logspace(0, -c, d)) @ V.T * 10.0 ** k)
    return np.array(stack)


def top_sigma_50_digits(A: np.ndarray) -> float:
    """The largest singular value of the float matrix A at 50 digits."""
    with mpmath.workdps(50):
        return float(max(mpmath.svd_r(mpmath.matrix(A.tolist()),
                                      compute_uv=False)))


def top_sigma(S: np.ndarray) -> np.ndarray:
    return singular_values(S, top=True)[..., 0]


class TestTopSingularValues:
    """sqrt(lambda_max) of the scaled Gram matrix keeps sigma_1 to a
    relative 4 d eps, the bound of one rounded Gram and one symmetric
    eigensolve, at every conditioning and at any finite scale."""

    DIMS = [*range(2, 10), 20]

    @staticmethod
    def assert_within_bound(got, want, d):
        assert np.all(np.abs(got - want) <= 4 * d * EPS * np.abs(want))

    @pytest.mark.parametrize("d", DIMS)
    def test_against_mpmath(self, d):
        S = graded_stack(np.random.default_rng(d), d)
        want = np.array([top_sigma_50_digits(A) for A in S])
        self.assert_within_bound(top_sigma(S), want, d)

    @pytest.mark.parametrize("d", DIMS)
    def test_against_svd(self, d):
        S = graded_stack(np.random.default_rng(100 + d), d)
        self.assert_within_bound(top_sigma(S),
                                 singular_values(S)[:, 0], d)

    @pytest.mark.parametrize("d", DIMS)
    def test_rows_of_a_stack_are_single_calls(self, d):
        rng = np.random.default_rng(200 + d)
        S = np.concatenate([graded_stack(rng, d) for _ in range(5)])
        alone = np.array([top_sigma(A) for A in S])
        assert top_sigma(S).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("d", [2, 3, 9, 20])
    def test_extreme_entries(self, d, scale):
        # the Gram of an unscaled 1e300 matrix overflows, of a 1e-300 one
        # underflows to 0
        S = graded_stack(np.random.default_rng(300 + d), d, scale)
        got = top_sigma(S)
        assert np.isfinite(got).all()
        want = np.array([top_sigma_50_digits(A) for A in S])
        self.assert_within_bound(got, want, d)

    @staticmethod
    def planted(rng, delta: float, scale: float) -> np.ndarray:
        """3 x 3 matrices U diag(1, 1 - delta, s3) V^T * scale, U and V
        random orthogonal, s3 = 0.5, 1e-4 and 1e-8: sigma_2 = sigma_1 (1 -
        delta), so the top two Gram eigenvalues are close for small delta
        and r = det((G - qI)/p) / 2 is near -1."""
        stack = []
        for s3 in (0.5, 1e-4, 1e-8):
            U, V = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in "UV")
            stack.append((U * [1.0, 1.0 - delta, s3]) @ V.T * scale)
        return np.array(stack)

    @pytest.mark.parametrize("delta", [float(f"1e-{k}") for k in range(1, 13)]
                             + [0.0])
    def test_planted_near_double_top(self, delta):
        # the closed form alone errs by up to sqrt(eps) here; the screened
        # rows take eigvalsh
        rng = np.random.default_rng(int(-np.log10(delta)) if delta else 0)
        S = np.concatenate([self.planted(rng, delta, scale)
                            for scale in 10.0 ** np.arange(-300, 301, 50)])
        want = np.array([top_sigma_50_digits(A) for A in S])
        self.assert_within_bound(top_sigma(S), want, 3)

    def test_screened_rows_are_eigvalsh_bits(self):
        # near-double tops and the powers of a = diag(2, 2, 1/4), whose
        # Grams have r = -1: every row is screened
        rng = np.random.default_rng(400)
        a = np.diag([2.0, 2.0, 0.25])
        S = np.concatenate([self.planted(rng, delta, scale)
                            for delta in (0.0, 1e-12, 1e-6, 1e-2)
                            for scale in (1e-300, 1.0, 1e300)]
                           + [[np.linalg.matrix_power(a, k)
                               for k in range(1, 40)]])
        e = np.frexp(np.abs(S).max(axis=(-2, -1)))[1]
        U = np.ldexp(S, -e[:, None, None])
        lam = np.linalg.eigvalsh(U.swapaxes(-1, -2) @ U)[:, -1]
        assert top_sigma(S).tobytes() == np.ldexp(np.sqrt(lam), e).tobytes()

    def test_multiples_of_the_identity_exact(self):
        # Gram matrices c I: p = 0, so lambda = q = c, with no rounding
        P = np.eye(3)[[2, 0, 1]] * [[1.0], [-1.0], [1.0]]  # signed permutation
        Q = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, -2.0], [2.0, -2.0, 1.0]])
        cases = [(np.eye(3), 1.0), (P, 1.0), (Q, 3.0), (Q / 1024, 3.0 / 1024)]
        for c in (2.0, -3.7, 0.1, 1e-300, 7e300, np.pi):
            cases += [(c * np.eye(3), abs(c)), (c * P, abs(c))]
        S = np.array([M for M, _ in cases])
        want = np.array([sigma for _, sigma in cases])
        assert np.array_equal(top_sigma(S), want)
        assert all(top_sigma(M) == sigma for M, sigma in cases)


class TestTopInvariantSubspace:
    def test_diagonal_top_line(self):
        V = top_invariant_subspace(np.diag([2.0, 1.0, 0.5]), 1)
        assert proj_distance(V, Subspace.line([1, 0, 0])) < 1e-12

    def test_diagonal_top_plane(self):
        V = top_invariant_subspace(np.diag([2.0, 1.0, 0.5]), 2)
        assert subspace_distance(V, Subspace(np.eye(3)[:, :2])) < 1e-12

    def test_no_gap_is_error(self):
        with pytest.raises(SpectralGapError, match="index 1"):
            top_invariant_subspace(np.diag([2.0, 2.0, 0.25]), 1)

    def test_conjugate_pair_kept_together(self):
        M = np.zeros((3, 3))
        M[:2, :2] = 2.0 * rotation(0.9)
        M[2, 2] = 0.25
        with pytest.raises(SpectralGapError):
            top_invariant_subspace(M, 1)  # complex pair straddles index 1
        V = top_invariant_subspace(M, 2)
        assert subspace_distance(V, Subspace(np.eye(3)[:, :2])) < 1e-10

    def test_invariance_on_random_matrices(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 25:
            M = normalize_lift(rng.normal(size=(5, 5))).mat
            lam = eigen_moduli(M)
            for m in range(1, 5):
                if lam[m - 1] / lam[m] > 1.01:
                    V = top_invariant_subspace(M, m)
                    MV = apply_to_subspace(M, V)
                    assert subspace_distance(MV, V) < 1e-8
                    done += 1


class TestProjectiveDistance:
    e = np.eye(3)

    def test_identity_case(self):
        assert proj_distance(Subspace.line(self.e[0]),
                             Subspace.line(self.e[0])) == 0

    def test_orthogonal_lines(self):
        assert proj_distance(Subspace.line(self.e[0]),
                             Subspace.line(self.e[1])) == pytest.approx(1.0)

    def test_45_degrees(self):
        p = Subspace.line(self.e[0])
        q = Subspace.line((self.e[0] + self.e[1]) / np.sqrt(2))
        assert proj_distance(p, q) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            u, v, w = (Subspace.line(rng.normal(size=4)) for _ in range(3))
            duv = proj_distance(u, v)
            assert abs(duv - proj_distance(v, u)) < 1e-10
            assert duv <= proj_distance(u, w) + proj_distance(w, v) + 1e-10

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(6)
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        for _ in range(20):
            u = Subspace.line(rng.normal(size=4))
            v = Subspace.line(rng.normal(size=4))
            d1 = proj_distance(u, v)
            d2 = proj_distance(Subspace.line(Q @ u.vector()),
                               Subspace.line(Q @ v.vector()))
            assert abs(d1 - d2) < 1e-10


class TestPointSubspaceDistance:
    e = np.eye(3)

    def test_contained(self):
        V = Subspace(self.e[:, :2])
        assert point_subspace_distance(Subspace.line(self.e[0]), V) == 0

    def test_orthogonal(self):
        V = Subspace(self.e[:, :2])
        assert point_subspace_distance(Subspace.line(self.e[2]), V) == pytest.approx(1.0)

    def test_diagonal_direction(self):
        V = Subspace(self.e[:, :2])
        p = Subspace.line((self.e[0] + self.e[2]) / np.sqrt(2))
        assert point_subspace_distance(p, V) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def unit_rows(rng, n, d):
    V = rng.standard_normal((n, d))
    return V / _row_norms(V)[:, None]


class TestResidualKernels:
    """The stacked sines and flag residuals against the scalar
    ``proj_distance`` and ``point_subspace_distance``, pair by pair, on
    random unit rows: far apart, and close, where the residual form
    avoids cancellation."""

    @staticmethod
    def pairs(rng, d):
        U = unit_rows(rng, 400, d)
        V = unit_rows(rng, 400, d)
        near = U[:200] + 10.0 ** rng.uniform(-9, -2, (200, 1)) * V[:200]
        V[:200] = near / _row_norms(near)[:, None]
        return U, V

    @pytest.mark.parametrize("d", range(2, 11))
    def test_sines_match_proj_distance(self, d):
        rng = np.random.default_rng(d)
        U, V = self.pairs(rng, d)
        ref = np.array([proj_distance(u, v) for u, v in zip(U, V)])
        assert np.abs(_sines(U, V) - ref).max() <= 1e-15
        # one row against every row of U
        ref = np.array([proj_distance(u, V[0]) for u in U])
        assert np.abs(_sines(U, V[0]) - ref).max() <= 1e-15

    @pytest.mark.parametrize("d", range(2, 11))
    def test_residuals_match_point_subspace_distance(self, d):
        rng = np.random.default_rng(d)
        k = int(rng.integers(1, d))
        F = np.linalg.qr(rng.standard_normal((400, d, k)))[0]
        P = unit_rows(rng, 400, d)
        # half the rows within 1e-9 to 1e-2 of their frame's span
        near = ((F[:200] @ rng.standard_normal((200, k, 1)))[:, :, 0]
                + 10.0 ** rng.uniform(-9, -2, (200, 1)) * P[:200])
        P[:200] = near / _row_norms(near)[:, None]
        ref = np.array([point_subspace_distance(p, f) for p, f in zip(P, F)])
        assert np.abs(_residuals(P, F) - ref).max() <= 1e-15
        # every row against one frame
        ref = np.array([point_subspace_distance(p, F[0]) for p in P])
        assert np.abs(_residuals(P, F[0]) - ref).max() <= 1e-15

    def test_sines_of_row_pairs_is_the_pair_formula(self):
        # the pair formula of the stacked boundary scans, bit for bit
        def reference(U, V):
            resid = V - U * np.einsum("ij,ij->i", U, V)[:, None]
            return np.minimum(1.0, np.linalg.norm(resid, axis=1))

        rng = np.random.default_rng(11)
        for d in range(2, 11):
            U, V = self.pairs(rng, d)
            assert _sines(U, V).tobytes() == reference(U, V).tobytes()


class TestDirectSumMargin:
    e = np.eye(3)

    def test_orthogonal_lines(self):
        margin = direct_sum_margin([Subspace.line(self.e[i]) for i in range(3)])
        assert margin == pytest.approx(1.0)

    def test_dependent_lines(self):
        margin = direct_sum_margin([Subspace.line(self.e[0]),
                                    Subspace.line(self.e[0])])
        assert margin < 1e-12

    def test_45_degree_pair(self):
        # smallest singular value of [e1 | (e1+e2)/sqrt(2)], computed by
        # hand from the 2x2 Gram matrix: sqrt(1 - 1/sqrt(2))
        q = Subspace.line((self.e[0] + self.e[1]) / np.sqrt(2))
        margin = direct_sum_margin([Subspace.line(self.e[0]), q])
        assert margin == pytest.approx(np.sqrt(1 - 1 / np.sqrt(2)), abs=1e-12)

    def test_rank_overflow(self):
        with pytest.raises(ValueError, match="ranks sum"):
            direct_sum_margin([Subspace(self.e[:, :2]), Subspace(self.e[:, :2])])

    def test_permutation_and_rebasing_invariance(self):
        rng = np.random.default_rng(7)
        U = Subspace.from_spanning(rng.normal(size=(5, 2)))
        V = Subspace.from_spanning(rng.normal(size=(5, 2)))
        m1 = direct_sum_margin([U, V])
        m2 = direct_sum_margin([V, U])
        # re-base U by an arbitrary rotation of its frame
        Q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        U2 = Subspace(U.frame @ Q)
        m3 = direct_sum_margin([U2, V])
        assert abs(m1 - m2) < 1e-10
        assert abs(m1 - m3) < 1e-10


def test_ratio_invariance_under_scaling():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        c = rng.uniform(0.1, 10.0)
        M1 = normalize_lift(A)
        M2 = normalize_lift(c * A)
        assert np.allclose(eigen_moduli(M1), eigen_moduli(M2), rtol=1e-9)
        assert np.allclose(singular_values(M1), singular_values(M2), rtol=1e-9)
