import numpy as np
import pytest

from anosovlab import functors
from anosovlab.functors import (build_representation, build_su21_rep,
                                direct_sum_rep, flag_wedge, hitchin_zeta,
                                perturb_rep, representation_from_matrices,
                                su21_representation, sym_square,
                                sym_square_representation, tau_d,
                                tau_representation, veronese_point,
                                wedge_indices, wedge_power,
                                wedge_representation)
from anosovlab.linalg import (Subspace, eigen_moduli, normalize_lift,
                              proj_distance, singular_values,
                              subspace_distance)
from anosovlab.spectra import gap_profile
from tests.conftest import load_example_config


def random_sl2(rng, lam=None):
    lam = lam if lam is not None else rng.uniform(1.2, 4.0)
    while True:
        V = rng.normal(size=(2, 2))
        det = np.linalg.det(V)
        if abs(det) > 0.3 and np.linalg.cond(V) < 10:
            break
    return V @ np.diag([lam, 1 / lam]) @ np.linalg.inv(V), lam


class TestTau:
    def test_eigenvalue_ladder_d3(self):
        # moduli of the 3-dimensional image of diag(2, 1/2) are 4, 1, 1/4
        T = tau_d(np.diag([2.0, 0.5]), 3)
        assert np.allclose(eigen_moduli(T), [4.0, 1.0, 0.25], rtol=1e-12)

    def test_identity(self):
        for d in (2, 4, 7):
            assert np.allclose(tau_d(np.eye(2), d).mat, np.eye(d))

    def test_d2_is_inverse_transpose_conjugacy(self):
        g = np.diag([3.0, 1 / 3.0])
        assert np.allclose(eigen_moduli(tau_d(g, 2)), [3.0, 1 / 3.0])

    def test_homomorphism(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            g, _ = random_sl2(rng)
            h, _ = random_sl2(rng)
            lhs = tau_d(g @ h, 5).mat
            rhs = (tau_d(g, 5) @ tau_d(h, 5)).mat
            assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(lhs).max())

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            tau_d(np.eye(2), 1)


class TestWedgePower:
    def test_diagonal_eigenvalues(self):
        # unit-determinant input keeps the wedge unnormalized
        g = np.diag([3.0, 2.0, 1.0 / 6.0])
        W = wedge_power(g, 2)
        assert np.allclose(sorted(eigen_moduli(W), reverse=True),
                           sorted([6.0, 0.5, 1.0 / 3.0], reverse=True))

    def test_diagonal_ratio_identity(self):
        g = np.diag([3.0, 2.0, 1.0 / 6.0])
        lam = eigen_moduli(g)
        wlam = eigen_moduli(wedge_power(g, 2))
        assert wlam[0] / wlam[1] == pytest.approx(lam[1] / lam[2], rel=1e-12)

    def test_random_ratio_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            M = normalize_lift(rng.normal(size=(6, 6)))
            mu = singular_values(M)
            if min(mu[:-1] / mu[1:]) < 1.05:
                continue
            for m in (2, 3):
                wm = singular_values(wedge_power(M, m))
                lhs = np.log(wm[0] / wm[1])
                rhs = np.log(mu[m - 1] / mu[m])
                assert abs(lhs - rhs) < 1e-8

    def test_top_singular_value_is_product(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            M = normalize_lift(rng.normal(size=(5, 5)))
            mu = singular_values(M)
            for k in (2, 3):
                assert singular_values(wedge_power(M, k))[0] == pytest.approx(
                    np.prod(mu[:k]), rel=1e-8)

    def test_homomorphism(self):
        rng = np.random.default_rng(13)
        A = normalize_lift(rng.normal(size=(4, 4)))
        B = normalize_lift(rng.normal(size=(4, 4)))
        lhs = wedge_power(A @ B, 2).mat
        rhs = (wedge_power(A, 2) @ wedge_power(B, 2)).mat
        assert np.abs(lhs - rhs).max() < 1e-8


def loop_minors(A, rows, cols):
    """Reference: one scalar np.linalg.det call per minor."""
    out = np.empty((len(rows), len(cols)))
    for j, c in enumerate(cols):
        frame = A[:, list(c)]
        for i, r in enumerate(rows):
            out[i, j] = np.linalg.det(frame[list(r), :])
    return out


def loop_wedge_power(M, k):
    A = normalize_lift(M).mat
    idx = wedge_indices(A.shape[0], k)
    return loop_minors(A, idx, idx)


def badly_scaled(rng, d):
    # entries spread over 12 orders of magnitude, determinant far from 1
    return rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-6, 6, size=(d, d))


class TestStackedMinors:
    @pytest.mark.parametrize("d", [4, 7, 10])
    def test_wedge_power_matches_per_minor_loop(self, d):
        rng = np.random.default_rng(70 + d)
        for M in (badly_scaled(rng, d), np.diag(np.geomspace(1e4, 1e-3, d))):
            for k in range(1, d):
                assert np.array_equal(wedge_power(M, k).mat,
                                      loop_wedge_power(M, k))

    @pytest.mark.parametrize("d", [4, 7, 10])
    def test_flag_wedge_matches_per_minor_loop(self, d):
        rng = np.random.default_rng(80 + d)
        for m in range(1, d):
            V = Subspace.from_spanning(rng.normal(size=(d, m)))
            coords = loop_minors(V.frame, wedge_indices(d, m), [range(m)])
            assert np.array_equal(flag_wedge(V).frame,
                                  Subspace.line(coords[:, 0]).frame)

    def test_su21_matches_per_minor_construction(self):
        recipe = load_example_config("su21_9dim")["representation"]
        J = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        idx = wedge_indices(6, 2)
        E = loop_minors(np.eye(6), idx, idx)
        wv = {p: E[:, i] for i, p in enumerate(idx)}
        basis = np.column_stack([
            wv[0, 1], wv[1, 2] - wv[0, 3], wv[0, 2] + wv[1, 3], wv[2, 3],
            wv[1, 4] - wv[0, 5], wv[0, 4] + wv[1, 5], wv[2, 4] + wv[3, 5],
            wv[3, 4] - wv[2, 5], wv[4, 5]])
        assert np.array_equal(functors._SU21_BASIS, basis)
        for rows in recipe["generators"].values():
            g = np.array([[complex(re, im) for re, im in row] for row in rows])
            for h in (g, J @ g.conj().T @ J):
                W = loop_minors(functors._complex_to_real6(h), idx, idx)
                coef, *_ = np.linalg.lstsq(basis, W @ basis, rcond=None)
                assert np.array_equal(build_su21_rep(h).mat,
                                      normalize_lift(coef).mat)

    @pytest.mark.parametrize("budget", [1, 5 * 56 * 9 * 8])
    def test_column_blocks_match_one_block(self, monkeypatch, budget):
        # C(8, 3) = 56 columns: one per block, then blocks of 5 and a last of 1
        M = badly_scaled(np.random.default_rng(90), 8)
        whole = wedge_power(M, 3).mat
        monkeypatch.setattr(functors, "_GATHER_BYTES", budget)
        assert np.array_equal(wedge_power(M, 3).mat, whole)
        assert np.array_equal(whole, loop_wedge_power(M, 3))


class TestSymSquare:
    def test_diagonal(self):
        g = np.diag([2.0, 0.5])
        S = sym_square(g)
        assert np.allclose(eigen_moduli(S), [4.0, 1.0, 0.25], rtol=1e-12)

    def test_top_ratio_preserved(self):
        g = np.diag([2.0, 0.5])
        lam = eigen_moduli(g)
        slam = eigen_moduli(sym_square(g))
        assert slam[0] / slam[1] == pytest.approx(lam[0] / lam[1], rel=1e-12)

    def test_identity(self):
        assert np.allclose(sym_square(np.eye(3)).mat, np.eye(6))

    def test_homomorphism(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            A = normalize_lift(rng.normal(size=(3, 3)))
            B = normalize_lift(rng.normal(size=(3, 3)))
            lhs = sym_square(A @ B).mat
            rhs = (sym_square(A) @ sym_square(B)).mat
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_orthogonal_goes_to_orthogonal(self):
        rng = np.random.default_rng(15)
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        S = sym_square(Q).mat
        assert np.abs(S.T @ S - np.eye(S.shape[0])).max() < 1e-10


class TestVeronese:
    def test_basis_point(self):
        v = veronese_point(np.array([1.0, 0.0]))
        assert np.allclose(np.abs(v.vector()), [1.0, 0.0, 0.0])

    def test_diagonal_point_coordinates(self):
        v = veronese_point(np.array([1.0, 1.0]) / np.sqrt(2))
        expected = np.array([0.5, np.sqrt(2) * 0.5, 0.5])
        expected /= np.linalg.norm(expected)
        assert proj_distance(v, Subspace.line(expected)) < 1e-12

    def test_equivariance(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            g = normalize_lift(rng.normal(size=(3, 3)))
            v = rng.normal(size=3)
            lhs = Subspace.line(sym_square(g).mat @ veronese_point(v).vector())
            rhs = veronese_point(g.mat @ v)
            assert proj_distance(lhs, rhs) < 1e-9

    def test_in_cone_closure(self):
        # (f . f)(v . v) >= 0: the symmetric matrix v v^T is PSD
        rng = np.random.default_rng(17)
        v = rng.normal(size=4)
        coords = veronese_point(v).vector()
        # reassemble the symmetric matrix from weighted coordinates
        d = 4
        X = np.zeros((d, d))
        pos = 0
        for i in range(d):
            for j in range(i, d):
                val = coords[pos] if i == j else coords[pos] / np.sqrt(2)
                X[i, j] = X[j, i] = val
                pos += 1
        evals = np.linalg.eigvalsh(X)
        assert evals.min() > -1e-12 or evals.max() < 1e-12  # PSD up to sign


class TestFlagWedge:
    def test_coordinate_plane(self):
        V = Subspace(np.eye(4)[:, :2])
        line = flag_wedge(V)
        expected = np.zeros(6)
        expected[wedge_indices(4, 2).index((0, 1))] = 1.0
        assert proj_distance(line, Subspace.line(expected)) < 1e-12

    def test_frame_invariance(self):
        rng = np.random.default_rng(18)
        F = rng.normal(size=(5, 3))
        V1 = Subspace.from_spanning(F)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        V2 = Subspace(V1.frame @ Q)
        assert proj_distance(flag_wedge(V1), flag_wedge(V2)) < 1e-10

    def test_skew_frame_same_plane(self):
        e = np.eye(3)
        V = Subspace.from_spanning(
            np.column_stack([e[:, 0], (e[:, 0] + e[:, 1]) / np.sqrt(2)]))
        expected = np.zeros(3)
        expected[wedge_indices(3, 2).index((0, 1))] = 1.0
        assert proj_distance(flag_wedge(V), Subspace.line(expected)) < 1e-10


class TestDirectSum:
    def test_ladder_of_sum(self, schottky_rep, tau5_plus_tau2_rep):
        g2 = schottky_rep.generators.element("ab").matrix
        lam = eigen_moduli(g2)[0]
        expected = sorted([lam ** 4, lam ** 2, lam, 1.0,
                           1 / lam, 1 / lam ** 2, 1 / lam ** 4], reverse=True)
        got = eigen_moduli(tau5_plus_tau2_rep.generators.element("ab").matrix)
        assert np.allclose(got, expected, rtol=1e-9)

    def test_three_halves_ratio(self, tau5_plus_tau2_rep):
        lam = eigen_moduli(tau5_plus_tau2_rep.generators.element("ab").matrix)
        ratio = np.log(lam[0] / lam[2]) / np.log(lam[0] / lam[1])
        assert ratio == pytest.approx(1.5, abs=1e-10)

    def test_gap_collapse_tau4_tau6(self, schottky_rep):
        rep = direct_sum_rep(tau_representation(schottky_rep, 4),
                             tau_representation(schottky_rep, 6))
        for word in ("a", "b", "ab", "aB"):
            lam = eigen_moduli(rep.generators.element(word).matrix)
            assert abs(lam[1] / lam[2] - 1.0) < 1e-10

    def test_label_mismatch(self, schottky_rep):
        other = representation_from_matrices({"c": np.diag([2.0, 0.5])})
        with pytest.raises(ValueError, match="label mismatch"):
            direct_sum_rep(schottky_rep, other)


class TestSU21:
    J = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)

    @staticmethod
    def random_su21(rng, scale=0.5):
        import scipy.linalg as sla
        J = TestSU21.J
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        X = 0.5 * (X - np.linalg.inv(J) @ X.conj().T @ J)
        X -= np.trace(X) / 3 * np.eye(3)
        return sla.expm(scale * X)

    def test_diagonal_ladder(self):
        T = build_su21_rep(np.diag([2.0, 1.0, 0.5]))
        expected = [4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.25]
        assert np.allclose(eigen_moduli(T), expected, atol=1e-10)

    def test_identity(self):
        assert np.allclose(build_su21_rep(np.eye(3)).mat, np.eye(9))

    def test_generic_element_ladder(self):
        rng = np.random.default_rng(19)
        g = self.random_su21(rng)
        lam3 = np.sort(np.abs(np.linalg.eigvals(g)))[::-1]
        w = lam3[0]
        T = build_su21_rep(g)
        expected = sorted([w ** 2, w, w, 1, 1, 1, 1 / w, 1 / w, 1 / w ** 2],
                          reverse=True)
        assert np.allclose(eigen_moduli(T), expected, rtol=1e-8)

    def test_homomorphism(self):
        rng = np.random.default_rng(20)
        g, h = self.random_su21(rng), self.random_su21(rng)
        lhs = build_su21_rep(g @ h).mat
        rhs = (build_su21_rep(g) @ build_su21_rep(h)).mat
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_unit_determinant(self):
        rng = np.random.default_rng(21)
        T = build_su21_rep(self.random_su21(rng))
        assert abs(abs(np.linalg.det(T.mat)) - 1.0) < 1e-10

    def test_rejects_non_members(self):
        with pytest.raises(ValueError, match="not in SU"):
            build_su21_rep(np.diag([2.0, 1.0, 1.0]))


class TestHitchinZeta:
    @staticmethod
    def coordinate_flags(d):
        e = np.eye(d)
        return {j: Subspace(e[:, :j]) for j in range(1, d + 1)}

    def test_level_one_d4_k2(self):
        f = self.coordinate_flags(4)
        z1 = hitchin_zeta(f[1], f[2], f[3], f[1], f[2], f[3], 1)
        expected = np.zeros(6)
        expected[wedge_indices(4, 2).index((0, 1))] = 1.0
        assert proj_distance(z1, Subspace.line(expected)) < 1e-12

    def test_level_two_d4_k2(self):
        f = self.coordinate_flags(4)
        z2 = hitchin_zeta(f[1], f[2], f[3], f[1], f[2], f[3], 2)
        idx = wedge_indices(4, 2)
        expected = np.zeros((6, 2))
        expected[idx.index((0, 1)), 0] = 1.0
        expected[idx.index((0, 2)), 1] = 1.0
        assert z2.rank == 2
        assert subspace_distance(z2, Subspace(expected)) < 1e-12

    def test_level_dm2_d4_k2(self):
        f = self.coordinate_flags(4)
        z = hitchin_zeta(f[1], f[2], f[3], f[1], f[2], f[3], "D-2")
        idx = wedge_indices(4, 2)
        assert z.rank == len(idx) - 2
        # excluded wedges: the top one {2,3} and {1,3} (0-based indices)
        excluded = [idx.index((2, 3)), idx.index((1, 3))]
        for row in excluded:
            assert np.abs(z.frame[row, :]).max() < 1e-10

    def test_level_dm1_d4_k2(self):
        f = self.coordinate_flags(4)
        z = hitchin_zeta(f[1], f[2], f[3], f[1], f[2], f[3], "D-1")
        idx = wedge_indices(4, 2)
        assert z.rank == len(idx) - 1
        assert np.abs(z.frame[idx.index((2, 3)), :]).max() < 1e-10

    def test_k1_degeneracies(self):
        # for k=1 the wedge space is R^d itself: level 1 gives the line,
        # level D-2 the (d-2)-flag, level D-1 the hyperplane
        f = self.coordinate_flags(3)
        z1 = hitchin_zeta(None, f[1], f[2], f[1], f[2], None, 1)
        assert proj_distance(z1, Subspace.line(np.eye(3)[:, 0])) < 1e-12
        zDm2 = hitchin_zeta(None, f[1], f[2], f[1], f[2], None, "D-2")
        assert zDm2.rank == 1
        assert proj_distance(zDm2, Subspace.line(np.eye(3)[:, 0])) < 1e-12
        zDm1 = hitchin_zeta(None, f[1], f[2], f[1], f[2], None, "D-1")
        assert subspace_distance(zDm1, Subspace(np.eye(3)[:, :2])) < 1e-12

    def test_nesting_violation(self):
        e = np.eye(4)
        bad = Subspace(e[:, 2:3])  # not containing the 1-flag
        f = self.coordinate_flags(4)
        with pytest.raises(ValueError, match="not nested"):
            hitchin_zeta(f[1], bad, f[3], f[1], f[2], f[3], 1)

    def test_unknown_level(self):
        f = self.coordinate_flags(4)
        with pytest.raises(ValueError, match="level"):
            hitchin_zeta(f[1], f[2], f[3], f[1], f[2], f[3], "D-3")


class TestPerturb:
    def test_eps_zero_identity(self, schottky_rep):
        pert = perturb_rep(schottky_rep, 0.0, 3)
        for l in schottky_rep.generators.positive_labels:
            assert np.allclose(pert.generators.matrices[l].mat,
                               schottky_rep.generators.matrices[l].mat)

    def test_deterministic(self, schottky_rep):
        p1 = perturb_rep(schottky_rep, 1e-3, 42)
        p2 = perturb_rep(schottky_rep, 1e-3, 42)
        for l in schottky_rep.generators.positive_labels:
            assert np.array_equal(p1.generators.matrices[l].mat,
                                  p2.generators.matrices[l].mat)

    def test_seed_matters(self, schottky_rep):
        p1 = perturb_rep(schottky_rep, 1e-3, 1)
        p2 = perturb_rep(schottky_rep, 1e-3, 2)
        assert not np.allclose(p1.generators.matrices["a"].mat,
                               p2.generators.matrices["a"].mat)

    def test_small_perturbation_keeps_gap_slope(self, schottky_rep):
        base = gap_profile(schottky_rep, 1, 4)
        pert = gap_profile(perturb_rep(schottky_rep, 1e-3, 0), 1, 4)
        assert abs(pert.slope - base.slope) / base.slope < 0.10


class TestRecipes:
    def test_replay_chain(self, schottky_rep):
        rep = wedge_representation(tau_representation(schottky_rep, 4), 2)
        rebuilt = build_representation(rep.recipe)
        for l in rep.generators.positive_labels:
            assert np.abs(rebuilt.generators.matrices[l].mat
                          - rep.generators.matrices[l].mat).max() < 1e-8

    def test_replay_sym2_and_sum(self, schottky_rep):
        rep = direct_sum_rep(sym_square_representation(schottky_rep),
                             tau_representation(schottky_rep, 2))
        rebuilt = build_representation(rep.recipe)
        for l in rep.generators.positive_labels:
            assert np.abs(rebuilt.generators.matrices[l].mat
                          - rep.generators.matrices[l].mat).max() < 1e-8

    def test_replay_su21(self):
        rng = np.random.default_rng(22)
        rep = su21_representation({"a": np.diag([2.0, 1.0, 0.5]),
                                   "b": TestSU21.random_su21(rng)})
        rebuilt = build_representation(rep.recipe)
        for l in rep.generators.positive_labels:
            assert np.abs(rebuilt.generators.matrices[l].mat
                          - rep.generators.matrices[l].mat).max() < 1e-8
