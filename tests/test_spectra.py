import math

import numpy as np
import pytest

from anosovlab.functors import (representation_from_matrices,
                                tau_representation, wedge_representation)
from anosovlab.groups import enumerate_ball, inverse_word
from anosovlab.spectra import (alpha_m_estimate, cartan_jordan,
                               cone_diagnostic, gap_profile, gelfand_check,
                               linefit, spectral_table)


class TestCartanJordan:
    def test_diagonal_boost(self):
        rep = representation_from_matrices({"a": np.diag([math.e, 1 / math.e])})
        data = cartan_jordan(rep.generators.element("a"))
        assert np.allclose(data.mu, [1.0, -1.0], atol=1e-12)
        assert np.allclose(data.lam, [1.0, -1.0], atol=1e-12)

    def test_unipotent(self):
        data = cartan_jordan(np.array([[1.0, 1.0], [0.0, 1.0]]))
        phi = (1 + np.sqrt(5)) / 2
        assert np.allclose(data.lam, [0.0, 0.0], atol=1e-10)
        assert np.allclose(data.mu, [np.log(phi), -np.log(phi)], atol=1e-10)

    def test_rotation(self, rotation_rep):
        data = cartan_jordan(rotation_rep.generators.element("a"))
        assert np.allclose(data.mu, 0.0, atol=1e-12)
        assert np.allclose(data.lam, 0.0, atol=1e-12)

    def test_identity_element(self, schottky_rep):
        data = cartan_jordan(schottky_rep.generators.element(""))
        assert np.allclose(data.mu, 0.0) and np.allclose(data.lam, 0.0)

    def test_vectors_sorted_and_sum_zero(self, tau3_rep):
        for g in enumerate_ball(tau3_rep.generators, 3):
            data = cartan_jordan(g)
            assert np.all(np.diff(data.mu) <= 1e-12)
            assert np.all(np.diff(data.lam) <= 1e-12)
            assert abs(data.mu.sum()) < 1e-8
            assert abs(data.lam.sum()) < 1e-8

    def test_inverse_duality(self, tau3_rep):
        gens = tau3_rep.generators
        for g in enumerate_ball(gens, 4):
            if not g.length:
                continue
            fwd = cartan_jordan(g)
            bwd = cartan_jordan(gens.element(inverse_word(g.word)))
            assert np.allclose(fwd.lam, -bwd.lam[::-1], atol=1e-9)
            assert np.allclose(fwd.mu, -bwd.mu[::-1], atol=1e-7)

    def test_mu_majorizes_lambda(self, tau3_rep):
        for g in enumerate_ball(tau3_rep.generators, 4):
            data = cartan_jordan(g)
            partial = np.cumsum(data.mu) - np.cumsum(data.lam)
            assert partial.min() > -1e-6


class TestGapProfile:
    def test_single_boost_exact_line(self):
        rep = representation_from_matrices({"a": np.diag([2.0, 0.5])})
        prof = gap_profile(rep, 1, 5)
        # min gap at length n is n log 4 for powers of a diagonal boost
        assert np.allclose(prof.min_gap, prof.lengths * np.log(4.0), atol=1e-10)
        assert prof.slope == pytest.approx(np.log(4.0), abs=1e-9)
        assert prof.r_squared == pytest.approx(1.0, abs=1e-12)
        assert prof.linear

    def test_elliptic_rep_negative(self, rotation_rep):
        prof = gap_profile(rotation_rep, 1, 5)
        assert not prof.linear
        assert prof.verdict == "linear growth not established"
        assert np.allclose(prof.min_gap, 0.0, atol=1e-10)

    def test_hitchin_image_positive_both_gaps(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 6)
        for k in (1, 2):
            prof = gap_profile(tau3_rep, k, 6, ball=ball)
            assert prof.linear, prof.verdict

    def test_too_few_lengths_no_fit(self, schottky_rep):
        prof = gap_profile(schottky_rep, 1, 2)
        assert prof.slope is None
        assert not prof.linear

    def test_bad_index_rejected(self, schottky_rep):
        with pytest.raises(ValueError, match="out of range"):
            gap_profile(schottky_rep, 2, 3)


class TestAlphaEstimate:
    def test_tau3_is_two(self, tau3_rep):
        est = alpha_m_estimate(tau3_rep, 2, 4)
        assert est.value == pytest.approx(2.0, abs=1e-10)
        assert est.converged

    def test_tau4_is_two(self, tau4_rep):
        # ladder moduli lam^3, lam, 1/lam, 1/lam^3 give
        # log(lam1/lam3) / log(lam1/lam2) = 4 log lam / 2 log lam = 2
        est = alpha_m_estimate(tau4_rep, 2, 4)
        assert est.value == pytest.approx(2.0, abs=1e-10)

    def test_per_radius_monotone(self, tau5_plus_tau2_rep):
        est = alpha_m_estimate(tau5_plus_tau2_rep, 2, 5)
        vals = est.per_radius[~np.isnan(est.per_radius[:, 1]), 1]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_no_witness_error(self, rotation_rep):
        rep3 = tau_representation(rotation_rep, 3)
        with pytest.raises(ValueError, match="no infinite-order witness"):
            alpha_m_estimate(rep3, 2, 3)

    def test_conjugation_invariance(self, tau3_rep):
        rng = np.random.default_rng(30)
        C = rng.normal(size=(3, 3))
        while abs(np.linalg.det(C)) < 0.5:
            C = rng.normal(size=(3, 3))
        Cinv = np.linalg.inv(C)
        conj = representation_from_matrices({
            l: C @ tau3_rep.generators.matrices[l].mat @ Cinv
            for l in tau3_rep.generators.positive_labels})
        e1 = alpha_m_estimate(tau3_rep, 2, 4)
        e2 = alpha_m_estimate(conj, 2, 4)
        assert e1.value == pytest.approx(e2.value, abs=1e-8)

    def test_index_validation(self, tau3_rep):
        with pytest.raises(ValueError, match="out of range"):
            alpha_m_estimate(tau3_rep, 1, 3)


class TestGelfand:
    def test_normal_matrix_exact(self):
        errs = gelfand_check(np.diag([2.0, 0.5]), 1, 30)
        assert errs.max() < 1e-12

    def test_triangular_converges(self):
        errs = gelfand_check(np.array([[2.0, 1.0], [0.0, 0.5]]), 1, 50)
        assert errs[-1] < 1e-2
        assert errs[-1] < errs[0]

    def test_unipotent_log_over_k(self):
        errs = gelfand_check(np.array([[1.0, 1.0], [0.0, 1.0]]), 1, 200)
        # sigma_1 of the k-th power grows like k, so the error ~ log(k)/k
        assert errs[-1] < errs[9] < errs[1]
        assert errs[-1] < 2 * np.log(200) / 200

    def test_deep_powers_stay_finite(self):
        errs = gelfand_check(np.diag([3.0, 1 / 3.0]), 1, 1000)
        assert np.isfinite(errs).all()

    def test_bad_k(self):
        with pytest.raises(ValueError):
            gelfand_check(np.eye(2), 1, 0)


class TestConeDiagnostic:
    def test_single_boost_zero_distance(self):
        rep = representation_from_matrices({"a": np.diag([2.0, 1.0, 0.5])})
        report = cone_diagnostic(rep, 4, 2)
        assert report.max_distance < 1e-9
        assert not report.degenerate

    def test_schottky_cones_close(self, schottky_rep):
        report = cone_diagnostic(schottky_rep, 6, 4)
        assert report.mean_distance < 0.1
        assert report.n_elements > 0

    def test_elliptic_degenerate(self, rotation_rep):
        report = cone_diagnostic(rotation_rep, 4, 2)
        assert report.degenerate

    def test_radius_validation(self, schottky_rep):
        with pytest.raises(ValueError, match="exceed"):
            cone_diagnostic(schottky_rep, 3, 3)


def test_wedge_gap_profile_matches_higher_index(tau4_rep):
    # the k=1 singular gap of the exterior square equals the k=2 gap of
    # the base representation, length by length
    w2 = wedge_representation(tau4_rep, 2)
    ball4 = enumerate_ball(tau4_rep.generators, 4)
    base = gap_profile(tau4_rep, 2, 4, ball=ball4)
    wedge = gap_profile(w2, 1, 4)
    assert np.allclose(base.min_gap, wedge.min_gap, atol=1e-8)
    assert np.allclose(base.max_gap, wedge.max_gap, atol=1e-8)


def test_spectral_table_columns(tau3_rep):
    rows = spectral_table(tau3_rep, 2, m=2)
    assert rows[0]["word"] == "<id>"
    assert math.isnan(rows[0]["ratio_m"])
    for key in ("mu_1", "mu_3", "lambda_1", "lambda_3", "length"):
        assert key in rows[0]
    hyperbolic = [r for r in rows if r["length"] == 1]
    assert all(abs(r["ratio_m"] - 2.0) < 1e-9 for r in hyperbolic)


def test_linefit_r2_constant_data():
    slope, intercept, r2 = linefit([1, 2, 3], [5.0, 5.0, 5.0])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 0.0
