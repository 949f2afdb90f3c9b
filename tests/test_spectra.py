import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab.functors import (build_representation, perturb_rep,
                                representation_from_matrices,
                                sym_square_representation,
                                tau_representation, wedge_representation)
from anosovlab.groups import (GeneratorSet, enumerate_ball, free_reduce,
                              inverse_label, inverse_word)
from anosovlab.linalg import MatrixD
from anosovlab.spectra import (_diagonal_blocks, alpha_m_estimate,
                               cartan_jordan, cone_diagnostic, gap_profile,
                               gelfand_check, linefit, spectral_kernel,
                               spectral_table)
from tests.conftest import load_example_config


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

    @pytest.mark.parametrize("d, word", [(6, "ab" * 48), (9, "ab" * 20)])
    def test_overflow_is_named(self, schottky_rep, d, word):
        # the top compounds of these words leave the double range, where
        # LAPACK would fail; no overflow warning comes first
        gens = tau_representation(schottky_rep, d).generators
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match=f"dimension {d}; the longest word has "
                                     f"length {len(word)}"):
                cartan_jordan(gens.element(word))

    def test_mu_majorizes_lambda(self, tau3_rep):
        for g in enumerate_ball(tau3_rep.generators, 4):
            data = cartan_jordan(g)
            partial = np.cumsum(data.mu) - np.cumsum(data.lam)
            assert partial.min() > -1e-6


class TestGapProfile:
    def test_single_boost_exact_line(self):
        rep = representation_from_matrices({"a": np.diag([2.0, 0.5])})
        prof = gap_profile(enumerate_ball(rep.generators, 5), 1)
        # min gap at length n is n log 4 for powers of a diagonal boost
        assert np.allclose(prof.min_gap, prof.lengths * np.log(4.0), atol=1e-10)
        assert prof.slope == pytest.approx(np.log(4.0), abs=1e-9)
        assert prof.r_squared == pytest.approx(1.0, abs=1e-12)
        assert prof.linear

    def test_elliptic_rep_negative(self, rotation_rep):
        prof = gap_profile(enumerate_ball(rotation_rep.generators, 5), 1)
        assert not prof.linear
        assert prof.verdict == "linear growth not established"
        assert np.allclose(prof.min_gap, 0.0, atol=1e-10)

    def test_hitchin_image_positive_both_gaps(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 6)
        for k in (1, 2):
            prof = gap_profile(ball, k)
            assert prof.linear, prof.verdict

    def test_too_few_lengths_no_fit(self, schottky_rep):
        prof = gap_profile(enumerate_ball(schottky_rep.generators, 2), 1)
        assert prof.slope is None
        assert not prof.linear

    def test_bad_index_rejected(self, schottky_rep):
        with pytest.raises(ValueError, match="out of range"):
            gap_profile(enumerate_ball(schottky_rep.generators, 3), 2)


class TestAlphaEstimate:
    def test_tau3_is_two(self, tau3_rep):
        est = alpha_m_estimate(enumerate_ball(tau3_rep.generators, 4), 2)
        assert est.value == pytest.approx(2.0, abs=1e-10)
        assert est.converged

    def test_tau4_is_two(self, tau4_rep):
        # ladder moduli lam^3, lam, 1/lam, 1/lam^3 give
        # log(lam1/lam3) / log(lam1/lam2) = 4 log lam / 2 log lam = 2
        est = alpha_m_estimate(enumerate_ball(tau4_rep.generators, 4), 2)
        assert est.value == pytest.approx(2.0, abs=1e-10)

    def test_per_radius_monotone(self, tau5_plus_tau2_rep):
        est = alpha_m_estimate(
            enumerate_ball(tau5_plus_tau2_rep.generators, 5), 2)
        vals = est.per_radius[~np.isnan(est.per_radius[:, 1]), 1]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_no_witness_error(self, rotation_rep):
        rep3 = tau_representation(rotation_rep, 3)
        with pytest.raises(ValueError, match="no infinite-order witness"):
            alpha_m_estimate(enumerate_ball(rep3.generators, 3), 2)

    def test_conjugation_invariance(self, tau3_rep):
        rng = np.random.default_rng(30)
        C = rng.normal(size=(3, 3))
        while abs(np.linalg.det(C)) < 0.5:
            C = rng.normal(size=(3, 3))
        Cinv = np.linalg.inv(C)
        conj = representation_from_matrices({
            l: C @ tau3_rep.generators.matrices[l].mat @ Cinv
            for l in tau3_rep.generators.positive_labels})
        e1 = alpha_m_estimate(enumerate_ball(tau3_rep.generators, 4), 2)
        e2 = alpha_m_estimate(enumerate_ball(conj.generators, 4), 2)
        assert e1.value == pytest.approx(e2.value, abs=1e-8)

    def test_index_validation(self, tau3_rep):
        with pytest.raises(ValueError, match="out of range"):
            alpha_m_estimate(enumerate_ball(tau3_rep.generators, 3), 1)

    def test_tau7_reads_no_underflowed_modulus(self, schottky_rep):
        # the bottom moduli of long words' rounded products underflow to
        # 0; the ladder never reads them, and a log of 0 fails the suite
        tau7 = tau_representation(schottky_rep, 7)
        est = alpha_m_estimate(enumerate_ball(tau7.generators, 6), 3)
        # moduli lam^6, lam^4, lam^2, 1, ...: 6 log lam / 4 log lam
        assert est.value == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("eps, witness", [(0.2, "A"), (0.05, "ABab")])
    def test_witness_is_the_shortest_tie(self, eps, witness):
        # at eps 0.2 the ratio of A ties those of its powers within
        # rounding, and AAAAA held the least rounded ratio
        base = build_representation(
            load_example_config("fuchsian_tau3")["representation"])
        ball = enumerate_ball(perturb_rep(base, eps, 3).generators, 6)
        est = alpha_m_estimate(ball, 2)
        assert est.witness.word == witness
        lam = ball.jordan[[g.word for g in ball].index(witness)]
        ratio = (lam[0] - lam[2]) / (lam[0] - lam[1])
        assert est.value <= ratio <= est.value * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["fuchsian_tau3", "su21_9dim",
                                      "tau5_plus_tau2"])
    def test_shipped_config_reads_its_ball(self, name):
        # the witness and the per-radius table come from one ball
        cfg = load_example_config(name)
        ball = enumerate_ball(
            build_representation(cfg["representation"]).generators,
            cfg["radius"])
        est = alpha_m_estimate(ball, cfg["experiment"]["m"])
        assert est.witness.length <= ball.radius
        assert est.per_radius[-1, 1] == est.value


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
        report = cone_diagnostic(enumerate_ball(rep.generators, 4), 2)
        assert report.max_distance < 1e-9
        assert not report.degenerate

    def test_schottky_cones_close(self, schottky_rep):
        report = cone_diagnostic(enumerate_ball(schottky_rep.generators, 6),
                                 4)
        assert report.mean_distance < 0.1
        assert report.n_elements > 0

    def test_elliptic_degenerate(self, rotation_rep):
        report = cone_diagnostic(enumerate_ball(rotation_rep.generators, 4),
                                 2)
        assert report.degenerate

    def test_radius_validation(self, schottky_rep):
        with pytest.raises(ValueError, match="exceed"):
            cone_diagnostic(enumerate_ball(schottky_rep.generators, 3), 3)


def test_wedge_gap_profile_matches_higher_index(tau4_rep):
    # the k=1 singular gap of the exterior square equals the k=2 gap of
    # the base representation, length by length
    w2 = wedge_representation(tau4_rep, 2)
    ball4 = enumerate_ball(tau4_rep.generators, 4)
    base = gap_profile(ball4, 2)
    wedge = gap_profile(enumerate_ball(w2.generators, 4), 1)
    assert np.allclose(base.min_gap, wedge.min_gap, atol=1e-8)
    assert np.allclose(base.max_gap, wedge.max_gap, atol=1e-8)


def test_spectral_table_columns(tau3_rep):
    ball = enumerate_ball(tau3_rep.generators, 2)
    header, columns, values = spectral_table(ball, m=2)
    assert values.shape == (len(ball), 7) and values.dtype == np.float64
    words, lengths = columns
    assert len(words) == len(ball) and lengths.dtype.kind == "i"
    rows = [dict(zip(header, [*cells, *v]))
            for cells, v in zip(zip(words, lengths.tolist()),
                                values.tolist())]
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


# ---------------------------------------------------------------------------
# the compound ladder against exact references

_BASE = load_example_config("schottky_sl2")["representation"]["generators"]
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def seeded_words(seed: int, count: int, length: int) -> list[str]:
    """Reduced words of one length over the Schottky letters."""
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(count):
        w = ""
        while len(w) < length:
            ch = "aAbB"[rng.integers(4)]
            if not w or ch != _INVERSE[w[-1]]:
                w += ch
        words.append(w)
    return words


def base_word(word: str):
    """80-digit product of the 2x2 base letters (unit determinant)."""
    M = mpmath.eye(2)
    for ch in word:
        A = mpmath.matrix(_BASE[ch.lower()])
        A = A / mpmath.sqrt(abs(mpmath.det(A)))
        M = M * (A if ch.islower() else mpmath.inverse(A))
    return M


def tau_exact(M, d: int):
    """tau_d of a unit-determinant 2x2 mpmath matrix, in the monomial
    basis X^(d-1-i) Y^i of :func:`anosovlab.functors.tau_d`: column j
    holds the coefficients of (h00 X + h01 Y)^(d-1-j) (h10 X + h11 Y)^j,
    h = M^-1."""
    h = mpmath.inverse(M)
    n = d - 1
    T = mpmath.zeros(d, d)
    for j in range(d):
        for s in range(n - j + 1):
            for t in range(j + 1):
                T[s + t, j] += (mpmath.binomial(n - j, s)
                                * h[0, 0] ** (n - j - s) * h[0, 1] ** s
                                * mpmath.binomial(j, t)
                                * h[1, 0] ** (j - t) * h[1, 1] ** t)
    return T


class TestLadderOracle:
    """Every index of tau_3..tau_7 at lengths 6-8 within 1e-9 of exact:
    Cartan vectors against the 80-digit singular values of tau_d of the
    base word (the product of the tau_d generators at 80 digits), Jordan
    vectors against the closed form (d - 1 - 2j) log|lambda_1(core)|."""

    @pytest.mark.parametrize("length", [6, 7, 8], ids="L{}".format)
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7], ids="tau{}".format)
    def test_tau_words(self, schottky_rep, d, length):
        gens = tau_representation(schottky_rep, d).generators
        for word in seeded_words(100 * d + length, 10, length):
            data = cartan_jordan(gens.element(word))
            with mpmath.workdps(80):
                M = base_word(word)
                sig = mpmath.svd_r(tau_exact(M, d), compute_uv=False)
                mu = sorted((mpmath.log(s) for s in sig), reverse=True)
                tr = abs(M[0, 0] + M[1, 1])
                top = (mpmath.log((tr + mpmath.sqrt(tr * tr - 4)) / 2)
                       if tr > 2 else mpmath.mpf(0))
                lam = [(d - 1 - 2 * j) * top for j in range(d)]
            assert np.abs(data.mu - np.array(mu, dtype=float)).max() < 1e-9
            assert np.abs(data.lam - np.array(lam, dtype=float)).max() < 1e-9


def reduced(min_size: int, max_size: int):
    """Freely reduced words over the Schottky letters."""
    return st.lists(st.sampled_from("aAbB"), min_size=min_size,
                    max_size=max_size).map(free_reduce)


def _conjugated(rep, seed: int):
    """The representation conjugated by a seeded matrix of condition
    number below 10: its generators share no block structure."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(rep.dim, rep.dim)))[0]
    C = Q @ np.diag(np.linspace(1.0, 3.0, rep.dim))
    Cinv = np.linalg.inv(C)
    return representation_from_matrices({
        l: C @ rep.generators.matrices[l].mat @ Cinv
        for l in rep.generators.positive_labels})


class TestLadderProperties:
    @settings(max_examples=30, deadline=None)
    @given(reduced(1, 7), reduced(0, 3))
    def test_jordan_conjugation_invariant(self, tau4_rep, word, conj):
        # a conjugate word in a conjugated basis keeps the Jordan vector
        other = _conjugated(tau4_rep, 5).generators
        lam = cartan_jordan(tau4_rep.generators.element(word)).lam
        moved = cartan_jordan(
            other.element(conj + word + inverse_word(conj))).lam
        assert np.abs(lam - moved).max() < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(reduced(1, 8))
    def test_inverse_duality(self, schottky_rep, word):
        gens = tau_representation(schottky_rep, 5).generators
        fwd = cartan_jordan(gens.element(word))
        bwd = cartan_jordan(gens.element(inverse_word(word)))
        assert np.abs(fwd.mu + bwd.mu[::-1]).max() < 1e-10
        assert np.abs(fwd.lam + bwd.lam[::-1]).max() < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(reduced(0, 8))
    def test_direct_sum_is_sorted_union(self, schottky_rep,
                                        tau5_plus_tau2_rep, word):
        total = cartan_jordan(tau5_plus_tau2_rep.generators.element(word))
        parts = [cartan_jordan(tau_representation(schottky_rep, d)
                               .generators.element(word)) for d in (5, 2)]
        for got, vecs in ((total.mu, [p.mu for p in parts]),
                          (total.lam, [p.lam for p in parts])):
            union = np.sort(np.concatenate(vecs))[::-1]
            assert np.abs(got - union).max() < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(reduced(0, 6))
    def test_functor_jordan_is_pairwise_sums(self, tau3_rep, tau4_rep,
                                             word):
        for rep, functor, strict in (
                (tau4_rep, wedge_representation(tau4_rep, 2), True),
                (tau3_rep, sym_square_representation(tau3_rep), False)):
            lam = cartan_jordan(rep.generators.element(word)).lam
            pairs = [lam[i] + lam[j] for i in range(len(lam))
                     for j in range(i + strict, len(lam))]
            got = cartan_jordan(functor.generators.element(word)).lam
            assert np.abs(got - np.sort(pairs)[::-1]).max() < 1e-10


class TestOddMiddle:
    """The middle index of an odd block is its log|det| minus the other
    indices, so a block's Cartan and Jordan vectors sum to its log|det|,
    0 for a block that fills the space.  Each odd block is read on its
    own, as the generators restricted to it: summed with the other
    blocks, an even block's top and bottom values, read off a word and
    its inverse, leave up to 1,880 ulps on tau5_plus_tau2."""

    @pytest.mark.parametrize("name, radius", [
        ("fuchsian_tau3", 5), ("tau5_plus_tau2", 4), ("su21_9dim", 3)])
    def test_blocks_sum_to_their_logdet(self, name, radius):
        gens = build_representation(
            load_example_config(name)["representation"]).generators
        odd = [B for B in _diagonal_blocks(gens) if len(B) % 2]
        assert odd
        for B in odd:
            block = GeneratorSet.from_matrices(
                {x: MatrixD(gens.matrices[x].mat[np.ix_(B, B)])
                 for x in gens.positive_labels},
                {x: MatrixD(gens.matrices[inverse_label(x)].mat[np.ix_(B, B)])
                 for x in gens.positive_labels})
            ball = enumerate_ball(block, radius)
            for vectors in (ball.cartan, ball.jordan):
                assert vectors.shape == (len(ball), len(B))
                for v in vectors:
                    assert (abs(math.fsum(v))
                            <= 8 * np.spacing(np.abs(v).max()))


class TestCappedBlock:
    """A 10-dimensional block builds compounds up to k = 3 (C(10, 4) =
    210 is past the cap); the middle four indices come from the product's
    own spectrum, shifted to the block's log|det|."""

    def test_report(self, schottky_rep):
        rep = tau_representation(schottky_rep, 10)
        assert spectral_kernel(rep.generators) == {
            "blocks": [10], "paths": ["capped at k=3"]}

    def test_covered_indices_exact(self, schottky_rep):
        ball = enumerate_ball(tau_representation(schottky_rep, 10).generators,
                              3)
        for vectors in (ball.cartan, ball.jordan):
            assert np.isfinite(vectors).all()
            assert np.abs(vectors.sum(axis=1)).max() < 1e-9
        covered = [0, 1, 2, 7, 8, 9]
        for i, g in enumerate(ball):
            if g.length < 3:
                continue
            with mpmath.workdps(80):
                M = base_word(g.word)
                tr = abs(M[0, 0] + M[1, 1])
                top = (mpmath.log((tr + mpmath.sqrt(tr * tr - 4)) / 2)
                       if tr > 2 else mpmath.mpf(0))
                lam = np.array([(9 - 2 * j) * top for j in range(10)],
                               dtype=float)
                if i % 9 == 0:  # a sample of the Cartan vectors
                    sig = mpmath.svd_r(tau_exact(M, 10), compute_uv=False)
                    mu = np.array(sorted((mpmath.log(s) for s in sig),
                                         reverse=True), dtype=float)
                    assert np.abs(ball.cartan[i] - mu)[covered].max() < 1e-9
            assert np.abs(ball.jordan[i] - lam)[covered].max() < 1e-9
