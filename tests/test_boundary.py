import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anosovlab import boundary
from anosovlab.boundary import (FlagSample, LimitCloud, controlled_set_check,
                                hyperconvexity_scan, irreducibility_proxy,
                                limit_samples, transversality_scan)
from anosovlab.functors import (direct_sum_rep, flag_wedge,
                                representation_from_matrices,
                                tau_representation, wedge_power)
from anosovlab.groups import (canonical_cyclic, cyclic_reduce, free_reduce,
                              inverse_word)
from anosovlab.linalg import (Subspace, apply_to_subspace, direct_sum_margin,
                              point_subspace_distance, proj_distance,
                              subspace_distance, top_invariant_subspace)
from anosovlab.spectra import cartan_jordan
from tests.conftest import load_example_config


@pytest.fixture(scope="module")
def tau3_cloud(tau3_rep):
    return limit_samples(tau3_rep, 2, 5)


@pytest.fixture(scope="module")
def tau4_cloud(tau4_rep):
    return limit_samples(tau4_rep, 2, 4)


def make_sample(gens, word, xi1, xim, xi_dm, xi_d1, xi1m):
    """Hand-built flag sample for synthetic scan tests."""
    g = gens.element(word)
    return FlagSample(witness=g, xi1_plus=Subspace.line(xi1),
                      xim_plus=Subspace.from_spanning(xim),
                      xi_dm_minus=Subspace.from_spanning(xi_dm),
                      xi_d1_minus=Subspace.from_spanning(xi_d1),
                      xi1_minus=Subspace.line(xi1m),
                      spectral=cartan_jordan(g))


class TestLimitSamples:
    def test_single_boost_flags(self):
        rep = representation_from_matrices({"a": np.diag([2.0, 1.0, 0.5])})
        with pytest.warns(UserWarning):
            # a one-generator ball has too few lengths for a gap verdict
            cloud = limit_samples(rep, 2, 2)
        by_word = {s.witness.word: s for s in cloud.samples}
        s = by_word["a"]
        e = np.eye(3)
        assert proj_distance(s.xi1_plus, Subspace.line(e[0])) < 1e-10
        assert subspace_distance(s.xim_plus, Subspace(e[:, :2])) < 1e-10
        # the inverse word fixes the opposite flag
        assert proj_distance(by_word["A"].xi1_plus, Subspace.line(e[2])) < 1e-10

    def test_veronese_oracle(self, tau3_rep, tau3_cloud):
        # the limit point of the 3-dimensional image is the square of the
        # dominant covector of the underlying 2x2 element: for the basis
        # X^2, XY, Y^2 the fixed polynomial is (w0 X + w1 Y)^2
        base = None
        for s in tau3_cloud.samples[:40]:
            word = s.witness.word
            from anosovlab.functors import build_representation
            if base is None:
                base = build_representation(tau3_rep.recipe["base"])
            g2 = base.generators.matrix_of_word(word).mat
            evals, vecs = np.linalg.eig(np.linalg.inv(g2).T)
            w = np.real(vecs[:, np.argmax(np.abs(evals))])
            expected = np.array([w[0] ** 2, 2 * w[0] * w[1], w[1] ** 2])
            assert proj_distance(s.xi1_plus, Subspace.line(expected)) < 1e-7

    def test_equivariance_under_conjugation(self, tau3_rep):
        gens = tau3_rep.generators
        for core, eta in [("a", "b"), ("ab", "B"), ("b", "a")]:
            g = gens.element(core)
            conj = gens.element(eta + core + inverse_word(eta))
            xi_core = top_invariant_subspace(g.matrix, 1)
            xi_conj = top_invariant_subspace(conj.matrix, 1)
            moved = apply_to_subspace(gens.matrices[eta].mat, xi_core)
            assert proj_distance(xi_conj, moved) < 1e-7

    def test_dedup_no_close_pairs(self, tau3_cloud):
        pts = tau3_cloud.points()
        gram = np.abs(pts @ pts.T) - np.eye(len(pts))
        # no two kept points closer than the dedup tolerance
        assert gram.max() < 1 - 0.5 * (1e-7) ** 2

    def test_flag_nesting(self, tau4_cloud):
        for s in tau4_cloud.samples:
            assert s.xim_plus.contains(s.xi1_plus, 1e-8)
            assert s.xi_d1_minus.contains(s.xi_dm_minus, 1e-8)
            assert s.xi_dm_minus.contains(s.xi1_minus, 1e-8)

    def test_fixed_point_property(self, tau4_cloud):
        for s in tau4_cloud.samples[:30]:
            M = s.witness.matrix
            assert proj_distance(apply_to_subspace(M.mat, s.xi1_plus),
                                 s.xi1_plus) < 1e-8
            assert subspace_distance(apply_to_subspace(M.mat, s.xim_plus),
                                     s.xim_plus) < 1e-8

    def test_duality_of_inverse_witness(self, tau4_rep, tau4_cloud):
        gens = tau4_rep.generators
        by_word = {s.witness.word: s for s in tau4_cloud.samples}
        checked = 0
        for s in tau4_cloud.samples:
            inv = by_word.get(inverse_word(s.witness.word))
            if inv is None:
                continue
            assert proj_distance(s.xi1_plus, inv.xi1_minus) < 1e-8
            assert proj_distance(s.xi1_minus, inv.xi1_plus) < 1e-8
            assert subspace_distance(s.xim_plus, inv.xi_dm_minus) < 1e-8
            assert subspace_distance(s.xi_dm_minus, inv.xim_plus) < 1e-8
            checked += 1
        assert checked > 10

    def test_wedge_compatibility(self, tau4_cloud):
        for s in tau4_cloud.samples[:25]:
            line = flag_wedge(s.xim_plus)
            W = wedge_power(s.witness.matrix, 2)
            attract = top_invariant_subspace(W, 1)
            assert proj_distance(line, attract) < 1e-7

    def test_no_proximal_elements_error(self, rotation_rep):
        rep3 = tau_representation(rotation_rep, 3)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no proximal"):
                limit_samples(rep3, 2, 2)

    def test_gap_collapse_blocks_sampling(self, schottky_rep):
        # the 4+6 sum has lambda_2 = lambda_3 everywhere: no m=2 flags
        rep = direct_sum_rep(tau_representation(schottky_rep, 4),
                             tau_representation(schottky_rep, 6))
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no proximal"):
                limit_samples(rep, 2, 3)


# 40-digit letters of the shipped Schottky pair and their inverses
_LETTERS = {}
for _label, _rows in load_example_config(
        "schottky_sl2")["representation"]["generators"].items():
    with mpmath.workdps(40):
        _LETTERS[_label] = mpmath.matrix(_rows)
        _LETTERS[_label.upper()] = mpmath.inverse(_LETTERS[_label])


@functools.lru_cache(maxsize=None)
def osculating_plane(word: str, d: int, k: int) -> np.ndarray:
    """Orthonormal frame of the exact attracting k-plane of tau_d(word).

    tau_d acts on degree-(d-1) forms by precomposition with the inverse,
    so its attracting k-plane is the osculating k-plane of the Veronese
    curve at L^(d-1), span{L^(d-j) L'^(j-1) : j <= k}, for the attracting
    linear form L (the top eigenvector of the base word's inverse
    transpose) and any L' independent of it.  Coefficients by Y-degree,
    from 40-digit mpmath products."""
    with mpmath.workdps(40):
        M = mpmath.eye(2)
        for ch in word:
            M = M * _LETTERS[ch]
        E, V = mpmath.eig(mpmath.inverse(M).T)
        top = max(range(2), key=lambda i: abs(E[i]))
        l0, l1 = mpmath.re(V[0, top]), mpmath.re(V[1, top])

        def power(u0, u1, p):
            return [mpmath.binomial(p, t) * u0 ** (p - t) * u1 ** t
                    for t in range(p + 1)]

        cols = []
        for j in range(k):
            a, b = power(l0, l1, d - 1 - j), power(-l1, l0, j)
            cols.append([sum(a[t - s] * b[s] for s in range(len(b))
                             if 0 <= t - s < len(a)) for t in range(d)])
    return np.linalg.qr(np.array(cols, dtype=float).T)[0]


def flag_errors(sample: FlagSample) -> dict:
    """Sine of the largest principal angle between each flag of a sample
    and its exact value."""
    w = sample.witness.word
    d, m = sample.xi1_plus.ambient_dim, sample.xim_plus.rank
    exact = {"xi1_plus": osculating_plane(w, d, 1),
             "xim_plus": osculating_plane(w, d, m),
             "xi1_minus": osculating_plane(inverse_word(w), d, 1),
             "xi_dm_minus": osculating_plane(inverse_word(w), d, d - m),
             "xi_d1_minus": osculating_plane(inverse_word(w), d, d - 1)}
    return {name: subspace_distance(Subspace(E), getattr(sample, name))
            for name, E in exact.items()}


class TestExactFlags:
    """Every flag against the osculating planes of the Veronese curve."""

    @pytest.mark.parametrize("d, m", [
        (d, m) for d in range(3, 8)
        for m in sorted({1, 2, d - 2, d // 2} & set(range(1, d)))])
    def test_flags_match_osculating_planes(self, schottky_rep, d, m):
        cloud = limit_samples(tau_representation(schottky_rep, d), m, 4)
        # one sample per non-identity word of length <= 4 that is no
        # proper power (aa, ABBa = A BB a, ...): 160 - 28
        assert len(cloud) == 132
        worst = max(max(flag_errors(s).values()) for s in cloud.samples)
        assert worst <= 1e-9

    def test_tau5_conjugate_sampled(self, schottky_rep):
        # bbaBB has sigma_1/lambda_1 ~ 1e8: its rounded product showed a
        # spurious complex pair, and its own flags were off by 3e-4
        cloud = limit_samples(tau_representation(schottky_rep, 5), 2, 5)
        sample, = [s for s in cloud.samples if s.witness.word == "bbaBB"]
        assert max(flag_errors(sample).values()) <= 1e-12


def reduced_words(alphabet: str):
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=12).map(
        lambda letters: free_reduce("".join(letters))).filter(bool)


class TestConjugators:
    @given(reduced_words("aAbB") | reduced_words("aAbBcC"))
    def test_reduced_conjugators(self, w):
        c = canonical_cyclic(w)
        P, Q = boundary._conjugators(w, c)
        for x, core in ((P, c), (Q, inverse_word(c))):
            assert free_reduce(x) == x and len(x) < len(w)
            assert free_reduce(x + c + inverse_word(x)) == w
            # x core is a reduced product
            assert free_reduce(x + core) == x + core

    def test_examples(self):
        # w = u core u^-1 with u = "b", core = "aB", c = "Ba" = core[1:] +
        # core[:1]: P = u c[1:] = "ba", Q = u c[:1]^-1 = "bb"
        assert canonical_cyclic("baBB") == "Ba"
        assert boundary._conjugators("baBB", "Ba") == ("ba", "bb")
        assert boundary._conjugators("aab", "aab") == ("", "")
        assert cyclic_reduce("baBB") == "aB"


class TestTransversality:
    def test_coordinate_flags(self, schottky_rep):
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        s1 = make_sample(gens, "a", e[0], e[:, :1], e[:, 2:], e[:, 1:], e[2])
        s2 = make_sample(gens, "A", e[1], e[:, 1:2], e[:, :1],
                         np.column_stack([e[:, 0], e[:, 2]]), e[0])
        cloud = LimitCloud(samples=(s1, s2), m=1, rep_recipe={})
        report = transversality_scan(cloud)
        assert report.min_margin_m == pytest.approx(1.0)

    def test_fuchsian_positive(self, tau3_rep):
        # margins at a tangency shrink quadratically with the point
        # separation, so the bound is tied to the separation scale
        cloud = limit_samples(tau3_rep, 2, 5, dedup_tol=2e-2)
        report = transversality_scan(cloud, sep_tol=5e-2)
        assert report.min_margin_m > 1e-4
        assert report.min_margin_1 > 1e-4
        assert report.n_pairs > 100

    def test_needs_two_samples(self, tau3_cloud):
        single = LimitCloud(samples=tau3_cloud.samples[:1], m=2, rep_recipe={})
        with pytest.raises(ValueError, match="at least 2"):
            transversality_scan(single)


class TestHyperconvexity:
    def test_coordinate_margin_one(self):
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        # three samples whose relevant flags are the coordinate axes
        s1 = make_sample(gens, "a", e[0], e[:, :2], e[:, 2:], e[:, 1:], e[2])
        s2 = make_sample(gens, "aa", e[1], e[:, :2], e[:, 2:], e[:, 1:], e[2])
        s3 = make_sample(gens, "A", e[0], e[:, :2], e[:, 2:], e[:, 1:], e[2])
        cloud = LimitCloud(samples=(s1, s2, s3), m=2, rep_recipe={})
        report = hyperconvexity_scan(cloud, n_triples=20, seed=1, sep_tol=1e-3)
        assert report.min_margin == pytest.approx(1.0, abs=1e-12)

    def test_fuchsian_positive_margins(self, tau3_rep):
        cloud = limit_samples(tau3_rep, 2, 5, dedup_tol=5e-2)
        report = hyperconvexity_scan(cloud, n_triples=200, seed=0)
        assert report.min_margin > 1e-4
        assert report.n_evaluated == 200

    def test_m_mismatch(self, tau3_cloud):
        with pytest.raises(ValueError, match="sampled for m=2"):
            hyperconvexity_scan(tau3_cloud, m=3, n_triples=10, seed=0)

    def test_needs_three_samples(self, tau3_cloud):
        small = LimitCloud(samples=tau3_cloud.samples[:2], m=2, rep_recipe={})
        with pytest.raises(ValueError, match="at least 3"):
            hyperconvexity_scan(small, n_triples=10, seed=0)

    def test_deterministic_given_seed(self, tau3_cloud):
        r1 = hyperconvexity_scan(tau3_cloud, n_triples=50, seed=7)
        r2 = hyperconvexity_scan(tau3_cloud, n_triples=50, seed=7)
        assert np.array_equal(r1.margins, r2.margins)
        assert r1.worst_triple == r2.worst_triple


class TestControlledSet:
    def test_coordinate_example(self):
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        # hyperplane span{e2, e3} at boundary point e2: distance of e1 is 1
        s1 = make_sample(gens, "a", e[0], e[:, :2], e[:, 2:], e[:, 1:], e[1])
        s2 = make_sample(gens, "aa", e[1], e[:, :2], e[:, 2:], e[:, 1:], e[1])
        cloud = LimitCloud(samples=(s1, s2), m=2, rep_recipe={})
        report = controlled_set_check(cloud)
        assert report.min_margin == pytest.approx(1.0)
        # the own-point pair (s2 against its own hyperplane) is skipped
        assert report.n_pairs == 2

    def test_fuchsian_positive(self, tau3_rep):
        cloud = limit_samples(tau3_rep, 2, 5, dedup_tol=1e-2)
        report = controlled_set_check(cloud, sep_tol=1e-2)
        assert report.min_margin > 1e-5
        assert not report.violations


def reference_transversality(cloud, sep_tol=1e-3):
    """The per-pair transversality scan the stacked one replaced."""
    best_m, best_1 = math.inf, math.inf
    pair_m = pair_1 = ("", "")
    n = 0
    for sx in cloud.samples:
        for sy in cloud.samples:
            if proj_distance(sx.xi1_plus, sy.xi1_minus) < sep_tol:
                continue
            n += 1
            marg_m = direct_sum_margin([sx.xim_plus, sy.xi_dm_minus])
            marg_1 = direct_sum_margin([sx.xi1_plus, sy.xi_d1_minus])
            if marg_m < best_m:
                best_m, pair_m = marg_m, (sx.witness.word, sy.witness.word)
            if marg_1 < best_1:
                best_1, pair_1 = marg_1, (sx.witness.word, sy.witness.word)
    return best_m, pair_m, best_1, pair_1, n


def reference_controlled_set(cloud, sep_tol=1e-3, violation_tol=1e-10):
    """The per-pair controlled-set check the stacked one replaced."""
    best = math.inf
    worst = ("", "")
    violations = []
    n = 0
    for sp in cloud.samples:
        p = sp.xi1_plus
        for sy in cloud.samples:
            if proj_distance(p, sy.xi1_minus) < sep_tol:
                continue
            n += 1
            marg = point_subspace_distance(p, sy.xi_d1_minus)
            if marg < best:
                best, worst = marg, (sp.witness.word, sy.witness.word)
            if marg <= violation_tol:
                violations.append((sp.witness.word, sy.witness.word))
    return best, worst, tuple(violations), n


def reference_hyperconvexity(cloud, n_triples, seed, sep_tol=1e-3):
    """The per-triple hyperconvexity scan the stacked one replaced."""
    rng = np.random.default_rng(seed)
    n = len(cloud)
    margins = np.empty(n_triples)
    best = math.inf
    worst = ("", "", "")
    count = 0
    tries = 0
    while count < n_triples:
        tries += 1
        if tries > 2000 * n_triples:
            raise ValueError("cannot find separated triples")
        i, j, k = rng.integers(0, n, 3)
        if i == j or j == k or i == k:
            continue
        sx, sz, sy = cloud.samples[i], cloud.samples[j], cloud.samples[k]
        x1, z1, y1 = sx.xi1_plus, sz.xi1_plus, sy.xi1_minus
        if (proj_distance(x1, z1) < sep_tol
                or proj_distance(x1, y1) < sep_tol
                or proj_distance(z1, y1) < sep_tol):
            continue
        marg = direct_sum_margin([x1, z1, sy.xi_dm_minus])
        margins[count] = marg
        count += 1
        if marg < best:
            best = marg
            worst = (sx.witness.word, sz.witness.word, sy.witness.word)
    return best, worst, margins, count


@pytest.fixture(scope="module")
def tau5_m3_cloud(schottky_rep):
    return limit_samples(tau_representation(schottky_rep, 5), 3, 4)


@pytest.fixture(scope="module", params=["tau3_cloud", "tau4_cloud",
                                        "tau5_m3_cloud"])
def scanned_cloud(request):
    """A cloud with the per-pair reference results of the three scans."""
    cloud = request.getfixturevalue(request.param)
    return cloud, {
        "transversality": reference_transversality(cloud),
        "controlled": reference_controlled_set(cloud),
        "hyperconvexity": reference_hyperconvexity(cloud, 500, seed=3)}


class TestStackedScans:
    """The stacked scans against the per-pair loops they replaced."""

    @staticmethod
    def assert_same(cloud, ref):
        t = transversality_scan(cloud)
        assert (t.min_margin_m, t.worst_pair_m, t.min_margin_1,
                t.worst_pair_1, t.n_pairs) == ref["transversality"]
        c = controlled_set_check(cloud)
        best, worst, violations, n = ref["controlled"]
        assert (c.n_pairs, c.worst_pair, c.violations) == (n, worst,
                                                            violations)
        assert abs(c.min_margin - best) <= 1e-15
        h = hyperconvexity_scan(cloud, n_triples=500, seed=3)
        best, worst, margins, count = ref["hyperconvexity"]
        assert (h.min_margin, h.worst_triple, h.n_evaluated) == (best, worst,
                                                                  count)
        assert np.array_equal(h.margins, margins)

    def test_equal_to_per_pair_loops(self, scanned_cloud):
        self.assert_same(*scanned_cloud)

    def test_chunks_split_mid_row(self, scanned_cloud, monkeypatch):
        cloud, ref = scanned_cloud
        d = cloud.samples[0].xi1_plus.ambient_dim
        # seven pairs per chunk (n is no multiple of 7), one mask row
        monkeypatch.setattr(boundary, "_PAIR_BYTES", 7 * 8 * d * d)
        assert len(cloud) % 7 and 7 * 8 * d * d < len(cloud) * 8 * d
        self.assert_same(cloud, ref)

    def test_ties_keep_the_first_pair(self, monkeypatch):
        # coordinate flags on which every pair ties: the m-margins are 1,
        # and the plus lines lie in the hyperplanes (margins 0)
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        cloud = LimitCloud(samples=tuple(
            make_sample(gens, w, x, e[:, :2], e[:, 2:], e[:, :2], e[2])
            for w, x in [("a", e[0]), ("aa", e[1]), ("A", e[0])]),
            m=2, rep_recipe={})
        monkeypatch.setattr(boundary, "_PAIR_BYTES", 1)  # one per chunk
        ref = {"transversality": reference_transversality(cloud),
               "controlled": reference_controlled_set(cloud),
               "hyperconvexity": reference_hyperconvexity(cloud, 500, seed=3)}
        assert ref["transversality"][:2] == (1.0, ("a", "a"))
        self.assert_same(cloud, ref)

    def test_every_pair_skipped(self, tau4_cloud):
        # a projective distance never exceeds 1, so sep_tol=2 skips all
        t = transversality_scan(tau4_cloud, sep_tol=2.0)
        assert (t.min_margin_m, t.worst_pair_m, t.min_margin_1,
                t.worst_pair_1, t.n_pairs) == (math.inf, ("", ""), math.inf,
                                               ("", ""), 0)
        c = controlled_set_check(tau4_cloud, sep_tol=2.0)
        assert (c.min_margin, c.worst_pair, c.violations, c.n_pairs) == (
            math.inf, ("", ""), (), 0)
        assert reference_transversality(tau4_cloud, sep_tol=2.0) == (
            math.inf, ("", ""), math.inf, ("", ""), 0)
        assert reference_controlled_set(tau4_cloud, sep_tol=2.0) == (
            math.inf, ("", ""), (), 0)
        with pytest.raises(ValueError, match="cannot find 2 separated"):
            hyperconvexity_scan(tau4_cloud, n_triples=2, sep_tol=2.0)


class TestIrreducibilityProxy:
    def test_tau3_irreducible(self, tau3_rep):
        report = irreducibility_proxy(tau3_rep, 3)
        assert report.irreducible
        assert report.xi1_rank == 3
        assert report.min_invariant_dim == 3

    def test_direct_sum_reducible(self, tau5_plus_tau2_rep):
        report = irreducibility_proxy(tau5_plus_tau2_rep, 3)
        assert not report.irreducible
        assert report.min_invariant_dim < 7

    def test_single_boost_reducible(self):
        rep = representation_from_matrices({"a": np.diag([2.0, 1.0, 0.5])})
        report = irreducibility_proxy(rep, 3)
        assert not report.irreducible
        assert report.min_invariant_dim == 1


def test_coverage_stats(tau3_cloud):
    stats = tau3_cloud.coverage_stats()
    assert stats["n"] == len(tau3_cloud)
    assert 0 < stats["nn_min"] <= stats["nn_mean"] <= stats["nn_max"] <= 1
    # finer clouds cover more tightly than coarse nets
    coarse = LimitCloud(samples=tau3_cloud.samples[:4], m=2, rep_recipe={})
    assert coarse.coverage_stats()["nn_mean"] >= stats["nn_min"]


def test_coverage_stats_at_dedup_resolution():
    # two points 1e-7 apart: 1 - cos^2 cancels to about 1% there
    e = np.eye(3)
    gens = representation_from_matrices(
        {"a": np.diag([2.0, 1.0, 0.5])}).generators
    near = np.array([math.sqrt(1.0 - 1e-14), 1e-7, 0.0])
    samples = tuple(make_sample(gens, w, p, e[:, :2], e[:, 2:], e[:, 1:],
                                e[2]) for w, p in (("a", e[0]), ("A", near)))
    stats = LimitCloud(samples=samples, m=2, rep_recipe={}).coverage_stats()
    u, v = (s.xi1_plus.vector() for s in samples)
    with mpmath.workdps(50):
        cos = mpmath.fsum(mpmath.mpf(x) * mpmath.mpf(y) for x, y in zip(u, v))
        norms = (mpmath.fsum(mpmath.mpf(x) ** 2 for x in u)
                 * mpmath.fsum(mpmath.mpf(y) ** 2 for y in v))
        exact = float(mpmath.sqrt(1 - cos ** 2 / norms))
    assert stats["nn_min"] == pytest.approx(exact, rel=1e-12)
    assert stats["nn_max"] == pytest.approx(exact, rel=1e-12)
