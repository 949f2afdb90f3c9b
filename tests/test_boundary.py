import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import boundary
from anosovlab.boundary import (FlagSample, LimitCloud, controlled_set_check,
                                hyperconvexity_scan, irreducibility_proxy,
                                limit_samples, transversality_scan)
from anosovlab.functors import (build_representation, direct_sum_rep,
                                flag_wedge, representation_from_matrices,
                                tau_representation, wedge_power)
from anosovlab.groups import (_sorted_lifts, canonical_cyclic, cyclic_reduce,
                              enumerate_ball, free_reduce, inverse_word)
from anosovlab.linalg import (SpectralGapError, Subspace, _sines,
                              apply_to_subspace, direct_sum_margin,
                              proj_distance, subspace_distance,
                              top_invariant_subspace)
from tests.conftest import load_example_config
from tests.words import (assert_witnesses_formatted, ball_words,
                         class_keys, conjugators, decode, genus2_rep,
                         sl2_letters, word_ball)


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
                      xi1_minus=Subspace.line(xi1m))


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
        pts = tau3_cloud.lines[0]
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

    def test_frames_are_the_stacks_of_the_samples(self, tau4_rep, tau4_cloud):
        # the class-flag stacks, handed to the cloud, against the stacks of
        # a cloud built from the same samples
        rebuilt = LimitCloud(samples=tau4_cloud.samples, m=2, rep_recipe={})
        assert tau4_cloud.frames.keys() == rebuilt.frames.keys()
        for name, F in tau4_cloud.frames.items():
            assert F.tobytes() == rebuilt.frames[name].tobytes()
            assert F.shape == rebuilt.frames[name].shape
            assert not F.flags.writeable
            assert all(getattr(s, name).frame.base is F
                       for s in tau4_cloud.samples)
        assert tau4_cloud.lines.tobytes() == rebuilt.lines.tobytes()
        gens = tau4_rep.generators
        for s in tau4_cloud.samples[::25]:
            assert np.array_equal(s.witness.matrix.mat,
                                  gens.matrix_of_word(s.witness.word).mat)

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
def attracting_form(word: str) -> tuple:
    """The attracting linear form of the base word, the top eigenvector of
    its inverse transpose, from 40-digit mpmath products."""
    with mpmath.workdps(40):
        M = mpmath.eye(2)
        for ch in word:
            M = M * _LETTERS[ch]
        E, V = mpmath.eig(mpmath.inverse(M).T)
        top = max(range(2), key=lambda i: abs(E[i]))
        return mpmath.re(V[0, top]), mpmath.re(V[1, top])


@functools.lru_cache(maxsize=None)
def osculating_plane(word: str, d: int, k: int) -> np.ndarray:
    """Orthonormal frame of the exact attracting k-plane of tau_d(word).

    tau_d acts on degree-(d-1) forms by precomposition with the inverse,
    so its attracting k-plane is the osculating k-plane of the Veronese
    curve at L^(d-1), span{L^(d-j) L'^(j-1) : j <= k}, for the attracting
    linear form L (see :func:`attracting_form`) and any L' independent of
    it.  Coefficients by Y-degree, in 40-digit mpmath."""
    l0, l1 = attracting_form(word)
    with mpmath.workdps(40):

        def power(u0, u1, p):
            return [math.comb(p, t) * u0 ** (p - t) * u1 ** t
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
        (d, m) for d in range(3, 9)
        for m in sorted({1, 2, d - 2, d // 2} & set(range(1, d)))])
    def test_flags_match_osculating_planes(self, schottky_rep, d, m):
        cloud = limit_samples(tau_representation(schottky_rep, d), m, 4)
        # one sample per non-identity word of length <= 4 that is no
        # proper power (aa, ABBa = A BB a, ...): 160 - 28
        assert len(cloud) == 132
        worst = max(max(flag_errors(s).values()) for s in cloud.samples)
        assert worst <= 1e-9

    @pytest.mark.parametrize("d", range(5, 9))
    def test_dual_hyperplanes_keep_their_accuracy(self, schottky_rep, d):
        # moved by the letters' inverse transposes the hyperplanes are
        # within 4.2e-15 of exact; complemented once per class and moved
        # like a direct flag they were off by 8.7e-13 (tau_5) to 5.9e-9
        # (tau_8)
        cloud = limit_samples(tau_representation(schottky_rep, d), 1, 4)
        assert len(cloud) == 132
        worst = max(flag_errors(s)["xi_d1_minus"] for s in cloud.samples)
        assert worst <= 1e-13

    def test_tau5_conjugate_sampled(self, schottky_rep):
        # bbaBB has sigma_1/lambda_1 ~ 1e8: its rounded product showed a
        # spurious complex pair, and its own flags were off by 3e-4
        cloud = limit_samples(tau_representation(schottky_rep, 5), 2, 5)
        sample, = [s for s in cloud.samples if s.witness.word == "bbaBB"]
        assert max(flag_errors(sample).values()) <= 1e-12

    def test_tau7_keeps_every_class(self, schottky_rep):
        # a Schur extraction on the rounded class products dropped the 8
        # elements of the classes of ABabbb and BBBBBa here (1,284 samples)
        cloud = limit_samples(tau_representation(schottky_rep, 7), 3, 6)
        assert len(cloud) == 1292
        worst = max(max(flag_errors(s).values()) for s in cloud.samples)
        assert worst <= 2e-11


def nested_oracle(mats: np.ndarray, rank: int) -> np.ndarray:
    """Nested frames from ``top_invariant_subspace`` extractions, two calls
    per matrix: its top rank-plane, rotated so that its first column is
    its top line."""
    frames = []
    for M in mats:
        line = top_invariant_subspace(M, 1).frame
        plane = top_invariant_subspace(M, rank).frame
        frames.append(plane @ np.linalg.svd(plane.T @ line)[0])
    return np.array(frames)


def schur_witnesses(rep, m: int, radius: int) -> list:
    """Witness words of the limit cloud of ``rep`` by per-class
    ``top_invariant_subspace`` extractions: an element is sampled when
    every flag of its class word c is extracted from M(c) (a ``+`` flag)
    or M(c^-1) (a ``-`` flag) without a ``SpectralGapError``, and its
    line, the top eigenvector of its own matrix, is not within the dedup
    tolerance of an earlier one."""
    gens, d = rep.generators, rep.dim
    flags = [("+", 1), ("+", m), ("-", d - m), ("-", d - 1), ("-", 1)]
    cos_thresh = math.sqrt(1.0 - boundary.DEFAULT_FLAG_DEDUP_TOL ** 2)
    points, witnesses = [], []
    for g in enumerate_ball(gens, radius)[1:]:
        c = canonical_cyclic(g.word)
        sources = {"+": gens.matrix_of_word(c).mat,
                   "-": gens.matrix_of_word(inverse_word(c)).mat}
        try:
            for side, rank in flags:
                top_invariant_subspace(sources[side], rank)
        except SpectralGapError:
            continue
        v = top_invariant_subspace(g.matrix, 1).vector()
        if all(abs(v @ p) <= cos_thresh for p in points):
            points.append(v)
            witnesses.append(g.word)
    return witnesses


class TestClassFlags:
    """The stacked eig start of the class flags against per-class
    ``top_invariant_subspace`` extractions."""

    def test_no_gap_at_the_inverse_end_drops_the_element(self):
        # a = diag(4, .5, .5) has a gap at 1 but none at d - 1: the top
        # eigenvector of a^-1, its minus line, is not determined
        Q = np.linalg.qr([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                          [1.0, 0.0, 2.0]])[0]
        rep = representation_from_matrices({
            "a": np.diag([4.0, 0.5, 0.5]),
            "b": Q @ np.diag([3.0, 1.0, 1 / 3]) @ Q.T})
        with pytest.warns(UserWarning, match="not certified linear"):
            cloud = limit_samples(rep, 1, 3)
        witnesses = schur_witnesses(rep, 1, 3)
        assert cloud.words.tolist() == witnesses
        assert "a" not in witnesses and len(witnesses) == 38

    def test_middle_complex_pair_keeps_the_element(self):
        # a has eigenvalue moduli 8, 4, 2, 2, 1/4: gaps at 1, m = 2 and
        # d - 1 = 4, none at d - m = 3, which no flag needs
        c, s = math.cos(1.0), math.sin(1.0)
        a = np.diag([8.0, 4.0, 2 * c, 2 * c, 0.25])
        a[2, 3], a[3, 2] = -2 * s, 2 * s
        Q = np.linalg.qr(np.arange(25.0).reshape(5, 5) % 7 + np.eye(5))[0]
        rep = representation_from_matrices({
            "a": a, "b": Q @ np.diag([5.0, 3.0, 1.5, 0.7, 0.2]) @ Q.T})
        with pytest.warns(UserWarning, match="not certified linear"):
            cloud = limit_samples(rep, 2, 3)
        witnesses = schur_witnesses(rep, 2, 3)
        assert cloud.words.tolist() == witnesses
        assert "a" in witnesses and len(witnesses) == 25

    def test_stacked_start_matches_schur_oracle(self, schottky_rep,
                                                monkeypatch):
        # tau_5 + tau_3 at m = 3: the top 3-plane holds lambda^2 twice
        rep = direct_sum_rep(tau_representation(schottky_rep, 5),
                             tau_representation(schottky_rep, 3))
        ball = enumerate_ball(rep.generators, 5)
        specs = [("+", 1), ("+", 3), ("-", 5), ("-", 7), ("-", 1)]
        flags = boundary._ClassFlags(ball, specs)
        monkeypatch.setattr(boundary, "_top_frames", nested_oracle)
        oracle = boundary._ClassFlags(ball, specs)

        def projectors(F):
            return F @ F.transpose(0, 2, 1)

        assert np.array_equal(flags.index, oracle.index)
        assert len(flags.index) > 400
        # every rank read from each source's nested frame
        assert sorted(flags._flags) == [("A", 1), ("A", 3), ("At", 1),
                                        ("At", 3), ("B", 1)]
        for src, k in flags._flags:
            assert np.abs(projectors(flags._frames[src][..., :k])
                          - projectors(oracle._frames[src][..., :k])
                          ).max() <= 1e-12
        for F, G in zip(flags(), oracle()):
            assert np.abs(projectors(F) - projectors(G)).max() <= 1e-12

    @pytest.mark.parametrize("d, m", [(4, 2), (7, 3), (7, 4)])
    def test_codes_built_once_equal_per_call_encoding(self, schottky_rep, d,
                                                      m):
        # tau_7 at m = 4 reads the 4-plane of w from Bt
        ball = enumerate_ball(tau_representation(schottky_rep, d).generators,
                              5)
        specs = [("+", 1), ("+", m), ("-", d - m), ("-", d - 1), ("-", 1)]
        flags = boundary._ClassFlags(ball, specs)
        assert sorted(flags._frames) == (["A", "At", "B", "Bt"] if m == 4
                                         else ["A", "At", "B"])
        for F, G in zip(flags(), per_call_flags(ball, specs), strict=True):
            assert (F.shape, F.tobytes()) == (G.shape, G.tobytes())

    @pytest.mark.parametrize("d, m", [(4, 2), (7, 3), (7, 4)])
    def test_frames_of_some_rows_are_those_rows_of_all(self, schottky_rep,
                                                       d, m):
        # limit_samples moves the first flag's source for every element,
        # and the other sources for the rows its dedup keeps
        ball = enumerate_ball(tau_representation(schottky_rep, d).generators,
                              5)
        specs = [("+", 1), ("+", m), ("-", d - m), ("-", d - 1), ("-", 1)]
        flags = boundary._ClassFlags(ball, specs)
        rows = list(range(1, len(flags.index), 3))
        every = flags()
        assert flags.first().tobytes() == every[0].tobytes()
        for F, G in zip(flags(rows), every, strict=True):
            assert F.tobytes() == np.ascontiguousarray(G[rows]).tobytes()

    @pytest.mark.parametrize("d, m, radius", [(4, 2, 5), (6, 2, 4),
                                              (7, 3, 4), (8, 3, 4)])
    def test_direct_flags_share_leading_columns(self, schottky_rep, d, m,
                                                radius):
        # the line and the m-plane of w come from one nested frame of the
        # class matrix, and so do the (d - m)-plane and the line of w^-1
        # when d - m <= d / 2
        F = limit_samples(tau_representation(schottky_rep, d), m,
                          radius).frames
        pairs = [("xim_plus", "xi1_plus")]
        if 2 * (d - m) <= d:
            pairs.append(("xi_dm_minus", "xi1_minus"))
        for big, line in pairs:
            assert np.abs(F[big][..., 0] - F[line][..., 0]).max() <= 1e-14


def per_call_flags(ball, specs) -> list:
    """The frames of ``_ClassFlags(ball, specs)()`` with the letter stack
    built and the words encoded again on every move along a word list."""
    d = ball.gens.dim

    def moved(letters, words, frames):
        code = {x: n + 1 for n, x in enumerate(letters)}
        stack = np.array([np.eye(d), *letters.values()])
        width = max(map(len, words), default=0)
        codes = np.zeros((len(words), width), dtype=np.intp)
        for n, w in enumerate(words):
            codes[n, width - len(w):] = [code[x] for x in w]
        for t in reversed(range(width)):
            frames = np.linalg.qr(stack[codes[:, t]] @ frames)[0]
        return frames

    index = boundary._proximal(ball, [r if side == "+" else d - r
                                      for side, r in specs])
    stack = ball_words(ball.gens, ball.radius)
    kept = [stack[r] for r in ball.rows.tolist()]
    words, member = class_keys(kept)
    classes, at = np.unique(member[index], return_inverse=True)
    letters = {x: M.mat for x, M in ball.gens.matrices.items()}
    duals = {x: letters[x.swapcase()].T for x in letters}
    fwd = [words[k] for k in classes]
    bwd = [inverse_word(c) for c in fwd]
    conj = [conjugators(kept[i], words[member[i]]) for i in index]
    P, Q = [p for p, _ in conj], [q for _, q in conj]
    route = {"A": (letters, fwd, P), "B": (letters, bwd, Q),
             "At": (duals, bwd, Q), "Bt": (duals, fwd, P)}
    row = {w: i for i, w in enumerate(stack)}
    A = ball.products[[row[c] for c in fwd]]
    B = ball.products[[row[c] for c in bwd]]
    sources = {"A": A, "B": B, "At": A.transpose(0, 2, 1),
               "Bt": B.transpose(0, 2, 1)}
    reads = [("A" if side == "+" else "B", r) if 2 * r <= d
             else ("Bt" if side == "+" else "At", d - r)
             for side, r in specs]
    out = {}
    for src in {src for src, _ in reads}:
        frames = boundary._top_frames(sources[src], max(
            k for s, k in reads if s == src))
        for _ in range(3):
            frames = moved(*route[src][:2], frames)
        out[src] = moved(route[src][0], route[src][2], frames[at])
    return [boundary._signed(boundary._complements(out[src][..., :k])
                             if src.endswith("t") else out[src][..., :k])
            for src, k in reads]


def reduced_words(alphabet: str):
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=12).map(
        lambda letters: free_reduce("".join(letters))).filter(bool)


def _greedy_dedup(points, tol):
    """The line dedup as a greedy loop, one GEMV of cosines per row against
    the kept rows: the oracle of ``boundary._dedup``."""
    near = math.sqrt(max(0.0, 1.0 - tol * tol - boundary._BAND))
    kept = []
    rows = np.empty_like(points)  # the kept rows
    for t, v in enumerate(points):
        n = len(kept)
        close = np.flatnonzero(np.abs(rows[:n] @ v) > near)
        if close.size and (_sines(rows[close], v) < tol).any():
            continue
        rows[n] = v
        kept.append(t)
    return kept


def _turned(rng, x, sine):
    """A unit row at the sine ``sine`` from the unit row ``x``."""
    y = rng.standard_normal(x.shape)
    y -= x * (x @ y)
    y /= np.linalg.norm(y)
    return math.sqrt(1.0 - sine * sine) * x + sine * y


class TestDedup:
    """Two lines a fraction of the dedup tolerance on either side of it."""

    @pytest.mark.parametrize("tol", [1e-7, 1e-4, 5e-2])
    @pytest.mark.parametrize("factor, kept", [(0.99, [0, 2]),
                                              (1.01, [0, 1, 2])])
    def test_merged_iff_the_residual_sine_is_below_tol(self, tol, factor,
                                                       kept):
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        theta = math.asin(factor * tol)
        u, v = Q[:, 0], math.cos(theta) * Q[:, 0] + math.sin(theta) * Q[:, 1]
        assert proj_distance(u, v) == pytest.approx(factor * tol, rel=1e-6)
        # near 1 the cosines of the two cases are a few ulps apart
        points = np.array([u, v, Q[:, 2]])
        assert boundary._dedup(points, tol) == kept
        assert boundary._dedup(points[[1, 0, 2]], tol) == kept

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           tol=st.sampled_from([1e-7, 1e-3, 5e-2]),
           extra=st.sampled_from([-1, 0, 1]))
    def test_blocks_keep_the_greedy_lines(self, seed, d, tol, extra):
        # random unit rows about one block long, with planted duplicates,
        # negatives and pairs at 0.97-1.02 tol, and a chain of lines 0.75
        # tol apart across the block edge: its two-step neighbours are 1.5
        # tol apart, so every other line of the chain is kept
        rng = np.random.default_rng(seed)
        edge = boundary._DEDUP_ROWS
        n = edge + extra
        P = rng.standard_normal((n, d))
        P /= np.linalg.norm(P, axis=1)[:, None]
        for t in rng.choice(n, n // 3, replace=False):
            x = P[rng.integers(n)]
            P[t] = [_turned(rng, x, 1e-3 * tol), -x,
                    _turned(rng, x, rng.uniform(0.97, 1.02) * tol)][t % 3]
        a, b = np.linalg.qr(rng.standard_normal((d, 2)))[0].T
        theta = math.asin(0.75 * tol)
        start = edge - int(rng.integers(1, 5))
        for k, t in enumerate(range(start, min(n, start + 8))):
            P[t] = math.cos(k * theta) * a + math.sin(k * theta) * b
        assert boundary._dedup(P, tol) == _greedy_dedup(P, tol)

    @pytest.mark.parametrize("d, radius", [(4, 5), (4, 7), (3, 6), (3, 8)])
    def test_limit_lines_keep_the_greedy_lines(self, schottky_rep, d,
                                               radius):
        # the lines limit_samples dedups at m = 2, at three tolerances:
        # few conflicts at 1e-7, nearly all rows dropped at 5e-2
        ball = enumerate_ball(
            tau_representation(schottky_rep, d).generators, radius)
        lines = boundary._ClassFlags(ball, [
            ("+", 1), ("+", 2), ("-", d - 2), ("-", d - 1), ("-", 1)
        ]).first()[:, :, 0]
        for tol in (1e-7, 1e-3, 5e-2):
            kept = boundary._dedup(lines, tol)
            assert kept == _greedy_dedup(lines, tol)
            assert len(kept) < len(lines)

    def test_kept_lines_are_the_greedy_residual_dedup(self, tau4_rep):
        tol = 1e-2
        cloud = limit_samples(tau4_rep, 2, 4, dedup_tol=tol)
        F = boundary._ClassFlags(enumerate_ball(tau4_rep.generators, 4), [
            ("+", 1), ("+", 2), ("-", 2), ("-", 3), ("-", 1)])()[0][:, :, 0]
        kept = []
        for t, v in enumerate(F):
            if all(proj_distance(F[s], v) >= tol for s in kept):
                kept.append(t)
        assert np.array_equal(cloud.frames["xi1_plus"][:, :, 0], F[kept])
        assert 10 < len(kept) < len(F)



def _quarter_turn_rep():
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    return representation_from_matrices({"a": [[c, -s], [s, c]],
                                         "b": np.diag([3.0, 1 / 3])})


@pytest.mark.filterwarnings("ignore:gap profile")
@pytest.mark.parametrize("name", [
    "fuchsian_tau3", "schottky_sl2", "su21_9dim", "tau5_plus_tau2",
    "tau_d_plus_tau_d2", "quarter_turn", "genus2", "one_generator"])
def test_witness_words_match_strings(name):
    # the cloud's witnesses, formatted from code rows, against the string
    # enumeration, on the shipped configs at their radii and on balls of
    # merged words, four generators and one generator's long powers
    if name == "quarter_turn":
        rep, radius = _quarter_turn_rep(), 8
    elif name == "genus2":
        rep, radius = genus2_rep(), 5
    elif name == "one_generator":
        rep, radius = tau_representation(representation_from_matrices(
            {"a": np.diag([2.0, 0.5])}), 3), 60
    else:
        cfg = load_example_config(name)
        rep, radius = (build_representation(cfg["representation"]),
                       cfg["radius"])
    cloud = limit_samples(rep, 1, radius)
    assert_witnesses_formatted(cloud, enumerate_ball(rep.generators, radius),
                               ball_words(rep.generators, radius))

class TestConjugators:
    @given(reduced_words("aAbB") | reduced_words("aAbBcC"))
    def test_reduced_conjugators(self, w):
        ball = word_ball([w], sl2_letters("abc"))[0]
        c = canonical_cyclic(w)
        P, Q = (decode(ball, x)[0] for x in ball.conjugators([0]))
        assert (P, Q) == conjugators(w, c)
        for x, core in ((P, c), (Q, inverse_word(c))):
            assert free_reduce(x) == x and len(x) < len(w)
            assert free_reduce(x + c + inverse_word(x)) == w
            # x core is a reduced product
            assert free_reduce(x + core) == x + core

    def test_examples(self):
        # w = u core u^-1 with u = "b", core = "aB", c = "Ba" = core[1:] +
        # core[:1]: P = u c[1:] = "ba", Q = u c[:1]^-1 = "bb"
        assert canonical_cyclic("baBB") == "Ba"
        ball = word_ball(["baBB", "aab"], sl2_letters("ab"))[0]
        P, Q = (decode(ball, x) for x in ball.conjugators([0, 1]))
        assert (P, Q) == (["ba", ""], ["bb", ""])
        assert [conjugators(w, canonical_cyclic(w)) for w in (
            "baBB", "aab")] == [("ba", "bb"), ("", "")]
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

    def test_needs_three_samples(self, tau3_cloud):
        small = LimitCloud(samples=tau3_cloud.samples[:2], m=2, rep_recipe={})
        with pytest.raises(ValueError, match="at least 3"):
            hyperconvexity_scan(small, n_triples=10, seed=0)

    @pytest.mark.parametrize("n", [3, 132, 440, 10629])
    def test_batched_draws_equal_per_call_draws(self, n):
        # the scan draws candidate triples in batches: the same stream
        batched, per_call = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(batched.integers(0, n, (700, 3)),
                              [per_call.integers(0, n, 3) for _ in range(700)])
        assert batched.integers(0, 2 ** 62) == per_call.integers(0, 2 ** 62)

    def test_draw_limit_reports_the_count(self):
        # 196 of 10^6 candidate triples are separated: plus points of "a"
        # and every other sample but one coincide, only one minus point
        # lies off them.  The error gives the triples accepted within
        # 2000 draws per requested triple, as drawn one at a time.
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        samples = tuple(
            make_sample(gens, "a" * (t + 1), e[1] if t == 0 else e[0],
                        e[:, :2], e[:, 2:], e[:, 1:],
                        e[2] if t == 99 else e[0]) for t in range(100))
        rng, count = np.random.default_rng(2), 0
        for _ in range(2000 * 3):
            i, j, k = rng.integers(0, 100, 3)
            count += bool(j != i != k != j and 0 in (i, j) and k == 99)
        assert 0 < count < 3
        with pytest.raises(ValueError, match=f"; got {count}$"):
            hyperconvexity_scan(LimitCloud(samples=samples, m=2,
                                           rep_recipe={}), n_triples=3, seed=2)

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

    def test_true_collision_reported(self):
        # in a rotated frame: the plus point of "a" lies in the hyperplane
        # of "aa", whose own boundary point is orthogonal to it
        Q = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        s1 = make_sample(gens, "a", Q[:, 0], Q[:, :2], Q[:, 2:], Q[:, 1:],
                         Q[:, 2])
        s2 = make_sample(gens, "aa", Q[:, 2], Q[:, 1:], Q[:, :1], Q[:, :2],
                         Q[:, 1])
        report = controlled_set_check(
            LimitCloud(samples=(s1, s2), m=2, rep_recipe={}))
        assert report.n_pairs == 3
        assert report.violations == (("a", "aa"),)
        assert report.worst_pair == ("a", "aa")
        assert report.min_margin <= 1e-15

    def test_fuchsian_positive(self, tau3_rep):
        cloud = limit_samples(tau3_rep, 2, 5, dedup_tol=1e-2)
        report = controlled_set_check(cloud, sep_tol=1e-2)
        assert report.min_margin > 1e-5
        assert not report.violations


def stacked(cloud, name):
    """(n, d, k) stack of the samples' frames of flag ``name``."""
    return np.array([getattr(s, name).frame for s in cloud.samples])


def ddots(U, V):
    """The BLAS ``ddot`` of each row of an (n, d) array U with the row
    V or with the matching row of an (n, d) array V, as ``U[i] @ V[i]``
    gives it: a stacked (1, d) @ (d, 1) matmul hands each pair to the
    same ddot."""
    return (np.ascontiguousarray(U)[:, None, :] @ V[..., None])[:, 0, 0]


def unit_lines(cloud, name):
    """The first columns of the samples' frames of flag ``name``, each
    divided by its ``np.linalg.norm`` as ``proj_distance`` does."""
    V = np.ascontiguousarray(stacked(cloud, name)[:, :, 0])
    return V / np.sqrt(ddots(V, V))[:, None]


def norms(R):
    """``np.linalg.norm`` of each row of R, capped at 1 as the distances
    of ``linalg`` are."""
    return np.minimum(1.0, np.sqrt(ddots(R, R)))


def separated(cloud, sep_tol):
    """Rows of the (n, n) mask of ``proj_distance(x.xi1_plus, y.xi1_minus)
    >= sep_tol``, from the same residuals and the same ddot calls."""
    plus, minus = unit_lines(cloud, "xi1_plus"), unit_lines(cloud, "xi1_minus")
    for u in plus:
        yield u, norms(minus - u * ddots(minus, u)[:, None]) >= sep_tol


def first_least(cloud, values):
    """The least value of an (n, n) array (nan where a pair is skipped) and
    the words of its first pair in row-major order; inf and ("", "") for
    none."""
    t = int(np.argmin(np.nan_to_num(values, nan=math.inf)))
    if np.isnan(values.flat[t]):
        return math.inf, ("", "")
    return float(values.flat[t]), tuple(
        cloud.samples[i].witness.word for i in divmod(t, len(cloud)))


def reference_transversality(cloud, sep_tol=1e-3):
    """The per-pair transversality scan with ``direct_sum_margin``, a row
    of the pair grid at a time: the least margins, their first pairs, the
    pair count and the (n, n) margins (nan where a pair is skipped).  Each
    row's matrices [X_a | Y_b] go through one stacked SVD, which hands
    each to the same LAPACK call as ``direct_sum_margin``."""
    n = len(cloud)
    flags = [(stacked(cloud, x), stacked(cloud, y)) for x, y in (
        ("xim_plus", "xi_dm_minus"), ("xi1_plus", "xi_d1_minus"))]
    margins = np.full((2, n, n), np.nan)
    for a, (_, keep) in enumerate(separated(cloud, sep_tol)):
        for layer, (X, Y) in enumerate(flags):
            pairs = np.concatenate([np.broadcast_to(X[a], (n, *X.shape[1:])),
                                    Y], axis=2)[keep]
            if len(pairs):
                margins[layer, a, keep] = np.linalg.svd(
                    pairs, compute_uv=False)[:, -1]
    best_m, pair_m = first_least(cloud, margins[0])
    best_1, pair_1 = first_least(cloud, margins[1])
    n_pairs = int(np.count_nonzero(~np.isnan(margins[0])))
    return best_m, pair_m, best_1, pair_1, n_pairs, margins


def scan_margins(cloud, sep_tol=1e-3):
    """The (n, n) margins of the blocks of ``transversality_scan`` (nan
    where a pair is skipped)."""
    n = len(cloud)
    margins = np.full((2, n, n), np.nan)
    for rows, cols, keep, *values in boundary._transversality_blocks(
            cloud, sep_tol):
        margins[:, rows, cols] = np.where(keep, values, np.nan)
    return margins


def reference_controlled_set(cloud, sep_tol=1e-3, violation_tol=1e-10):
    """The per-pair controlled-set check the stacked one replaced, a row
    of the pair grid at a time: ``point_subspace_distance`` of the plus
    point of x to each hyperplane of y, from the same residual and the
    same BLAS calls."""
    n = len(cloud)
    H = stacked(cloud, "xi_d1_minus")
    dist = np.full((n, n), np.nan)
    for a, (u, keep) in enumerate(separated(cloud, sep_tol)):
        resid = u - (H[keep] @ (H[keep].swapaxes(1, 2) @ u)[..., None])[..., 0]
        dist[a, keep] = norms(resid)
    best, worst = first_least(cloud, dist)
    violations = tuple(
        tuple(cloud.samples[i].witness.word for i in pair)
        for pair in np.argwhere(dist <= violation_tol).tolist())
    return best, worst, violations, int(np.count_nonzero(~np.isnan(dist)))


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


@pytest.fixture(scope="module")
def tau6_m3_cloud(schottky_rep):
    # the m-margins' 3 x 3 blocks take the stacked-SVD fallback
    return limit_samples(tau_representation(schottky_rep, 6), 3, 4)


@pytest.fixture(scope="module", params=["tau3_cloud", "tau4_cloud",
                                        "tau5_m3_cloud", "tau6_m3_cloud"])
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
        # transversality: closed-form margins agree with the per-pair SVD
        # to 1e-12; a worst pair may differ only at a tie within 1e-12
        t = transversality_scan(cloud)
        best_m, pair_m, best_1, pair_1, n, margins = ref["transversality"]
        assert t.n_pairs == n
        scanned = scan_margins(cloud)
        assert np.array_equal(np.isnan(scanned), np.isnan(margins))
        if n:
            assert np.nanmax(np.abs(scanned - margins)) <= 1e-12
        index = {s.witness.word: i for i, s in enumerate(cloud.samples)}
        for got, pair, best, ref_pair, layer in (
                (t.min_margin_m, t.worst_pair_m, best_m, pair_m, 0),
                (t.min_margin_1, t.worst_pair_1, best_1, pair_1, 1)):
            if not n:
                assert (got, pair) == (best, ref_pair)
                continue
            assert abs(got - best) <= 1e-12
            if pair != ref_pair:
                x, y = (index[w] for w in pair)
                assert margins[layer, x, y] <= best + 1e-12
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
        # 2/7 of a row of d x d floats: blocks are pieces of rows, the last
        # one shorter, and batches hold tens of triples
        budget = len(cloud) * 8 * d * d * 2 // 7
        monkeypatch.setattr(boundary, "_PAIR_BYTES", budget)
        assert len(list(boundary._blocks(len(cloud), 8 * d * d))) > 3 * len(
            cloud)
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
        monkeypatch.setattr(boundary, "_PAIR_BYTES", 1)  # one per block
        ref = {"transversality": reference_transversality(cloud),
               "controlled": reference_controlled_set(cloud),
               "hyperconvexity": reference_hyperconvexity(cloud, 500, seed=3)}
        assert ref["transversality"][:2] == (1.0, ("a", "a"))
        self.assert_same(cloud, ref)
        t = transversality_scan(cloud)
        assert (t.min_margin_m, t.worst_pair_m) == (1.0, ("a", "a"))
        assert (t.min_margin_1, t.worst_pair_1) == (0.0, ("a", "a"))

    def test_separation_at_the_threshold(self):
        # at sep_tol equal to a pair's own residual distance the pair is
        # kept, one ulp above it skipped: the squared sines from the GEMM
        # of cosines decide only outside the band
        rng = np.random.default_rng(6)
        P, Q = (v / np.linalg.norm(v, axis=1)[:, None]
                for v in rng.standard_normal((2, 400, 4)))
        Q[:200] = P[:200] + 1e-3 * rng.standard_normal((200, 4))
        Q /= np.linalg.norm(Q, axis=1)[:, None]
        for u, v in zip(P[:, None], Q[:, None]):
            dist = _sines(u, v)[0]
            assert boundary._separated(u, v, dist)[0, 0]
            assert not boundary._separated(u, v, np.nextafter(dist, 2.0))[0, 0]
            assert abs(dist - proj_distance(u[0], v[0])) <= 1e-15

    def test_window_at_its_edges(self):
        # the hoelder kind's anchor scores, the number of points p with
        # lo < _sines(p, x) < hi for each anchor x, counted from
        # _separated(P, X, nextafter(lo, inf), hi), with lo and hi at
        # planted pairs' own distances and one ulp either side of them
        rng = np.random.default_rng(9)

        def unit(v):
            return v / np.linalg.norm(v, axis=1)[:, None]

        X = unit(rng.standard_normal((12, 4)))
        P = unit(np.vstack([X + 1e-3 * rng.standard_normal((12, 4)),
                            X + 0.2 * rng.standard_normal((12, 4)),
                            rng.standard_normal((40, 4))]))
        dp = np.array([_sines(P, x) for x in X])  # (anchor, point)
        for k in range(12):
            lo, hi = dp[k, k], dp[k, 12 + k]
            for a, b in itertools.product(
                    (np.nextafter(lo, 0), lo, np.nextafter(lo, 1)),
                    (np.nextafter(hi, 0), hi, np.nextafter(hi, 1))):
                scores = boundary._separated(
                    P, X, np.nextafter(a, math.inf), b).sum(axis=0)
                assert scores.tolist() == np.count_nonzero(
                    (a < dp) & (dp < b), axis=1).tolist()

    def test_every_pair_skipped(self, tau4_cloud):
        # a projective distance never exceeds 1, so sep_tol=2 skips all
        t = transversality_scan(tau4_cloud, sep_tol=2.0)
        assert (t.min_margin_m, t.worst_pair_m, t.min_margin_1,
                t.worst_pair_1, t.n_pairs) == (math.inf, ("", ""), math.inf,
                                               ("", ""), 0)
        c = controlled_set_check(tau4_cloud, sep_tol=2.0)
        assert (c.min_margin, c.worst_pair, c.violations, c.n_pairs) == (
            math.inf, ("", ""), (), 0)
        assert reference_transversality(tau4_cloud, sep_tol=2.0)[:5] == (
            math.inf, ("", ""), math.inf, ("", ""), 0)
        assert reference_controlled_set(tau4_cloud, sep_tol=2.0) == (
            math.inf, ("", ""), (), 0)
        with pytest.raises(ValueError, match="cannot find 2 separated"):
            hyperconvexity_scan(tau4_cloud, n_triples=2, sep_tol=2.0)


class TestCloudArrays:
    """The array form of a cloud, on the sub-clouds the boundary benchmark
    builds: the witnesses of length <= 4 of a radius-5 cloud."""

    @pytest.fixture(scope="class")
    def clouds(self, tau4_rep):
        cloud = limit_samples(tau4_rep, 2, 5)
        sub = LimitCloud(samples=tuple(s for s in cloud.samples
                                       if s.witness.length <= 4),
                         m=cloud.m, rep_recipe=cloud.rep_recipe)
        return cloud, sub

    def test_sub_cloud_rows_are_the_parent_rows(self, clouds):
        cloud, sub = clouds
        rows = [t for t, s in enumerate(cloud.samples)
                if s.witness.length <= 4]
        assert (len(cloud), len(sub)) == (440, 132)
        for name, F in sub.frames.items():
            parent = cloud.frames[name][rows]
            assert (F.shape, F.tobytes()) == (parent.shape, parent.tobytes())
        parent = cloud.lines[:, rows]
        assert (sub.lines.shape, sub.lines.tobytes()) == (parent.shape,
                                                          parent.tobytes())
        assert sub.words.tolist() == cloud.words[rows].tolist()

    def test_lines_normalized_as_proj_distance_does(self, clouds):
        # a norm over axis 1 changes the last bit of some of these rows
        cloud, _ = clouds
        for lines, name in zip(cloud.lines, ("xi1_plus", "xi1_minus")):
            ref = np.array([v / np.linalg.norm(v) for v in (
                getattr(s, name).frame[:, 0] for s in cloud.samples)])
            assert lines.tobytes() == ref.tobytes()

    def test_sub_cloud_reports_equal_per_pair_loops(self, clouds):
        _, sub = clouds
        TestStackedScans.assert_same(sub, {
            "transversality": reference_transversality(sub),
            "controlled": reference_controlled_set(sub),
            "hyperconvexity": reference_hyperconvexity(sub, 500, seed=3)})

    def test_arrays_built_once_and_read_only(self, clouds):
        cloud, _ = clouds
        assert cloud.frames is cloud.frames
        assert cloud.lines is cloud.lines and cloud.words is cloud.words
        assert list(cloud.frames) == ["xi1_plus", "xim_plus", "xi_dm_minus",
                                      "xi_d1_minus", "xi1_minus"]
        for array in (*cloud.frames.values(), cloud.lines, cloud.words):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]


def flag_pair(rng, d, m, angle):
    """Random complementary frames X (rank m) and Y (rank d - m), in
    random bases, whose least principal angle is ``angle`` if given: the
    first vector of Y leans that far off the first vector of X."""
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    Y = Q[:, m:].copy()
    if angle is not None:
        Y[:, 0] = math.cos(angle) * Q[:, 0] + math.sin(angle) * Q[:, m]

    def rebase(F):
        return F @ np.linalg.qr(rng.standard_normal((F.shape[1],) * 2))[0]
    return rebase(Q[:, :m]), rebase(Y)


class TestClosedFormMargins:
    """The principal-angle margins of the transversality scan against
    ``direct_sum_margin`` and against 50-digit references."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 16))
    def test_random_flags(self, dm, seed, digits):
        d, m = dm
        rng = np.random.default_rng(seed)
        angle = 10.0 ** -digits
        pairs = [flag_pair(rng, d, m, a) for a in (angle, None, None)]
        X, Y = (np.array(F) for F in zip(*pairs))
        margins = boundary._FlagPair(X, Y)(slice(0, 3), slice(0, 3))
        for a in range(3):
            for b in range(3):
                ref = direct_sum_margin([X[a], Y[b]])
                assert abs(margins[a, b] - ref) <= 1e-12
        # [X Y] of the constructed pair has sigma_min^2 = 1 - cos(angle)
        assert abs(margins[0, 0] - math.sqrt(2) * math.sin(angle / 2)) <= 1e-15

    def test_zero_sine_block(self):
        # a 2-plane against itself in R^4: the 2 x 2 sine block is 0 and
        # so is the margin, with no 0 / 0 (a RuntimeWarning fails here)
        e = np.eye(4)
        X = np.array([e[:, :2], e[:, :2]])
        Y = np.array([e[:, :2], e[:, 2:]])
        margins = boundary._FlagPair(X, Y)(slice(0, 2), slice(0, 2))
        assert np.array_equal(margins, [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("d, m", [(4, 2), (6, 3)])
    def test_smallest_margins_against_mpmath(self, schottky_rep, d, m):
        cloud = limit_samples(tau_representation(schottky_rep, d), m, 4)
        margins = np.nan_to_num(scan_margins(cloud), nan=math.inf)
        flags = (("xim_plus", "xi_dm_minus"), ("xi1_plus", "xi_d1_minus"))
        for layer, (fx, fy) in enumerate(flags):
            for t in np.argsort(margins[layer], axis=None)[:30]:
                x, y = divmod(int(t), len(cloud))
                A = np.hstack([getattr(cloud.samples[x], fx).frame,
                               getattr(cloud.samples[y], fy).frame])
                with mpmath.workdps(50):
                    exact = min(mpmath.svd_r(mpmath.matrix(A.tolist()),
                                             compute_uv=False))
                assert abs(margins[layer, x, y] - float(exact)) <= 1e-15

    def test_memory_linear_in_samples(self, schottky_rep, monkeypatch):
        used = []  # the bytes per pair each scan passes to _blocks
        blocks = boundary._blocks

        def recorded(n, item_bytes):
            used.append(item_bytes)
            return blocks(n, item_bytes)

        monkeypatch.setattr(boundary, "_blocks", recorded)
        # the margins' floats per pair: the sine and cosine entries of
        # both flag pairs, and 16 more for the block's mask, cosines and
        # results; the distances' d + 8
        for d, m, radius, floats in ((3, 2, 6, 3 + 3), (4, 2, 5, 8 + 4),
                                     (6, 3, 4, 18 + 6)):
            cloud = limit_samples(tau_representation(schottky_rep, d), m,
                                  radius)
            n = len(cloud)
            for scan, pair_bytes in ((transversality_scan, 8 * (floats + 16)),
                                     (controlled_set_check, 8 * (d + 8))):
                tracemalloc.start()
                try:
                    report = scan(cloud)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert report.n_pairs > n * (n - 1) // 2
                assert used[-1] == pair_bytes
                # four of the largest block at that count, plus the
                # (n, d, d) stacks
                largest = max((r.stop - r.start) * (c.stop - c.start)
                              for r, c in blocks(n, pair_bytes))
                assert largest * pair_bytes <= boundary._PAIR_BYTES
                bound = 4 * largest * pair_bytes + 4 * n * d * d * 8
                assert peak <= bound
                if n > 1000:
                    # at tau_3 R=6: less than one (n, n) boolean mask
                    assert bound < n * n


class TestIrreducibilityProxy:
    def test_tau3_irreducible(self, tau3_rep):
        report = irreducibility_proxy(enumerate_ball(tau3_rep.generators, 3))
        assert report.irreducible
        assert report.xi1_rank == 3
        assert report.min_invariant_dim == 3

    def test_direct_sum_reducible(self, tau5_plus_tau2_rep):
        report = irreducibility_proxy(
            enumerate_ball(tau5_plus_tau2_rep.generators, 3))
        assert not report.irreducible
        assert report.min_invariant_dim < 7

    def test_single_boost_reducible(self):
        rep = representation_from_matrices({"a": np.diag([2.0, 1.0, 0.5])})
        report = irreducibility_proxy(enumerate_ball(rep.generators, 3))
        assert not report.irreducible
        assert report.min_invariant_dim == 1


def test_coverage_stats(tau3_cloud):
    stats = tau3_cloud.coverage_stats()
    assert stats["n"] == len(tau3_cloud)
    assert 0 < stats["nn_min"] <= stats["nn_mean"] <= stats["nn_max"] <= 1
    # finer clouds cover more tightly than coarse nets
    coarse = LimitCloud(samples=tau3_cloud.samples[:4], m=2, rep_recipe={})
    assert coarse.coverage_stats()["nn_mean"] >= stats["nn_min"]


def _nearest_by_cosines(P):
    """Each unit row p's least residual sine ``_sines(p, q)`` over the
    other rows q, from all pairs: |cos| of every pair from a GEMM, and the
    residual for each row's pairs within 1e-9 of its greatest |cos|,
    which hold its least sine whatever the rounding."""
    nn = np.full(len(P), math.inf)
    for start in range(0, len(P), 256):
        rows = np.arange(start, min(start + 256, len(P)))
        c = np.abs(P[rows] @ P.T)
        c[np.arange(len(rows)), rows] = -1.0
        a, b = np.nonzero(c >= c.max(axis=1, keepdims=True) - 1e-9)
        np.minimum.at(nn, rows[a], _sines(P[rows[a]], P[b]))
    return nn


def _nearest_by_kdtree(P):
    """The same from the nearest lift +-q by chordal distance, found by
    scipy's cKDTree (imported here alone), then its residual sine."""
    from scipy.spatial import cKDTree
    _, hit = cKDTree(np.vstack([P, -P])).query(P, k=2)
    return _sines(P, P[hit[:, 1] % len(P)])


def _coverage_of(nn):
    return {"n": len(nn), "nn_max": float(nn.max()),
            "nn_mean": float(nn.mean()), "nn_min": float(nn.min())}


class TestCoverageSearch:
    """The projection search of ``coverage_stats`` against all pairs and
    against a k-d tree: the same nearest-neighbour sines, bit for bit."""

    @staticmethod
    def assert_equal_to_references(cloud):
        P = cloud.lines[0]
        assert (cloud.coverage_stats() == _coverage_of(_nearest_by_cosines(P))
                == _coverage_of(_nearest_by_kdtree(P)))

    @staticmethod
    def cloud_of(points):
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        e = np.eye(3)
        return LimitCloud(samples=tuple(
            make_sample(gens, "a", p, e[:, :2], e[:, 2:], e[:, 1:], e[2])
            for p in points), m=2, rep_recipe={})

    @pytest.mark.parametrize("d, radius", [(3, 6), (3, 7), (3, 8), (4, 5),
                                           (4, 7)])
    def test_limit_clouds(self, schottky_rep, d, radius):
        self.assert_equal_to_references(limit_samples(
            tau_representation(schottky_rep, d), 2, radius))

    def test_copies_antipodes_and_pairs(self):
        rng = np.random.default_rng(12)
        P = rng.standard_normal((60, 3))
        for points in (np.vstack([P, P[:5]]), np.vstack([P, -P[5:10]]),
                       P[:2], np.vstack([P[:1], -P[:1]])):
            cloud = self.cloud_of(points)
            self.assert_equal_to_references(cloud)
            if len(points) != 2:
                assert cloud.coverage_stats()["nn_min"] <= 1e-15

    def test_points_that_project_alike(self):
        # points on the great circle orthogonal to the sweep's weights: all
        # lifts project within rounding of 0, so the sides stay open over
        # O(n) steps
        w = _sorted_lifts(np.zeros((1, 3)))[0]
        u, v = np.linalg.svd(w[None])[2][1:]
        t = np.sort(np.random.default_rng(13).uniform(0, np.pi, 300))
        cloud = self.cloud_of(np.cos(t)[:, None] * u + np.sin(t)[:, None] * v)
        assert np.ptp(cloud.lines[0] @ w) < 1e-14
        self.assert_equal_to_references(cloud)


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
