import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anosovlab.functors import build_representation, tau_representation
from anosovlab.groups import (Ball, BallTooLargeError, GeneratorSet,
                              GroupElement, canonical_cyclic, cyclic_reduce,
                              enumerate_ball, free_reduce, inverse_label,
                              inverse_word, prefix_tree, word_products)
from anosovlab.spectra import cartan_jordan, spectral_table
from tests.conftest import load_example_config
from tests.words import (assert_words_formatted, assert_words_match_strings,
                         ball_words, class_keys, decode, genus2_rep,
                         reduced_word_lists, sl2_letters, word_ball)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_free_reduction():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abAB") == "abAB"
    assert free_reduce("aBbA") == ""


def test_cyclic_reduction():
    assert cyclic_reduce("BBabb") == "a"
    assert cyclic_reduce("abA") == "b"
    assert cyclic_reduce("ab") == "ab"


def test_inverse_word():
    assert inverse_word("abA") == "aBA"
    assert free_reduce("abA" + inverse_word("abA")) == ""


def test_inverse_word_matches_per_letter_definition():
    rng = np.random.default_rng(13)
    letters = list("abcAzZBC")
    for _ in range(500):
        word = "".join(rng.choice(letters, size=rng.integers(0, 12)))
        assert inverse_word(word) == "".join(
            inverse_label(ch) for ch in reversed(word))


def _canonical_by_definition(word):
    """The least rotation of the word's cyclically reduced core."""
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == inverse_label(w[-1]):
        w = w[1:-1]
    return min((w[i:] + w[:i] for i in range(len(w))), default=w)


class TestEnumerateBall:
    def test_free_counts_radius_two(self, schottky_rep):
        # 1 + 4 + 4*3 reduced words for two generators and inverses
        ball = enumerate_ball(schottky_rep.generators, 2)
        assert len(ball) == 17

    def test_free_counts_radius_three(self, schottky_rep):
        ball = enumerate_ball(schottky_rep.generators, 3)
        assert len(ball) == 1 + 4 + 12 + 36

    def test_radius_zero(self, schottky_rep):
        ball = enumerate_ball(schottky_rep.generators, 0)
        assert len(ball) == 1
        assert ball[0].word == ""
        assert np.allclose(ball[0].matrix.mat, np.eye(2))
        # no letter column; the empty word is formatted as <id>
        assert ball.codes.shape == (1, 0)
        assert ball_words(schottky_rep.generators, 0) == [""]
        assert_words_formatted(ball, [""])
        assert spectral_table(ball)[1] == [["<id>", 0]]

    @pytest.mark.parametrize("radius", range(5))
    def test_radius_survives_merges(self, radius):
        # a quarter turn squares to -I, the identity of PGL: every word of
        # length >= 2 merges, yet the ball keeps its enumeration radius
        gens = GeneratorSet.from_matrices({"a": rotation(np.pi / 2)})
        ball = enumerate_ball(gens, radius)
        assert ball.lengths.max() == min(radius, 1)
        assert ball.radius == radius

    def test_involution_dedup(self):
        # a = diag(1, -1) squares to the identity; the lift has |det| = 1
        gens = GeneratorSet.from_matrices({"a": np.diag([1.0, -1.0])})
        ball = enumerate_ball(gens, 2)
        # words "", a, A, aa, AA collapse to two elements
        assert len(ball) == 2
        assert ball[0].word == ""

    def test_relation_dedup_keeps_shortest(self):
        # order-3 rotation: a^3 = id, a^2 = a^{-1}
        gens = GeneratorSet.from_matrices({"a": rotation(2 * np.pi / 3)})
        ball = enumerate_ball(gens, 3)
        words = {g.word for g in ball}
        assert words == {"", "A", "a"}

    def test_closed_under_inverse(self, schottky_rep):
        ball = enumerate_ball(schottky_rep.generators, 3)
        gens = schottky_rep.generators
        for g in ball:
            inv_mat = gens.matrix_of_word(inverse_word(g.word)).mat
            assert np.abs(inv_mat @ g.matrix.mat - np.eye(2)).max() < 1e-7

    def test_deterministic(self, schottky_rep):
        b1 = enumerate_ball(schottky_rep.generators, 3)
        b2 = enumerate_ball(schottky_rep.generators, 3)
        assert [g.word for g in b1] == [g.word for g in b2]

    def test_sorted_by_length_then_word(self, schottky_rep):
        ball = enumerate_ball(schottky_rep.generators, 3)
        keys = [(g.length, g.word) for g in ball]
        assert keys == sorted(keys)

    def test_ball_cap(self, schottky_rep):
        # 1 + 4 (3^15 - 1) / 2 = 28,697,813 words exceed the 5,000,000 cap
        with pytest.raises(BallTooLargeError, match="ball too large: "
                           "28697813 words exceed cap 5000000"):
            enumerate_ball(schottky_rep.generators, 15)

    def test_matrix_matches_word_product(self, schottky_rep):
        ball = enumerate_ball(schottky_rep.generators, 3)
        gens = schottky_rep.generators
        for g in ball[::7]:
            direct = gens.matrix_of_word(g.word).mat
            assert np.abs(direct - g.matrix.mat).max() < 1e-8


class TestGeneratorSet:
    def test_symmetric_with_exact_inverses(self, schottky_rep):
        gens = schottky_rep.generators
        for label in gens.positive_labels:
            prod = gens.matrices[label].mat @ gens.matrices[label.upper()].mat
            assert np.abs(prod - np.eye(gens.dim)).max() < 1e-8

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="lowercase"):
            GeneratorSet.from_matrices({"A": np.eye(2)})
        with pytest.raises(ValueError, match="lowercase"):
            GeneratorSet.from_matrices({"ab": np.eye(2)})

    @pytest.mark.parametrize("label", ["ß", "é", "ǆ"])
    def test_rejects_non_ascii_letters(self, label):
        # lowercase letters whose swapcase is not their one-letter inverse
        with pytest.raises(ValueError, match="a-z"):
            GeneratorSet.from_matrices({label: np.eye(2)})

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one generator"):
            GeneratorSet.from_matrices({})

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            GeneratorSet.from_matrices({"a": np.eye(2), "b": np.eye(3)})

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matrix_of_word_matches_letter_chain(self, schottky_rep, d):
        # the oracle: one matrix product per letter, from the identity
        gens = (schottky_rep if d == 2
                else tau_representation(schottky_rep, d)).generators
        rng = np.random.default_rng(d)
        for _ in range(20):
            word = "".join(rng.choice(list("aAbB"), size=rng.integers(0, 13)))
            chain = np.eye(d)
            for ch in word:
                chain = chain @ gens.matrices[ch].mat
            assert np.array_equal(gens.matrix_of_word(word).mat, chain), word

    def test_overflowing_word_is_named(self, schottky_rep):
        # the products themselves leave the double range, with no
        # overflow warning first
        gens = tau_representation(schottky_rep, 6).generators
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="dimension 6; the longest word has "
                                     "length 400"):
                gens.element("ab" * 200)

    def test_unknown_letters_are_named(self, schottky_rep):
        # the one parser of words rejects a letter outside the generators
        gens = schottky_rep.generators
        with pytest.raises(ValueError, match="letter 'x' is not among the "
                                             "generator labels a, A, b, B"):
            gens.element("x")
        with pytest.raises(ValueError, match="letter 'z' is not among"):
            gens.matrix_of_word("az")
        with pytest.raises(ValueError, match="letter 'z' is not among"):
            cartan_jordan(GroupElement("az", gens.matrix_of_word("a"), gens))


class TestInfiniteOrderProxy:
    """An element of infinite order shows a spread Jordan vector; elliptic
    and trivial elements have all moduli 1."""

    @staticmethod
    def spread(g) -> float:
        lam = cartan_jordan(g).lam
        return lam[0] - lam[-1]

    def test_hyperbolic(self, schottky_rep):
        assert self.spread(schottky_rep.generators.element("a")) > 1e-9

    def test_elliptic(self, rotation_rep):
        assert self.spread(rotation_rep.generators.element("a")) < 1e-12

    def test_identity(self, schottky_rep):
        assert self.spread(schottky_rep.generators.element("")) == 0.0


def test_dedup_keeps_the_least_index_of_each_component():
    from anosovlab.groups import _dedup_indices
    rng = np.random.default_rng(33)
    mats = [rng.normal(size=(2, 2)) for _ in range(6)]
    # plant duplicates: the same matrix twice, and one of opposite sign
    mats[3] = mats[1].copy()
    mats[4] = -mats[2]
    assert _dedup_indices(mats, 1e-9) == [0, 1, 2, 5]
    # permuted, the components {1, 3} and {2, 4} sit at positions {2, 1}
    # and {5, 3}: each keeps its first position
    perm = [5, 3, 1, 4, 0, 2]
    assert _dedup_indices([mats[p] for p in perm], 1e-9) == [0, 1, 3, 4]


def _least_of_components(words, pairs):
    """The (length, word)-least index of each component of the graph on
    the indices of ``words`` with edges ``pairs``, in index order."""
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(len(words)):
        classes.setdefault(find(i), []).append(i)

    def key(i):
        return len(words[i]), words[i]

    return sorted(min(c, key=key) for c in classes.values())


def _all_pairs_dedup(words, mats, tol):
    """The merge by an all-pairs union-find: rows whose matrices agree up
    to sign within ``tol`` (Chebyshev) merge, and each class keeps its
    (length, word)-smallest row."""
    flat = np.asarray(mats).reshape(len(words), -1)
    apart = np.minimum(np.abs(flat[:, None] - flat).max(axis=2),
                       np.abs(flat[:, None] + flat).max(axis=2))
    return _least_of_components(
        words, zip(*np.nonzero(np.triu(apart <= tol, 1))))


def _kdtree_dedup(words, mats, tol):
    """The same merge from the pairs of lifts +-x within ``tol``
    (Chebyshev) that scipy's cKDTree finds, scipy imported here alone."""
    from scipy.spatial import cKDTree
    flat = np.asarray(mats).reshape(len(words), -1)
    pairs = cKDTree(np.vstack([flat, -flat])).query_pairs(
        tol, p=np.inf, output_type="ndarray")
    return _least_of_components(words, (pairs % len(words)).tolist())


@pytest.mark.parametrize("size", [3, 4])  # 9 and 16 entries
def test_dedup_matches_all_pairs_reference(size):
    from anosovlab.groups import _dedup_indices
    tol = 2.0 ** -27  # a power of two: "exactly tol apart" is exact
    below, above = np.nextafter(tol, 0), np.nextafter(tol, 1)
    rng = np.random.default_rng(size)
    mats = list(rng.normal(size=(40, size, size)))
    # entries around 1e6, as in the tau_3 ball of radius 8, where the
    # rounded projections of the sweep are off by more than tol
    large = list(1e6 * rng.normal(size=(9, size, size)))

    def noise():
        return 0.4 * tol * rng.uniform(-1, 1, (size, size))

    def shifted(base, by):
        out = np.full((size, size), base)
        out[1, 1] += by
        return out

    def at(base, value):
        out = np.full((size, size), base)
        out[1, 1] = value
        return out

    def moved(x, by):
        out = x.copy()
        out[1, 1] += by
        return out

    ulp = [abs(np.spacing(x[1, 1])) for x in large]
    planted = [
        (mats[0] + noise(), True), (-mats[1], True),
        (-(mats[2] + noise()), True),
        # a chain a ~ b ~ c with a and c more than tol apart
        (shifted(0.5, 0), False), (shifted(0.5, 0.6 * tol), True),
        (shifted(0.5, 1.2 * tol), True),
        # pairs exactly tol apart and one ulp of tol either side of it
        (at(0.75, 0), False), (at(0.75, tol), True),
        (at(0.3, 0), False), (at(0.3, below), True),
        (at(0.35, 0), False), (at(0.35, above), False),
        (shifted(0.25, 0), False), (shifted(0.25, tol * (1 + 1e-6)), False),
        # the same about the -lift of the partner
        (at(0.4, 0), False), (-at(0.4, tol), True),
        (at(0.45, 0), False), (-at(0.45, above), False),
        # at 1e6, one ulp of the entry either side of tol, and -lifts
        (large[0] + noise(), True),
        (moved(large[1], tol), True),
        (moved(large[2], tol + ulp[2]), False),
        (-moved(large[3], tol - ulp[3]), True),
        (-moved(large[4], tol + ulp[4]), False),
        # tol apart in every entry: the exact projections are at the edge
        # of the sweep's window, and the rounded ones fall either side
        *((x + tol, True) for x in mats[3:7]),
        *((-(x - tol), True) for x in large[5:9])]
    # the planted distances are exact
    for x, y, distance in (
            (at(0.3, 0), at(0.3, below), below),
            (at(0.35, 0), at(0.35, above), above),
            (large[1], moved(large[1], tol), tol),
            (large[2], moved(large[2], tol + ulp[2]), tol + ulp[2]),
            (large[3], moved(large[3], tol - ulp[3]), tol - ulp[3]),
            (mats[3], mats[3] + tol, tol), (large[5], large[5] - tol, tol)):
        assert np.abs(x - y).max() == distance
    mats += large + [x for x, _ in planted]
    # in (length, word) order, as the ball's rows are, so that each
    # component's least position is its least word
    words = sorted(("a" * int(k) + f"b{i}"
                    for i, k in enumerate(rng.integers(0, 4, len(mats)))),
                   key=lambda w: (len(w), w))
    mats = [mats[int(w[w.index("b") + 1:])] for w in words]
    keep = _dedup_indices(mats, tol)
    assert keep == _all_pairs_dedup(words, mats, tol)
    assert keep == _kdtree_dedup(words, mats, tol)
    assert len(keep) == len(mats) - sum(merged for _, merged in planted)


def _rx(theta):
    out = np.eye(3)
    out[1:, 1:] = rotation(theta)
    return out


# balls whose words collide in PGL by the hundred: a quarter turn a with
# a b a^-1 = b^-1, and the rotation group of the cube
QUARTER_TURN = {"a": rotation(np.pi / 2), "b": np.diag([3.0, 1.0 / 3.0])}
OCTAHEDRAL = {"a": _rx(np.pi / 2),
              "b": np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                             [-1.0, 0.0, 0.0]])}


@pytest.mark.parametrize("gens, kept", [(QUARTER_TURN, 20),
                                        (OCTAHEDRAL, 24)])
def test_dedup_of_colliding_balls_matches_references(gens, kept):
    from anosovlab.groups import _dedup_indices
    gens = GeneratorSet.from_matrices(gens)
    ball, words = enumerate_ball(gens, 5), ball_words(gens, 5)
    keep = _dedup_indices(ball.products, 1e-8)
    assert (len(words), len(keep)) == (485, kept)
    assert keep == _all_pairs_dedup(words, ball.products, 1e-8)
    assert keep == _kdtree_dedup(words, ball.products, 1e-8)


@pytest.mark.parametrize("name, radius", [
    ("fuchsian_tau3", 8), ("schottky_sl2", 8), ("su21_9dim", 6),
    ("tau5_plus_tau2", 7), ("tau_d_plus_tau_d2", 7)])
def test_dedup_matches_kdtree_on_shipped_configs(name, radius):
    rep = build_representation(load_example_config(name)["representation"])
    ball = enumerate_ball(rep.generators, radius)
    assert ball.rows.tolist() == _kdtree_dedup(
        ball_words(rep.generators, radius), ball.products, 1e-8)


def test_dedup_matches_kdtree_on_tau4(tau4_rep):
    ball = enumerate_ball(tau4_rep.generators, 5)
    assert ball.rows.tolist() == _kdtree_dedup(
        ball_words(tau4_rep.generators, 5), ball.products, 1e-8)


@pytest.mark.parametrize("sweep_bytes", [4 << 20, 64])
def test_dedup_merges_a_chain_in_reverse_rank_order(monkeypatch,
                                                    sweep_bytes):
    # entries k and k + 1 within tol, k and k + 2 not: one component of
    # 1,200 rows whose positions fall along the chain, its least entry
    # placed last, so the least position, at the far end, must reach the
    # least entry; a second such chain, of negative entries, is
    # interleaved with it.  At 64 bytes the pairs are confirmed and merged
    # 8 at a time
    from anosovlab import groups
    from anosovlab.groups import _dedup_indices
    monkeypatch.setattr(groups, "_SWEEP_BYTES", sweep_bytes)
    tol, n = 2.0 ** -20, 1200
    steps = 0.75 * tol * np.arange(n)  # exact, as are the sums below
    mats = np.empty((2 * n, 1, 1))
    mats[0::2, 0, 0] = 0.5 + steps
    mats[1::2, 0, 0] = -(0.25 + steps[::-1])
    mats = mats[::-1]
    words = [f"b{k:05d}" for k in range(2 * n)]
    keep = _dedup_indices(mats, tol)
    assert keep == [0, 1]
    assert keep == _all_pairs_dedup(words, mats, tol)


def test_join_leaves_every_rank_at_its_root():
    # the merge of _dedup_indices, one chunk of confirmed pairs at a time.
    # Indices 0..6 stand for y < c0 < c1 < c2 < c3 < e < t.  The first chunk
    # hangs t under e; the second hooks e -> c3 -> c2 -> c1 -> c0 in one
    # round, five pointers from t to its root, and its own pairs agree
    # after two jumps, which leave t at c1; the third joins t to y.  Had
    # t been left at c1, that hook would move c1 off the tree of c0 and
    # split the component the first two chunks joined
    from anosovlab.groups import _join
    y, c0, c1, c2, c3, e, t = range(7)
    root = np.arange(7)
    for a, b in (([t], [e]), ([c0, c1, c2, c3], [c1, c2, c3, e]),
                 ([t], [y])):
        root = _join(root, np.array(a), np.array(b))
        assert (root[root] == root).all()
    assert (root == y).all()


def test_dedup_confirms_each_pair_once(monkeypatch):
    # the windows of x and -x find each pair of rows twice, in mirrored
    # order; the quarter-turn ball has ties of equal matrices, which the
    # lifts' order mirrors too
    from anosovlab import groups
    from anosovlab.groups import _join
    joined = []

    def join(root, a, b):
        joined.extend(zip(a.tolist(), b.tolist()))
        return _join(root, a, b)

    monkeypatch.setattr(groups, "_join", join)
    ball = enumerate_ball(GeneratorSet.from_matrices(QUARTER_TURN), 5)
    flat = ball.products.reshape(len(ball.products), -1)
    apart = np.minimum(np.abs(flat[:, None] - flat).max(axis=2),
                       np.abs(flat[:, None] + flat).max(axis=2))
    pairs = np.count_nonzero(np.triu(apart <= 1e-8, 1))
    assert len(joined) == len(set(map(frozenset, joined))) == pairs > 1000


def test_dedup_joins_chunks_as_join_does(monkeypatch):
    # the chunks of test_join_leaves_every_rank_at_its_root, delivered by
    # the sweep: rows y < c0 < c1 < c2 < c3 < e < t of two entries, where
    # only the pairs t-e, the chain c0-c1-c2-c3-e and t-y are within tol,
    # and a pair z0 < z1 far above them.  Their projections increase
    # along c0, c1, c2, c3, y, t, e.  Each pair is confirmed once, from
    # the lift whose row comes first: the - lifts (swept first, by
    # decreasing projection) give t-e, the + lifts the chain, then t-y
    # and z0-z1.  At 192 bytes a chunk holds 12 candidates, which cuts
    # the sweep into three chunks, one each for t-e, the chain and t-y
    from anosovlab import groups
    from anosovlab.groups import _dedup_indices, _join
    chunks = []

    def join(root, a, b):
        if len(a):
            chunks.append(list(zip(a.tolist(), b.tolist())))
        return _join(root, a, b)

    monkeypatch.setattr(groups, "_join", join)
    monkeypatch.setattr(groups, "_SWEEP_BYTES", 192)
    tol = 2.0 ** -20
    y, c0, c1, c2, c3, e, t, z0, z1 = range(9)  # the rows
    at = [(0.5, -1.5), (-3.6, 0.4), (-2.7, 0.4), (-1.8, 0.4), (-0.9, 0.4),
          (0.0, 0.0), (0.2, -0.7), (1 / tol, 1 / tol),
          (1 / tol, 1 / tol + 0.75)]  # in units of tol from (1, 1)
    mats = (1.0 + tol * np.array(at)).reshape(-1, 1, 2)
    words = ["", "a", "b", "c", "d", "aa", "ab", "ba", "bb"]
    keep = _dedup_indices(mats, tol)
    assert keep == _all_pairs_dedup(words, mats, tol) == [y, z0]
    assert chunks == [[(e, t)], [(c0, c1), (c1, c2), (c2, c3), (c3, e)],
                      [(y, t), (z0, z1)]]


def test_dedup_merges_to_the_shortest_word():
    # a = rotation by pi/2 squares to -1, the identity in PGL: with the
    # parabolic b the 1,457 words of radius 6 merge to 104 elements
    from anosovlab.groups import _dedup_indices
    gens = GeneratorSet.from_matrices({
        "a": rotation(np.pi / 2), "b": np.array([[1.0, 1.0], [0.0, 1.0]])})
    ball = enumerate_ball(gens, 6)
    assert (len(ball.products), len(ball)) == (1457, 104)
    # a = -A merges into A, the smaller word of length 1
    assert [g.word for g in ball][:6] == ["", "A", "B", "b", "AB", "Ab"]
    small, words = enumerate_ball(gens, 4), ball_words(gens, 4)
    keep = _dedup_indices(small.products, 1e-8)
    assert keep == _all_pairs_dedup(words, small.products, 1e-8)
    assert len(keep) < len(words) - 40


class TestBall:
    """The ball's stacked rows against the per-word reference path."""

    @staticmethod
    def assert_matches_reference(ball, elements):
        gens = ball.gens
        index = {g.word: i for i, g in enumerate(ball)}
        for g in elements:
            i = index[g.word]
            ref = cartan_jordan(gens.element(g.word))
            assert np.array_equal(ball.cartan[i], ref.mu)
            assert np.array_equal(ball.jordan[i], ref.lam)
            inverse = ball.products[ball.inverse_rows[i]]
            assert np.array_equal(
                inverse, gens.matrix_of_word(inverse_word(g.word)).mat)

    def test_tau3_rows_match_reference(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 4)
        self.assert_matches_reference(ball, ball)

    def test_block_sum_rows_match_reference(self, tau5_plus_tau2_rep):
        # compounds of both blocks, each associated left to right
        ball = enumerate_ball(tau5_plus_tau2_rep.generators, 3)
        self.assert_matches_reference(ball, ball)

    def test_merged_inverse_read_from_all_words(self):
        # a^2 = -1, so a and A are one PGL element: A is kept, a merged
        gens = GeneratorSet.from_matrices({"a": rotation(np.pi / 2),
                                           "b": np.diag([3.0, 1.0 / 3.0])})
        ball = enumerate_ball(gens, 3)
        words = {g.word for g in ball}
        assert "A" in words and "a" not in words
        self.assert_matches_reference(ball, ball)

    def test_products_match_word_products(self, tau3_rep,
                                           tau5_plus_tau2_rep):
        # every enumerated word, merged or kept, against its own product
        quarter_turn = GeneratorSet.from_matrices(
            {"a": rotation(np.pi / 2), "b": np.diag([3.0, 1.0 / 3.0])})
        for gens, radius in ((tau3_rep.generators, 4),
                             (tau5_plus_tau2_rep.generators, 3),
                             (quarter_turn, 3)):
            ball, words = enumerate_ball(gens, radius), ball_words(gens, radius)
            assert len(ball.products) == len(words)
            for w, product in zip(words, ball.products):
                assert np.array_equal(product, gens.matrix_of_word(w).mat), w

    def test_slice(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 4)
        part = ball[::7]
        assert [g.word for g in part] == [g.word for g in ball][::7]
        self.assert_matches_reference(ball, part)

    def test_sequence_protocol(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 3)
        words = ball_words(tau3_rep.generators, 3)
        n = len(ball)
        assert n == len(ball.rows) == 1 + 4 + 12 + 36
        for i in (0, 5, n - 1, -1, -n):
            g, r = ball[i], ball.rows[i]
            assert isinstance(g, GroupElement) and g.gens is ball.gens
            assert g.word == words[r]
            assert np.array_equal(g.matrix.mat, ball.products[r])
        assert ball[np.int64(3)].word == ball[3].word
        assert [g.word for g in ball] == [words[r] for r in ball.rows]
        assert [g.word for g in ball[2:9:3]] == [ball[i].word
                                                 for i in (2, 5, 8)]
        assert ball[n:] == []
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                ball[i]

    def test_classes_match_canonical_cyclic(self, tau3_rep):
        three = GeneratorSet.from_matrices(
            {"a": np.diag([2.0, 0.5]), "b": [[1.25, 0.75], [0.75, 1.25]],
             "c": rotation(0.3) @ np.diag([3.0, 1 / 3]) @ rotation(-0.3)})
        for gens, radius in ((tau3_rep.generators, 6), (three, 4)):
            ball = enumerate_ball(gens, radius)
            rows, _, member = ball.classes
            classes = decode(ball, ball.codes[rows])
            keys = [canonical_cyclic(g.word) for g in ball]
            assert [classes[k] for k in member] == keys
            assert classes == list(dict.fromkeys(keys))
            assert keys == [_canonical_by_definition(g.word) for g in ball]

    @staticmethod
    def assert_tree_matches_strings(ball, words):
        # the bookkeeping read off the prefix tree against the string
        # definitions it replaces, ``words`` being the stack rows' words
        (prefix, last), rows = prefix_tree(ball.gens, words)
        assert ball.prefix.dtype == prefix.dtype and ball.last.dtype == last.dtype
        assert np.array_equal(ball.prefix, prefix)
        assert np.array_equal(ball.last, last)
        assert np.array_equal(rows, np.arange(len(words)))
        kept = [words[i] for i in ball.rows.tolist()]
        row = {w: i for i, w in enumerate(words)}
        assert ball.inverse_rows.tolist() == [row[inverse_word(w)]
                                              for w in kept]
        assert ball.lengths.tolist() == [len(w) for w in kept]
        assert np.array_equal(ball.products, word_products(ball.gens, words))

    @pytest.mark.parametrize("gens, radius", [
        ({"a": np.diag([2.0, 0.5])}, 5),
        ({"a": np.diag([2.0, 0.5]), "b": [[1.25, 0.75], [0.75, 1.25]]}, 5),
        ({"a": np.diag([2.0, 0.5]), "b": [[1.25, 0.75], [0.75, 1.25]],
          "c": rotation(0.3) @ np.diag([3.0, 1 / 3]) @ rotation(-0.3)}, 4),
        (QUARTER_TURN, 6)])
    def test_tree_matches_string_definitions(self, gens, radius):
        letters = GeneratorSet.from_matrices(gens)
        ball = enumerate_ball(letters, radius)
        words = ball_words(letters, radius)
        if gens is QUARTER_TURN:  # merged: the kept rows skip words
            assert len(ball) < len(words)
        self.assert_tree_matches_strings(ball, words)

    def test_tree_of_a_cartan_jordan_word_set(self, tau3_rep):
        # the prefixes of a word, its inverse and their cyclic cores, as
        # cartan_jordan builds them: not a ball, and its rows skip lengths
        gens = tau3_rep.generators
        word = "abbAbaB"
        core = canonical_cyclic(word)
        ends = [word, inverse_word(word), core, inverse_word(core)]
        words = sorted({w[:i] for w in ends for i in range(len(w) + 1)},
                       key=lambda w: (len(w), w))
        tree, rows = prefix_tree(gens, ends)
        assert [words[r] for r in rows] == ends
        ball = Ball(gens, tree, word_products(gens, words), sorted(rows))
        self.assert_tree_matches_strings(ball, words)

    def test_class_keys_equal_per_word_keys(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 7)
        words = ball_words(tau3_rep.generators, 7)
        assert_per_word_keys(ball, [words[i] for i in ball.rows])
        assert len(ball.classes[0]) == 551


def assert_per_word_keys(ball, words):
    keys = [canonical_cyclic(w) for w in words]
    rows, inverse_rows, member = ball.classes
    names = decode(ball, ball.codes[rows])
    assert [names[k] for k in member] == keys
    assert names == list(dict.fromkeys(keys))
    oracle, at = class_keys(words)
    assert names == oracle and np.array_equal(member, at)
    assert decode(ball, ball.codes[inverse_rows]) == [inverse_word(c)
                                                      for c in names]


@given(reduced_word_lists("aAbB"))
def test_class_keys_of_words(words):
    assert_per_word_keys(word_ball(words, sl2_letters("ab"))[0], words)


class TestCodeRows:
    """The ball's code rows, class rows and conjugators against the
    string definitions they replace (see ``tests/words.py``)."""

    @pytest.mark.parametrize("name", ["fuchsian_tau3", "schottky_sl2",
                                      "su21_9dim", "tau5_plus_tau2",
                                      "tau_d_plus_tau_d2"])
    def test_shipped_configs(self, name):
        cfg = load_example_config(name)
        gens = build_representation(cfg["representation"]).generators
        ball, words = (enumerate_ball(gens, cfg["radius"]),
                       ball_words(gens, cfg["radius"]))
        assert_words_match_strings(ball, words)
        assert_words_formatted(ball, words)

    def test_quarter_turn_ball(self):
        # merged: class words and conjugators skip kept rows
        gens = GeneratorSet.from_matrices(QUARTER_TURN)
        ball, words = enumerate_ball(gens, 8), ball_words(gens, 8)
        assert len(ball) < len(words)
        assert_words_match_strings(ball, words)
        assert_words_formatted(ball, words)

    def test_genus2_letters(self):
        # four generators: base-9 keys, 22,289 elements
        gens = genus2_rep().generators
        ball, words = enumerate_ball(gens, 5), ball_words(gens, 5)
        assert len(ball) == 22289
        assert_words_match_strings(ball, words)
        assert_words_formatted(ball, words)

    @given(reduced_word_lists("aAbB", 8))
    def test_words_over_two_generators(self, words):
        assert_words_match_strings(*word_ball(words, sl2_letters("ab")))

    @given(reduced_word_lists("aAbBcC", 8))
    def test_words_over_three_generators(self, words):
        assert_words_match_strings(*word_ball(words, sl2_letters("abc")))

    def test_one_generator_past_the_int64_keys(self):
        # base-3 keys of a^40 pass 2^63: the keys are Python ints there
        gens = GeneratorSet.from_matrices({"a": np.diag([2.0, 0.5])})
        ball, words = enumerate_ball(gens, 60), ball_words(gens, 60)
        assert 3 ** ball.radius > 2 ** 63 and ball._cores[3].dtype == object
        rows, _, member = ball.classes
        keys = [canonical_cyclic(g.word) for g in ball]
        assert [words[rows[k]] for k in member] == keys
        assert len(rows) == len(ball) == 121
        assert_words_match_strings(ball, words)
        assert_words_formatted(ball, words)

    def test_words_of_elements_in_ball_order(self, tau3_rep):
        # any positions whose lengths do not decrease: sorted, repeated,
        # a slice, a length skipped, none; lengths that decrease raise
        gens = tau3_rep.generators
        ball, words = enumerate_ball(gens, 4), ball_words(gens, 4)
        index = np.sort(np.random.default_rng(4).integers(0, len(ball), 300))
        assert ball.words_of(index) == [words[ball.rows[i]] for i in index]
        assert ball.words_of(slice(3, 90, 4)) == [
            words[r] for r in ball.rows[3:90:4]]
        assert ball.words_of([0, 2, 2, 30]) == ["", "B", "B", "BBB"]
        assert ball.words_of([]) == []
        with pytest.raises(ValueError, match="ball order"):
            ball.words_of([5, 4, 30, 2])

    def test_long_word_of_cartan_jordan(self, tau3_rep):
        # a word of 30 letters over two generators: past int64 keys, its
        # rotations share the spectrum of their one class word
        gens = tau3_rep.generators
        word = "abbAbaBBab" * 3
        ball, words = word_ball([word, word[7:] + word[:7]], gens)
        assert 5 ** ball.radius > 2 ** 63 and ball._cores[3].dtype == object
        assert_words_match_strings(ball, words)
        assert [g.word for g in ball] == [word, word[7:] + word[:7]]
        rows, _, member = ball.classes
        assert member.tolist() == [0, 0]
        assert decode(ball, ball.codes[rows]) == [canonical_cyclic(word)]
        rotated = cartan_jordan(gens.element(word[7:] + word[:7])).lam
        assert np.array_equal(cartan_jordan(gens.element(word)).lam, rotated)
