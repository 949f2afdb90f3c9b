import numpy as np
import pytest

from anosovlab.groups import (BallTooLargeError, GeneratorSet, cyclic_reduce,
                              enumerate_ball, free_reduce, inverse_word)
from anosovlab.spectra import cartan_jordan


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

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one generator"):
            GeneratorSet.from_matrices({})

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            GeneratorSet.from_matrices({"a": np.eye(2), "b": np.eye(3)})


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


def test_dedup_order_independent():
    from anosovlab.groups import _dedup_indices
    rng = np.random.default_rng(33)
    mats = [rng.normal(size=(2, 2)) for _ in range(6)]
    words = ["", "a", "b", "ab", "ba", "bb"]
    # plant duplicates: same matrix under different words, opposite sign
    mats[3] = mats[1].copy()
    mats[4] = -mats[2]
    keep1 = {words[i] for i in _dedup_indices(words, mats, 1e-9)}
    perm = [5, 3, 1, 4, 0, 2]
    keep2 = {words[perm[i]]
             for i in _dedup_indices([words[p] for p in perm],
                                     [mats[p] for p in perm], 1e-9)}
    assert keep1 == keep2 == {"", "a", "b", "bb"}


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

    def test_slice(self, tau3_rep):
        ball = enumerate_ball(tau3_rep.generators, 4)
        part = ball[::7]
        assert [g.word for g in part] == [g.word for g in ball][::7]
        self.assert_matches_reference(ball, part)
