"""String oracles of the ball's word questions, which it answers on
integer code rows: the enumerated words, class keys, conjugators and the
encoding itself."""

import numpy as np
from hypothesis import strategies as st

from anosovlab.functors import representation_from_matrices, tau_representation
from anosovlab.groups import (Ball, GeneratorSet, canonical_cyclic,
                              cyclic_reduce, free_reduce, inverse_label,
                              inverse_word, prefix_tree, word_products)
from anosovlab.spectra import spectral_table


def ball_words(gens: GeneratorSet, radius: int) -> list[str]:
    """Every reduced word of length <= radius, sorted by (length, word),
    as strings: layer by layer, each word followed by every letter but
    its last letter's inverse, in sorted order."""
    order = sorted(gens.labels)
    after = {x: [y for y in order if y != inverse_label(x)] for x in order}
    after[""] = order
    words, layer = [""], [""]
    for _ in range(radius):
        layer = [w + y for w in layer for y in after[w[-1:]]]
        words += layer
    return words


def assert_words_formatted(ball: Ball, words: list[str]):
    """The ball's formatted words against ``words``, the strings of its
    stack rows: the elements, one by one and at once, and the spectral
    table."""
    kept = [words[r] for r in ball.rows.tolist()]
    assert ball.words_of(slice(None)) == kept
    assert [g.word for g in ball] == kept
    assert [row[0] for row in spectral_table(ball)[1]] == [
        w or "<id>" for w in kept]


def class_keys(words: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct :func:`canonical_cyclic` values of freely reduced
    ``words``, in order of first appearance, and the index of each word's
    key there.  A core not seen before registers every rotation of itself
    under its new class."""
    keys: list[str] = []
    of_core: dict[str, int] = {}
    member = np.empty(len(words), dtype=np.intp)
    for n, word in enumerate(words):
        core = cyclic_reduce(word)
        k = of_core.get(core)
        if k is None:
            k = len(keys)
            rotations = [core[j:] + core[:j] for j in range(len(core))]
            keys.append(min(rotations, default=core))
            of_core.update(dict.fromkeys(rotations or [core], k))
        member[n] = k
    return keys, member


def conjugators(word: str, c: str) -> tuple[str, str]:
    """The plus and minus conjugators P, Q of a reduced word w with class
    word ``c = canonical_cyclic(w)``: ``w = P c P^-1 = Q c Q^-1``, with
    ``w = u core u^-1``, ``core = c[j:] + c[:j]`` for the first such j,
    ``P = u c[j:]`` (``u`` when j = 0) and ``Q = u c[:j]^-1``."""
    core = cyclic_reduce(word)
    u = word[:(len(word) - len(core)) // 2]
    j = (c + c).index(core)
    return (u + c[j:] if j else u), u + inverse_word(c[:j])


def encode(ball: Ball, words: list[str], width: int) -> np.ndarray:
    """The words as right-aligned int8 rows of ``width`` codes, 1 plus
    each letter's index in the sorted labels."""
    code = {x: n + 1 for n, x in enumerate(sorted(ball.gens.labels))}
    out = np.zeros((len(words), width), dtype=np.int8)
    for n, w in enumerate(words):
        out[n, width - len(w):] = [code[x] for x in w]
    return out


def decode(ball: Ball, codes: np.ndarray) -> list[str]:
    return ["".join(ball.letters[c - 1] for c in row if c)
            for row in codes.tolist()]


def assert_words_match_strings(ball: Ball, words: list[str]):
    """The ball's code rows, classes and conjugators against the string
    definitions, ``words`` being the strings of its stack rows."""
    assert np.array_equal(ball.codes, encode(ball, words, ball.radius))
    kept = [words[r] for r in ball.rows.tolist()]
    keys, member = class_keys(kept)
    rows, inverse_rows, at = ball.classes
    assert [words[r] for r in rows.tolist()] == keys
    assert [words[r] for r in inverse_rows.tolist()] == [
        inverse_word(c) for c in keys]
    assert at.dtype == np.intp and np.array_equal(at, member)
    expected = [conjugators(w, keys[k]) for w, k in zip(kept, member)]
    for codes, words in zip(ball.conjugators(np.arange(len(kept))),
                            zip(*expected) if expected else ([], [])):
        width = max(map(len, words), default=0)
        assert np.array_equal(codes, encode(ball, words, width))


def sl2_letters(labels: str) -> GeneratorSet:
    """Up to three generic SL(2) generators."""
    mats = (np.diag([2.0, 0.5]), [[1.25, 0.75], [0.75, 1.25]],
            [[1.0, 1.0], [1.0, 2.0]])
    return GeneratorSet.from_matrices(dict(zip(labels, mats)))


def word_ball(words: list[str], gens: GeneratorSet
              ) -> tuple[Ball, list[str]]:
    """A :class:`Ball` whose elements are the reduced ``words``, over the
    prefixes of them, of their class words and of those words' inverses,
    and the strings of its stack rows."""
    ends = ["", *words, *map(canonical_cyclic, words)]
    ends += [inverse_word(w) for w in ends]
    closure = sorted({w[:i] for w in ends for i in range(len(w) + 1)},
                     key=lambda w: (len(w), w))
    tree, rows = prefix_tree(gens, [*closure, *words])
    return Ball(gens, tree, word_products(gens, closure),
                rows[len(closure):]), closure


def reduced_word_lists(alphabet: str, max_size: int = 6):
    """Lists of short reduced words, so that rotations and conjugates
    recur."""
    return st.lists(st.text(alphabet, max_size=max_size).map(free_reduce),
                    max_size=60)


def genus2_rep():
    """tau_3 of the genus-2 letters as free generators: a = diag(e^(l/2),
    e^(-l/2)) with cosh(l/2) = cot(pi/8), and b, c, d the conjugates of a
    by the rotations through k pi/8, k = 1, 2, 3."""
    e = 1 + 2 ** 0.5 + (2 + 2 * 2 ** 0.5) ** 0.5
    a = np.diag([e, 1 / e])

    def turned(k):
        c, s = np.cos(k * np.pi / 8), np.sin(k * np.pi / 8)
        R = np.array([[c, -s], [s, c]])
        return R @ a @ R.T

    return tau_representation(representation_from_matrices(
        {"a": a, "b": turned(1), "c": turned(2), "d": turned(3)}), 3)


def assert_witnesses_formatted(cloud, ball: Ball, words: list[str]):
    """Each witness of ``cloud``, sampled from ``ball``, against the
    string of its stack row: a kept row whose product is its matrix."""
    row = {w: i for i, w in enumerate(words)}
    kept = set(ball.rows.tolist())
    for s in cloud.samples:
        r = row[s.witness.word]
        assert r in kept and s.witness.length == len(words[r])
        assert np.array_equal(s.witness.matrix.mat, ball.products[r])
