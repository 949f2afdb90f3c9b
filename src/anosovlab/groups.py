"""Word-hyperbolic group inputs: symmetric generator sets with matrix
values, reduced-word enumeration of word-metric balls, and matrix-value
deduplication.

Generators are labelled by lowercase letters; the formal inverse of a
label is its uppercase counterpart (``a`` <-> ``A``), so a word is just a
string like ``"abAB"``.  Relations are never handled symbolically: words
whose matrices agree (as elements of PGL, i.e. up to sign) are merged.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .linalg import MatrixD, normalize_lift

__all__ = [
    "GeneratorSet",
    "GroupElement",
    "Ball",
    "BallTooLargeError",
    "enumerate_ball",
    "inverse_word",
    "free_reduce",
    "cyclic_reduce",
]

_BALL_CAP = 5_000_000  # words of the largest ball, before dedup


class BallTooLargeError(RuntimeError):
    pass


def inverse_label(label: str) -> str:
    return label.swapcase()


def inverse_word(word: str) -> str:
    return "".join(inverse_label(ch) for ch in reversed(word))


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == inverse_label(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def cyclic_reduce(word: str) -> str:
    """Cyclically reduced core of a freely reduced word."""
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == inverse_label(w[-1]):
        w = w[1:-1]
    return w


def canonical_cyclic(word: str) -> str:
    """Lexicographically smallest rotation of the cyclically reduced core.

    Conjugate elements share this key, so conjugation-invariant data
    (eigenvalue moduli) is computed once per key.
    """
    w = cyclic_reduce(word)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


@dataclass(frozen=True)
class GeneratorSet:
    """Symmetric generating set: for each label the inverse label is
    present and the matrices are mutual inverses."""

    labels: tuple[str, ...]
    matrices: dict[str, MatrixD] = field(compare=False)
    dim: int

    @classmethod
    def from_matrices(cls, gens: dict,
                      inverses: dict | None = None) -> "GeneratorSet":
        """Build the symmetric set from {label: matrix} over the positive
        (lowercase) generators.

        Inverses are inverted numerically unless passed explicitly;
        callers that know the inverse in closed form (functor images of a
        base inverse) should pass it, since numerical inversion loses the
        small spectrum of badly conditioned generators.  A
        :class:`MatrixD` (a functor image) is kept as it is.
        """
        if not gens:
            raise ValueError("at least one generator required")
        mats: dict[str, MatrixD] = {}
        labels: list[str] = []
        dim = None
        for label in sorted(gens):
            if not (len(label) == 1 and label.isalpha() and label.islower()):
                raise ValueError(
                    f"generator label {label!r} must be a single lowercase letter")
            M = normalize_lift(gens[label])
            if dim is None:
                dim = M.dim
            elif M.dim != dim:
                raise ValueError("generators have mismatched dimensions")
            if inverses is not None and label in inverses:
                Minv = normalize_lift(inverses[label])
                resid = np.abs(M.mat @ Minv.mat - np.eye(dim)).max()
                if resid > 1e-8 * max(1.0, np.abs(M.mat).max()):
                    raise ValueError(
                        f"matrix for {label!r} and its inverse are not "
                        f"mutual inverses (residual {resid:.2e})")
            else:
                Minv = M.inv()
            mats[label] = M
            mats[inverse_label(label)] = Minv
            labels += [label, inverse_label(label)]
        return cls(labels=tuple(labels), matrices=mats, dim=dim)

    @property
    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if l.islower())

    def matrix_of_word(self, word: str) -> MatrixD:
        M = MatrixD(np.eye(self.dim), 1)
        for ch in word:
            M = M @ self.matrices[ch]
        return M

    def element(self, word: str) -> "GroupElement":
        word = free_reduce(word)
        return GroupElement(word=word, matrix=self.matrix_of_word(word),
                            gens=self)


@dataclass(frozen=True)
class GroupElement:
    """A freely reduced word together with its matrix value."""

    word: str
    matrix: MatrixD
    gens: GeneratorSet = field(repr=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.word)


def _predicted_ball_size(n_letters: int, radius: int) -> int:
    # free-group count: 1 + sum_{n=1..R} 2k (2k-1)^(n-1)
    if n_letters == 0:
        return 1
    total = 1
    layer = n_letters
    for _ in range(radius):
        total += layer
        layer *= n_letters - 1
    return total


class Ball(Sequence):
    """The elements of a word-metric ball, enumerated once.

    A sequence of :class:`GroupElement` sorted by (length, word), after
    merging words with equal matrices.  ``products`` stacks the
    left-to-right products of *every* reduced word of length <= radius,
    merged or kept, in the order of the list ``words``, and ``row`` maps
    each word to its index there.  The
    inverse word and every rotation of the cyclic core of a ball word are
    again reduced words of no greater length, so their matrices are rows
    of the same stack, even where that word itself was merged away.

    The Cartan and Jordan arrays over the elements (rows in ball order)
    are computed together on first use, by one compound ladder along the
    words, and live as long as the ball.
    """

    def __init__(self, gens: GeneratorSet, words: list[str],
                 products: np.ndarray, keep: list[int]):
        products.flags.writeable = False
        self.gens = gens
        self.words = words
        self.products = products
        self.row = {w: i for i, w in enumerate(words)}
        self.rows = np.array(keep)
        self.lengths = np.array([len(words[i]) for i in keep])
        # stack row of each element's inverse word
        self.inverse_rows = np.array([self.row[inverse_word(words[i])]
                                      for i in keep])
        det_sign = {label: gens.matrices[label].det_sign
                    for label in gens.labels}
        self._elements = [
            GroupElement(word=words[i], gens=gens, matrix=MatrixD(
                products[i], math.prod(det_sign[ch] for ch in words[i])))
            for i in keep]

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, index):
        return self._elements[index]

    @cached_property
    def classes(self) -> tuple[list[str], np.ndarray]:
        """The canonical cyclic words of the elements' conjugacy classes,
        in order of first appearance, and the class index of each
        element."""
        keys: dict[str, int] = {}
        member = np.array([keys.setdefault(canonical_cyclic(g.word),
                                           len(keys))
                           for g in self._elements])
        return list(keys), member

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        from .spectra import ladder_logs  # spectra builds on this module
        words, member = self.classes
        cartan, jordan = ladder_logs(
            self.gens, self.words, self.products, self.rows,
            self.inverse_rows, [self.row[w] for w in words],
            [self.row[inverse_word(w)] for w in words])
        return cartan, jordan[member]

    @property
    def cartan(self) -> np.ndarray:
        """(n, d) Cartan vectors (log singular values, descending)."""
        return self._spectra[0]

    @property
    def jordan(self) -> np.ndarray:
        """(n, d) Jordan vectors (log eigenvalue moduli, descending),
        computed once per conjugacy class on its canonical cyclic word."""
        return self._spectra[1]


def enumerate_ball(gens: GeneratorSet, radius: int) -> Ball:
    """All freely reduced words of length <= radius with their matrices.

    Elements whose matrices agree within 1e-8 (max-entry difference, up
    to the PGL sign) are merged, keeping the shortest word (ties:
    lexicographic).  The result is sorted by (length, word) and is
    independent of enumeration order; balls of over ``_BALL_CAP`` words
    raise ``BallTooLargeError``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n_letters = len(gens.labels)
    predicted = _predicted_ball_size(n_letters, radius)
    if predicted > _BALL_CAP:
        raise BallTooLargeError(
            f"ball too large: {predicted} words exceed cap {_BALL_CAP}")

    words: list[str] = [""]
    mats: list[np.ndarray] = [np.eye(gens.dim)]
    frontier = [("", mats[0])]
    order = sorted(gens.labels)
    for _ in range(radius):
        nxt = []
        for w, M in frontier:
            for label in order:
                if w and w[-1] == inverse_label(label):
                    continue
                prod = M @ gens.matrices[label].mat
                nxt.append((w + label, prod))
        frontier = nxt
        for w, M in nxt:
            words.append(w)
            mats.append(M)

    products = np.array(mats)
    return Ball(gens, words, products,
                _dedup_indices(words, products, 1e-8))


def _dedup_indices(words, mats, tol) -> list[int]:
    """Merge indices whose matrices agree up to sign within ``tol``
    (Chebyshev metric on entries), keeping the (length, word)-smallest."""
    n = len(words)
    flat = np.asarray(mats).reshape(n, -1)
    # both lifts of each PGL element, so sign never needs normalizing
    tree = cKDTree(np.vstack([flat, -flat]))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in tree.query_pairs(tol, p=np.inf):
        i %= n
        j %= n
        if i == j:
            continue
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    best: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        cur = best.get(r)
        if cur is None or (len(words[i]), words[i]) < (len(words[cur]), words[cur]):
            best[r] = i
    return sorted(best.values(), key=lambda i: (len(words[i]), words[i]))

