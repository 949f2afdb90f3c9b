"""Word-hyperbolic group inputs: symmetric generator sets with matrix
values, reduced-word enumeration of word-metric balls, and matrix-value
deduplication.

Generators are labelled by lowercase letters; the formal inverse of a
label is its uppercase counterpart (``a`` <-> ``A``), so a word is just a
string like ``"abAB"``.  Strings are the API; the layout is integer code
rows: a :class:`Ball` builds them and answers every word question on
them.  Relations are never handled symbolically: words whose
matrices agree (as elements of PGL, i.e. up to sign) are merged.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import MatrixD, _readonly, normalize_lift

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
_COUNT_LIMIT = 10**18  # ball sizes are reported exactly up to here
_GOLDEN = (5**0.5 - 1) / 2  # 1 / phi, the step of the dedup's weights
_SWEEP_BYTES = 4 << 20  # the candidate rows the dedup gathers at once


class BallTooLargeError(RuntimeError):
    pass


def inverse_label(label: str) -> str:
    return label.swapcase()


def inverse_word(word: str) -> str:
    # exact: every label is one ASCII letter, inverted by swapcase
    return word[::-1].swapcase()


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == inverse_label(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def cyclic_reduce(word: str) -> str:
    """Cyclically reduced core of a word: its free reduction with inverse
    end letters stripped in pairs."""
    word = free_reduce(word)
    while len(word) >= 2 and word[0] == word[-1].swapcase():
        word = word[1:-1]
    return word


def canonical_cyclic(word: str) -> str:
    """Lexicographically smallest rotation of the cyclically reduced core.

    Conjugate elements share this key, so conjugation-invariant data
    (eigenvalue moduli) is computed once per key.
    """
    core = cyclic_reduce(word)
    return min((core[j:] + core[:j] for j in range(len(core))), default=core)


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
            if not (len(label) == 1 and "a" <= label <= "z"):
                raise ValueError(f"generator label {label!r} must be a single "
                                 f"lowercase letter a-z")
            M = normalize_lift(gens[label])
            if dim is None:
                dim = M.dim
            elif M.dim != dim:
                raise ValueError("generators have mismatched dimensions")
            if inverses is not None and label in inverses:
                Minv = normalize_lift(inverses[label])
                resid = np.abs(M.mat @ Minv.mat - np.eye(dim)).max()
                # a NaN residual (an inf - inf in the product) fails too
                if not resid <= 1e-8 * max(1.0, np.abs(M.mat).max()):
                    raise ValueError(
                        f"matrix for {label!r} and its inverse are not "
                        f"mutual inverses (residual {resid:.2e})")
            else:
                Minv = MatrixD(_readonly(np.linalg.inv(M.mat)))
            mats[label] = M
            mats[inverse_label(label)] = Minv
            labels += [label, inverse_label(label)]
        return cls(labels=tuple(labels), matrices=mats, dim=dim)

    @property
    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if l.islower())

    def matrix_of_word(self, word: str) -> MatrixD:
        prefixes = [word[:i] for i in range(len(word) + 1)]
        return MatrixD(_readonly(word_products(self, prefixes)[-1]))

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
    # free-group count: 1 + sum_{n=1..R} 2k (2k-1)^(n-1), in closed form
    # for k <= 1; else layer by layer, stopping once past _COUNT_LIMIT, so
    # that a huge radius costs a few steps
    if n_letters <= 2:
        return 1 + n_letters * radius
    total = 1
    layer = n_letters
    for _ in range(radius):
        total += layer
        if total > _COUNT_LIMIT:
            break
        layer *= n_letters - 1
    return total


class Ball(Sequence):
    """The elements of a word-metric ball, enumerated once.

    A sequence of :class:`GroupElement` sorted by (length, word), after
    merging words with equal matrices: the one input of the spectral
    analytics, which read the dimension from ``gens.dim`` and the radius
    from :attr:`radius`.  ``products`` stacks the left-to-right products
    of *every* reduced word of length <= radius, merged or kept, in the
    order of the list ``words`` (prefix-closed and sorted by (length,
    word)).  The ball owns the prefix tree of ``words``: ``prefix`` and
    ``last`` hold each row's prefix row and last letter, as
    :func:`prefix_tree` gives them, and the spectral ladder walks that
    tree.  The inverse word and every rotation of the cyclic core of a
    ball word are again reduced words of no greater length, so their
    matrices are rows of the same stack, even where that word itself was
    merged away.  ``codes`` holds each row's word as a right-aligned int8
    row of width ``radius``: a letter's code is 1 plus its index in
    ``letters``, the sorted labels, so codes compare as letters do, and
    0 pads.  :meth:`row_of`, ``inverse_rows``, :attr:`classes` and
    :meth:`conjugators` read these rows.

    The elements are the stack rows ``rows``; indexing builds their
    :class:`GroupElement` on demand.  The Cartan and Jordan arrays over
    the elements (rows in ball order) are computed together on first
    use, by one compound ladder along the words, and live as long as the
    ball.
    """

    def __init__(self, gens: GeneratorSet, words: list[str],
                 tree: tuple[np.ndarray, np.ndarray], products: np.ndarray,
                 keep: list[int]):
        products.flags.writeable = False
        self.gens = gens
        self.words = words
        self.prefix, self.last = tree
        self.products = products
        self.rows = np.array(keep, dtype=np.intp)
        self.letters = tuple(sorted(gens.labels))
        self._flip = np.array([0, *(self.letters.index(x.swapcase()) + 1
                                    for x in self.letters)], dtype=np.int8)
        n, code = len(words), np.searchsorted(["", *self.letters], self.last)
        # one step up the tree per letter position, the last letter first
        self.codes = np.zeros((n, self.radius), dtype=np.int8)
        up, parent = np.arange(n), np.maximum(self.prefix, 0)
        for t in reversed(range(self.radius)):
            self.codes[:, t], up = code[up], parent[up]
        # the (rows, codes) child table; row n stands for no word
        self._child = np.full((n + 1, len(self.letters) + 1), n)
        self._child[:, 0] = np.arange(n + 1)
        self._child[self.prefix[1:], code[1:]] = np.arange(1, n)
        elements = self.codes[self.rows]
        self.lengths = np.count_nonzero(elements, axis=1)
        self.inverse_rows = self.row_of(self._flip[elements[:, ::-1]])

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def radius(self) -> int:
        """The length of the longest enumerated word, merged or kept: the
        enumeration radius."""
        return len(self.words[-1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = self.rows[operator.index(index)]
        return GroupElement(word=self.words[i], gens=self.gens,
                            matrix=MatrixD(self.products[i]))

    def row_of(self, codes: np.ndarray) -> np.ndarray:
        """The stack rows of the words of the code rows ``codes``, one
        step down the tree per column; code 0 stays, so either side may
        pad.  Every word must be in the tree."""
        rows = np.zeros(len(codes), dtype=np.intp)
        for column in codes.T:
            rows = self._child[rows, column]
        if (rows == len(self.words)).any():
            raise KeyError("a word is not in the tree")
        return rows

    def codes_of(self, rows) -> np.ndarray:
        """The code rows of stack rows, as wide as the longest word."""
        return _trimmed(self.codes[rows])

    @cached_property
    def _cores(self) -> tuple[np.ndarray, ...]:
        """Per element: the column where its cyclic core starts (inverse
        end codes stripped in pairs), the core's length, the start i of
        its least rotation ``core[i:] + core[:i]`` and that rotation's
        key, its codes read in base B = 2k + 1, so keys order rotations
        as strings do; one Horner step moves a first letter to the back.
        Of equal least rotations (periodic cores) i is 0 or the last, so
        j = (size - i) mod size is the first j of ``(c + c).index(core)``.
        Keys are int64 while B^radius < 2^63, as ``_BALL_CAP`` ensures
        for two or more generators, else Python ints (one generator's
        powers, a long word of ``cartan_jordan``): exact at any length."""
        C, L, R = self.codes[self.rows], self.lengths, self.radius
        B, r = len(self.letters) + 1, np.arange(len(L))
        lo, hi = R - L, np.full(len(L), R)
        for _ in range(R // 2):
            strip = (hi - lo >= 2) & (C[r, lo % R]
                                      == self._flip[C[r, hi - 1]])
            lo, hi = lo + strip, hi - strip
        size = hi - lo
        D = C.astype(np.int64 if B ** R < 2 ** 63 else object)
        key = np.zeros(len(L), dtype=D.dtype)
        for t in range(R):
            key = np.where((lo <= t) & (t < hi), key * B + D[:, t], key)
        top = B ** np.maximum(size - 1, 0).astype(D.dtype)
        least, start, rotated = key, np.zeros_like(size), key
        for i in range(1, R):
            d = D[r, (lo + i - 1) % R]
            rotated = (rotated - d * top) * B + d
            take = (i < size) & (rotated <= least)
            least = np.where(take, rotated, least)
            start = np.where(take, i, start)
        return lo, size, np.where(least < key, start, 0), least

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stack rows of the canonical cyclic words of the elements'
        classes in order of first appearance, the rows of their inverses,
        and each element's class: ``np.unique`` of the least rotations'
        keys (see :attr:`_cores`)."""
        lo, size, start, key = self._cores
        first, member = np.unique(key, return_index=True,
                                  return_inverse=True)[1:]
        order = np.argsort(first)
        e, R = first[order], self.radius  # the first element of each class
        lo, size, start = lo[e, None], size[e, None], start[e, None]
        x = np.arange(R) - (R - size)  # negative at the pads
        at = (lo + (start + x) % np.maximum(size, 1)) % R
        rows = self.row_of(np.where(x >= 0, np.take_along_axis(
            self.codes[self.rows[e]], at, axis=1), 0))
        return (rows, self.row_of(self._flip[self.codes[rows][:, ::-1]]),
                np.argsort(order)[member])

    def conjugators(self, index) -> tuple[np.ndarray, np.ndarray]:
        """Code rows, each as wide as its longest, of the conjugators of
        the elements w at ``index``: ``w = P c P^-1 = Q c Q^-1`` for the
        class word c.  With ``w = u core u^-1`` and ``core = c[j:] +
        c[:j]``, P = u c[j:] (u if j = 0) and Q = u c[:j]^-1 are shorter
        than w, and the products P c and Q c^-1 are reduced: P is w's
        prefix of length |u| + i, i the start of the least rotation (see
        :attr:`_cores`), and Q the inverse of w's suffix of |u| + j."""
        lo, size, start, _ = (a[index] for a in self._cores)
        C, R = self.codes[self.rows[index]], self.radius
        L, t = self.lengths[index][:, None], np.arange(R)
        p = (lo - R)[:, None] + L + start[:, None]
        q = p - start[:, None] + np.where(start > 0, size - start, 0)[:, None]
        P = np.where(t >= R - p, np.take_along_axis(C, (t + p - L) % R, 1), 0)
        Q = np.where(t >= R - q, self._flip[np.take_along_axis(
            C, (2 * R - 1 - q - t) % R, 1)], 0)
        return _trimmed(P), _trimmed(Q)

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        from .spectra import ladder_logs  # spectra builds on this module
        return ladder_logs(self)

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
        count = (predicted if predicted <= _COUNT_LIMIT
                 else f"over {_COUNT_LIMIT}")
        raise BallTooLargeError(
            f"ball too large: {count} words exceed cap {_BALL_CAP}")

    # the words layer by layer and their prefix tree by array gathers:
    # the rows of a layer spawn their successors in order, from a table
    # keyed by their last letter, an index into ``order`` (the empty
    # word's, n_letters, stands for no letter)
    order = sorted(gens.labels)
    after = {x: [y for y in order if y != inverse_label(x)] for x in order}
    after[""] = order
    succ = np.array([[order.index(y) for y in after[x]] for x in order],
                    dtype=np.intp)
    words, layer = [""], [""]
    prefix, code = [np.array([-1])], [np.array([n_letters])]
    parents, codes = np.zeros(n_letters, dtype=np.intp), np.arange(n_letters)
    for _ in range(radius):
        layer = [w + y for w in layer for y in after[w[-1:]]]
        prefix.append(parents)
        code.append(codes)
        parents = np.repeat(np.arange(len(words), len(words) + len(layer)),
                            n_letters - 1)
        codes = succ[codes].ravel()
        words += layer
    last = np.array([*order, ""])[np.concatenate(code)]
    tree = np.concatenate(prefix), last
    products = _tree_products(gens, *tree)
    return Ball(gens, words, tree, products,
                _dedup_indices(words, products, 1e-8))


def prefix_tree(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The prefix row (-1 for the empty word) and the last letter of each
    of the prefix-closed ``words``, sorted by (length, word).  In that
    order the prefix rows never decrease: the children of the rows a:b
    are the rows between ``np.searchsorted(prefix, (a, b))``.  A
    :class:`Ball` owns the tree of its words, built by
    :func:`enumerate_ball` as it generates them; this one serves other
    word sets (:func:`word_products`)."""
    row = {w: i for i, w in enumerate(words)}
    return (np.array([-1] + [row[w[:-1]] for w in words[1:]]),
            np.array([w[-1:] for w in words]))


def word_products(gens: GeneratorSet, words: list[str]) -> np.ndarray:
    """The stacked matrices of the prefix-closed ``words``, sorted by
    (length, word) (see :func:`_tree_products`)."""
    return _tree_products(gens, *prefix_tree(words))


def _tree_products(gens: GeneratorSet, prefix: np.ndarray,
                   last: np.ndarray) -> np.ndarray:
    """The stacked matrices of the words of a prefix tree: each its
    prefix's product times its last letter, one stacked product per
    length and letter.  Products that leave the double range raise
    ``FloatingPointError``."""
    products = np.empty((len(prefix), gens.dim, gens.dim))
    products[0] = np.eye(gens.dim)
    a, b, length = 0, 1, -1  # one pass per layer, and one finding none
    with np.errstate(over="ignore", invalid="ignore"):
        while b > a:
            a, b = np.searchsorted(prefix, (a, b))
            length += 1
            for x, M in gens.matrices.items():
                at = a + np.flatnonzero(last[a:b] == x)
                products[at] = products[prefix[at]] @ M.mat
    if not np.isfinite(products).all():
        raise FloatingPointError(
            f"word products overflow doubles in dimension {gens.dim}; "
            f"the longest word has length {length}")
    return products


def _trimmed(codes: np.ndarray) -> np.ndarray:
    """Right-aligned code rows without the columns that pad every row."""
    width = np.count_nonzero(codes, axis=1).max(initial=0)
    return codes[:, codes.shape[1] - width:]


def _sorted_lifts(flat: np.ndarray):
    """Both lifts x and -x of each row of the (n, L) array ``flat``,
    sorted by their projections onto the weights ``w_k = exp(frac(k /
    phi))``, k = 1..L, phi the golden ratio, which are positive and
    linearly independent over the rationals (Lindemann-Weierstrass): w,
    the lifts in that order (row + n for -x), their projections, and each
    row's slack ``(2 L + 1) eps |x|.w``.  Negating every lift reverses
    the order: the x lifts take equal projections in row order, the -x
    lifts come in the reverse of the x lifts' order, and a -x lift goes
    before an x lift of equal projection.  A rounded projection lies
    within ``L eps |x|.w`` of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 3.1), so the slack covers two
    lifts of about equal |x|.w and one rounding of their sum or
    difference."""
    n, size = flat.shape
    w = np.exp(np.modf(np.arange(1, size + 1) * _GOLDEN)[0])
    proj = flat @ w
    up = np.argsort(proj, kind="stable")
    down = up[::-1]
    lift = np.insert(up, np.searchsorted(proj[up], -proj[down]), down + n)
    slack = (2 * size + 1) * np.finfo(float).eps * (np.abs(flat) @ w)
    return w, lift, np.concatenate([proj, -proj])[lift], slack


def _dedup_indices(words, mats, tol) -> list[int]:
    """Merge indices whose matrices agree up to sign within ``tol``
    (Chebyshev metric on entries), each component keeping its (length,
    word)-smallest: the kept indices, in input order.
    :func:`enumerate_ball` passes its words sorted by (length, word), so
    there the kept indices are in that order too.

    A sweep over both lifts x and -x of each row, sorted by projection
    (see :func:`_sorted_lifts`), so sign never needs normalizing.  Two
    lifts within ``tol`` project within ``tol sum(w)``, and their |x|.w
    differ by at most as much.  So the window of half-width ``(tol sum(w)
    + slack)(1 + 4 L eps)`` after the projection of a lift x holds every
    later lift within ``tol`` of x: the slack covers the rounding of both
    projections and of the sum projection + half-width that
    ``searchsorted`` compares against, and the last factor the rounding of
    the width itself.  A pair of rows comes from the windows of both
    signs, in mirrored order, so a candidate is taken only when its first
    lift's row is below its second's: each pair is confirmed once, by the
    test ``max|x_a - x_b| <= tol``, in blocks of about ``_SWEEP_BYTES``.
    The confirmed pairs are merged by min-label propagation with pointer
    jumping (Shiloach & Vishkin, J. Algorithms 3, 1982) over the (length,
    word) ranks, ranked at the first confirmed pair: each component keeps
    its least rank, so the kept set does not depend on pair or input
    order.
    """
    n = len(words)
    flat = np.asarray(mats, dtype=float).reshape(n, -1)
    size = flat.shape[1]
    w, lift, swept, slack = _sorted_lifts(flat)
    half = (tol * w.sum() + slack) * (1 + 4 * size * np.finfo(float).eps)
    # the candidates of sorted position t are the positions t+1 .. end-1
    counts = (np.searchsorted(swept, swept + half[lift % n], side="right")
              - np.arange(1, 2 * n + 1))
    cum = np.cumsum(counts)
    step = max(1, _SWEEP_BYTES // (8 * size))
    cuts = [0, *np.searchsorted(cum, range(step, cum[-1], step)), 2 * n]
    rank = root = None  # root, by rank: a rank <= r of the component of r
    for lo, hi in zip(cuts, cuts[1:]):
        c = counts[lo:hi]
        first = np.repeat(np.arange(lo, hi), c)
        second = first + 1 + np.arange(c.sum()) - np.repeat(
            np.cumsum(c) - c, c)
        a, b = lift[first], lift[second]
        once = a % n < b % n
        a, b = a[once], b[once]
        i, j = a % n, b % n
        sign = np.where((a < n) == (b < n), 1.0, -1.0)[:, None]
        close = np.abs(flat[i] - sign * flat[j]).max(axis=1) <= tol
        if close.any():
            if rank is None:
                rank = np.empty(n, dtype=np.intp)
                rank[np.lexsort((words, [len(x) for x in words]))] = (
                    np.arange(n))
                root = np.arange(n)
            root = _join(root, rank[i[close]], rank[j[close]])
    if rank is None:
        return list(range(n))
    return np.flatnonzero(root[rank] == rank).tolist()


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forest ``root`` of ranks, each pointing at the least rank of
    its component, with the components of each pair (a[k], b[k]) joined:
    the larger root of each split pair is hooked to the smaller, then
    labels jump until every rank points at its root again.  That full
    compression makes every hook, in this call or the next, join two
    roots; a hook on a rank that is not a root would move it off its
    tree and split a component joined before."""
    while (split := root[a] != root[b]).any():
        x, y = root[a[split]], root[b[split]]
        np.minimum.at(root, np.maximum(x, y), np.minimum(x, y))
        while (root[root] != root).any():
            root = root[root]
    return root
