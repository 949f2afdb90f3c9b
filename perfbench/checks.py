"""Exact references and output checks for the benchmark workloads.

Every shipped representation the benchmark runs is tau_d of the Schottky
pair (or a direct sum of such), so its spectra have closed forms in the
2x2 base word.  The base words are multiplied out in mpmath, which makes
the references independent of the double-precision paths they check.

A :class:`Tally` counts checks by family.  Checks added as gating must
all pass for a run to count as correct.  The others measure defects the
program has today (and that later changes are meant to remove), so they
only feed the failure ratio.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from pathlib import Path

import mpmath

mpmath.mp.dps = 40

FAMILIES = ("exit_code", "artifacts", "alpha", "csv_format", "jordan",
            "cartan", "probe", "boundary")

JORDAN_TOL = 1e-8          # acceptance criterion 01
ALPHA_TOL = 1e-9
LIMIT_POINT_TOL = 1e-6     # ten times the cloud's dedup resolution
HOELDER_SLOPE_RANGE = (1.9, 2.1)

_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


class Tally:
    """Attempted and failed check counts per family."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.gating_failed = 0

    def add(self, family: str, ok: bool, gating: bool = False) -> None:
        self.attempted[family] += 1
        if not ok:
            self.failed[family] += 1
            if gating:
                self.gating_failed += 1

    def add_many(self, family: str, attempted: int, failed: int) -> None:
        self.attempted[family] += attempted
        self.failed[family] += failed

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


# ---------------------------------------------------------------------------
# closed-form spectra of tau_d(base word)

class BaseWords:
    """mpmath products of 2x2 base words, memoised by prefix.

    ``generators`` maps each lowercase label to a 2x2 nested list; each
    is scaled to unit determinant and its inverse is the adjugate.
    """

    def __init__(self, generators: dict):
        self._letters = {}
        for label, rows in generators.items():
            M = mpmath.matrix(rows)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            M = M / mpmath.sqrt(abs(det))
            s = 1 if det > 0 else -1
            adj = mpmath.matrix([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]])
            self._letters[label] = M
            self._letters[label.upper()] = adj * s
        self._cache = {"": mpmath.eye(2)}

    def matrix(self, word: str):
        cached = self._cache.get(word)
        if cached is None:
            cached = self.matrix(word[:-1]) * self._letters[word[-1]]
            self._cache[word] = cached
        return cached

    def log_eig(self, word: str):
        """log of the top eigenvalue modulus (0 for non-hyperbolic)."""
        M = self.matrix(word)
        tr = abs(M[0, 0] + M[1, 1])
        if tr <= 2:
            return mpmath.mpf(0)
        return mpmath.log((tr + mpmath.sqrt(tr * tr - 4)) / 2)

    def log_sing(self, word: str):
        """log of the top singular value."""
        M = self.matrix(word)
        f = sum(M[i, j] ** 2 for i in range(2) for j in range(2))
        return mpmath.log((f + mpmath.sqrt(f * f - 4)) / 2) / 2

    def attracting_line(self, word: str, d: int) -> list[float]:
        """Attracting point of tau_d(word) in the monomial basis
        X^(d-1-i) Y^i: the (d-1)-th power of the top eigenvector l of
        the inverse transpose, with binomial weights."""
        M = self.matrix(word)
        # (M^-1)^T is the transposed adjugate up to the det sign, which
        # does not change eigenvectors
        a, b, c, e = M[1, 1], -M[1, 0], -M[0, 1], M[0, 0]
        tr = a + e
        disc = mpmath.sqrt(tr * tr - 4 * (a * e - b * c))
        lam = (tr + disc) / 2 if tr >= 0 else (tr - disc) / 2
        # eigenvector of [[a, b], [c, e]] for lam, orthogonal to the
        # larger row of the singular matrix [[a - lam, b], [c, e - lam]]
        if abs(a - lam) + abs(b) >= abs(c) + abs(e - lam):
            l0, l1 = b, lam - a
        else:
            l0, l1 = lam - e, c
        n = d - 1
        v = [math.comb(n, i) * l0 ** (n - i) * l1 ** i for i in range(d)]
        norm = mpmath.sqrt(sum(x * x for x in v))
        return [float(x / norm) for x in v]


def ladder(scale, blocks) -> list[float]:
    """Sorted union of the tau_d ladders (d-1-2i) * scale, one per block."""
    vals = [(d - 1 - 2 * i) * scale for d in blocks for i in range(d)]
    return [float(v) for v in sorted(vals, reverse=True)]


def cartan_bound(blocks) -> float:
    """Rigorous bound on |mu_i - ladder_i| from the binomial-weighted
    basis change: half the log condition number of diag(C(d-1, j))."""
    return max(0.5 * math.log(math.comb(d - 1, (d - 1) // 2)) for d in blocks)


def spectral_row_errors(words: BaseWords, blocks, word: str, mu, lam):
    """(max Jordan error, max Cartan deviation) of one element."""
    if word == "":
        lref = cref = [0.0] * len(mu)
    else:
        lref = ladder(words.log_eig(word), blocks)
        cref = ladder(words.log_sing(word), blocks)
    jerr = max(abs(x - y) for x, y in zip(lam, lref))
    cerr = max(abs(x - y) for x, y in zip(mu, cref))
    return jerr, cerr


# ---------------------------------------------------------------------------
# artifacts

def read_numeric_csv(path: Path, text_columns=("word",)):
    """Rows of a CSV artifact with numeric cells as floats.

    Returns (rows, plain): ``plain`` is False when any numeric cell is not
    a plain number (for example ``np.float64(1.5)``), in which case the
    wrapped value is still extracted so the reference checks can run.
    """
    plain = True
    rows = []
    with path.open(newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {}
            for key, cell in raw.items():
                if key in text_columns:
                    row[key] = cell
                    continue
                try:
                    row[key] = float(cell)
                except ValueError:
                    m = _NP_FLOAT.match(cell)
                    if m is None:
                        raise ValueError(
                            f"{path.name}: column {key!r} holds {cell!r}")
                    plain = False
                    row[key] = float(m.group(1))
            rows.append(row)
    return rows, plain


def check_csv_artifacts(out_dir: Path, names, tally: Tally) -> dict:
    """Parse every CSV artifact; one csv_format check per artifact."""
    parsed = {}
    for name in names:
        path = out_dir / name
        if not path.is_file():
            tally.add("artifacts", False, gating=True)
            continue
        try:
            rows, plain = read_numeric_csv(path)
        except ValueError:
            tally.add("csv_format", False)
            tally.add("artifacts", False, gating=True)
            continue
        tally.add("csv_format", plain)
        parsed[name] = rows
    return parsed


def check_spectra_rows(rows, words: BaseWords, blocks, expected_rows: int,
                       tally: Tally) -> None:
    """Jordan and Cartan vectors of every ``spectra.csv`` row against the
    closed-form ladders of its base word."""
    tally.add("artifacts", len(rows) == expected_rows, gating=True)
    d = sum(blocks)
    bound = cartan_bound(blocks)
    for row in rows:
        word = "" if row["word"] == "<id>" else row["word"]
        mu = [row[f"mu_{i}"] for i in range(1, d + 1)]
        lam = [row[f"lambda_{i}"] for i in range(1, d + 1)]
        jerr, cerr = spectral_row_errors(words, blocks, word, mu, lam)
        tally.add("jordan", jerr <= JORDAN_TOL)
        tally.add("cartan", cerr <= bound)


def check_probe(spectra, words: BaseWords, d: int, probe_words,
                tally: Tally) -> None:
    """Deep words through the public ``cartan_jordan``: each word is one
    Jordan and one Cartan check, both counted under ``probe``."""
    bound = cartan_bound([d])
    for word, data in zip(probe_words, spectra):
        jerr, cerr = spectral_row_errors(words, [d], word, data.mu, data.lam)
        tally.add("probe", jerr <= JORDAN_TOL)
        tally.add("probe", cerr <= bound)


def proj_sine(u, v) -> float:
    """Sine of the angle between the lines of two unit vectors, from the
    orthogonal residual (no cancellation near 0)."""
    dot = sum(x * y for x, y in zip(u, v))
    return math.sqrt(sum((y - x * dot) ** 2 for x, y in zip(u, v)))
