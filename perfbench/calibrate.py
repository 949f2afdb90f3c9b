"""Host-speed calibration.

On a shared host the speed of one core moves by up to a factor of two
over seconds to minutes (another tenant takes the sibling hyperthread),
while the CPU time of the process stays equal to its wall time, so no
statistic over the repetitions of one run removes a slowdown that lasts
the whole run.  Instead, every repetition is followed by a fixed
calibration job for a share (``SHARE``) of the repetition's time, and
the run's time per repetition is rescaled by how much slower the
calibration ran than its time on a quiet host (``REFERENCE_S``).

The job is of the same kind of work as the workloads (interpreted loops
over words, many small numpy linear-algebra calls) and uses only the
standard library and numpy, never anosovlab, so a change to the program
cannot move it.  On a 2-core Xeon VM under varying load, the rescaled
time per repetition over 30-second windows spread by 0.02-0.04 of its
median (interquartile range), the plain median repetition by 0.12-0.17.
"""

from __future__ import annotations

import time

import numpy as np

# time of ``job()`` on a quiet 2-core Xeon VM (2.0 GHz, one BLAS
# thread): rescaled times are seconds of that host
REFERENCE_S = 0.032
# calibration time after each repetition, as a share of its time
SHARE = 0.2

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
_MATS = np.random.default_rng(12345).standard_normal((700, 6, 6))


def _words(radius: int) -> int:
    """Enumerate reduced words and fold their letters into a dict."""
    layer, seen = [""], {}
    for _ in range(radius):
        layer = [w + c for w in layer for c in "aAbB"
                 if not w or c != _INVERSE[w[-1]]]
        for w in layer:
            seen[w] = seen.get(w[:-1], 0) + len(w)
    return len(seen)


def _linalg(mats: np.ndarray) -> float:
    """Products, singular values and eigenvalues of small matrices."""
    acc = np.eye(mats.shape[1])
    total = 0.0
    for m in mats:
        acc = acc @ m
        acc /= np.abs(acc).max()
        total += float(np.linalg.svd(acc, compute_uv=False)[0])
        total += float(np.abs(np.linalg.eigvals(m)).max())
    return total


def job() -> None:
    _words(8)
    _linalg(_MATS)


def after(seconds: float) -> list[float]:
    """Run the job for ``SHARE * seconds`` (at least once); its times."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < SHARE * seconds:
        t0 = time.perf_counter()
        job()
        times.append(time.perf_counter() - t0)
    return times


def rescaled(times: list[float], calibration: list[float]) -> float:
    """Mean of ``times`` in seconds of the reference host: the total
    time over the total calibration time, times ``REFERENCE_S``."""
    return (sum(times) / len(times)
            * REFERENCE_S / (sum(calibration) / len(calibration)))
