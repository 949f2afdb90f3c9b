"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out DIR [--smoke] [--setup-only]

Imports anosovlab from ``src/`` of the checkout this file sits in, sets
the workload up, runs one untimed warm-up repetition, then repeats it
until ``--seconds`` have passed (at least ``MIN_REPS`` times), each
untraced repetition followed by the calibration job of ``calibrate.py``.
With ``--trace 1`` the time is split between untraced and traced
repetitions.  The outputs of the last repetition are then checked,
untimed, and one JSON line is printed.  The parent (``run.py``) sets the
thread environment.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3


def import_package():
    """Import anosovlab from this checkout's ``src/``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "anosovlab" / "__init__.py").is_file():
        raise SystemExit(f"no anosovlab sources under {src}")
    sys.path.insert(0, str(src))
    import anosovlab
    if Path(anosovlab.__file__).resolve().parent != src / "anosovlab":
        raise SystemExit(f"imported anosovlab from {anosovlab.__file__}")
    return anosovlab


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def repeat(workload, seconds: float, tracer=None):
    """Run repetitions for ``seconds`` (at least MIN_REPS).

    Returns their wall times and either, without a tracer, the times of
    the calibration jobs run after each repetition or, with a tracer,
    the per-layer metrics of each repetition.  A repetition is not
    started when the median so far says it would end after the deadline,
    so runs end close to ``seconds``.
    """
    import calibrate  # after set-up: not part of set-up time
    times, extra = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        workload.repetition()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            extra.append(layer_metrics(tracer.spans, tracer.counters,
                                       times[-1]))
            extra[-1]["cli.artifact_bytes"] = workload.artifact_bytes()
        else:
            extra.extend(calibrate.after(times[-1]))
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_REPS and (
                elapsed + statistics.median(times) > seconds):
            return times, extra


def warm_up(workload) -> None:
    """One untimed repetition and calibration job: first calls import
    modules lazily and fill caches."""
    import calibrate
    workload.repetition()
    calibrate.job()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_package()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    args.out.mkdir(parents=True, exist_ok=True)
    workload.setup(ROOT, args.smoke, args.seed, args.out)
    if args.setup_only:
        return 0

    result = {}
    try:
        warm_up(workload)
        if args.trace:
            result.update(traced_runs(workload, args.seconds))
        else:
            result["rep_times"], result["calibration_times"] = repeat(
                workload, args.seconds)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["failed_reps"] = 0
    except Exception:  # a failed repetition is reported, not raised
        traceback.print_exc()
        result["failed_reps"] = 1
        print(json.dumps(result))
        return 0

    import checks  # after set-up: mpmath is not part of set-up time
    tally = checks.Tally()
    workload.check(tally)
    result["checks_attempted"] = tally.total_attempted
    result["checks_failed"] = tally.total_failed
    result["checks_gating_failed"] = tally.gating_failed
    result["checks_failed_by_family"] = {
        f: tally.failed[f] for f in checks.FAMILIES}
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def traced_runs(workload, seconds: float) -> dict:
    """Untraced then traced repetitions, half the time each; per-layer
    metrics of the traced repetition with the median time."""
    untraced, calibration = repeat(workload, seconds / 2)
    with Tracer() as tracer:
        traced, layers = repeat(workload, seconds / 2, tracer)
    median_rep = sorted(layers, key=lambda m: m["trace.run_s"])[
        (len(layers) - 1) // 2]
    median_rep["trace.untraced_run_s"] = statistics.median(untraced)
    median_rep["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(untraced))
    return {"layers": median_rep, "rep_times": untraced,
            "calibration_times": calibration, "traced_rep_times": traced}


if __name__ == "__main__":
    sys.exit(main())
