"""The anosov-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke      (tiny inputs)

Run from the root of a checkout.  Each call sets the workload up in
``SETUP_PROBES`` fresh processes to time set-up, then runs it in one more
fresh process (``worker.py``) for ``--seconds``, with one BLAS thread and
``ANOSOV_LAB_THREADS`` unset.  The last line of standard output is a JSON
object with ``correct``, ``attempted`` (timed repetitions), ``failed``
(repetitions that raised) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it state the machine and the sample counts; everything is also written
to ``.perfbench_out/<workload>/result.json``.

``run_s`` is the wall time per repetition after one warm-up
repetition, rescaled to a reference host speed: each repetition is
followed by a fixed calibration job (``calibrate.py``) for a fifth of
its time, and ``run_s`` is the mean repetition time times
``calibrate.REFERENCE_S`` over the mean calibration time.  Other jobs on
a shared host slow the repetitions and the calibration alike, so the
ratio holds where plain repetition times do not; the raw
median, minimum and maximum and the sample counts are on the ``notes:``
line.  ``setup_s`` is the median of the set-up probes, not rescaled:
starting a process and importing modules does not slow down with the
calibration job, and rescaling it widened the spread of its medians.

``correct`` is false when a repetition fails or a gating check fails
(exit codes, artifacts, alpha, limit points, Hoelder slopes, boundary
margins).  Checks of known defects (CSV number format, Jordan and
Cartan rows, the deep-word probe, controlled-set violations) only feed
``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "fail_ratio": "1"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name in ("groups.ball_elements",
                                            "boundary.pairs"):
        return "count"
    if name.startswith("checks."):
        return "count"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_us"):
        return "us"
    return "1"


PER_LAYER = [
    "functors.wedge_power.calls", "functors.wedge_power.self_s",
    "functors.build_representation.self_s",
    "groups.enumerate_ball.self_s", "groups.ball_elements",
    "groups.matrix_of_word.calls", "groups.ball_bytes_computed",
    "spectra.gap_profile.self_s", "spectra.alpha_m_estimate.self_s",
    "spectra.spectral_table.self_s", "spectra.cartan_jordan.self_s",
    "spectra.svd_per_element", "spectra.eig_per_element",
    "linalg.singular_values.self_s", "linalg.eigen_moduli.self_s",
    "boundary.limit_samples.self_s", "linalg.top_invariant_subspace.calls",
    "linalg.top_invariant_subspace.self_s", "boundary.samples_per_element",
    "boundary.transversality_scan.self_s",
    "boundary.controlled_set_check.self_s",
    "boundary.hyperconvexity_scan.self_s", "boundary.pairs",
    "boundary.pair_us", "linalg.direct_sum_margin.calls",
    "linalg.direct_sum_margin.self_s",
    "linalg.proj_distance.calls", "linalg.point_subspace_distance.calls",
    "geometry.hoelder_regression.self_s", "cli.run_experiment.self_s",
    "cli.artifact_bytes",
    *(f"layer.{layer}.self_s" for layer in (
        "cli", "functors", "groups", "spectra", "boundary", "geometry",
        "linalg")),
    "trace.run_s", "trace.untraced_run_s", "trace.uncovered_s",
    "trace.overhead_s", "checks.attempted",
    *(f"checks.failed.{family}" for family in checks.FAMILIES),
]


def child_env() -> dict:
    """One BLAS thread, no package threads, and a fixed string-hash seed:
    with a random one per process the rescaled ``run_s`` of a process
    moved by 0.14 of its median (interquartile range of 7 processes),
    with a fixed one by 0.04."""
    env = dict(os.environ)
    env.pop("ANOSOV_LAB_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def worker(args, extra, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT / args.workload), *extra]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                          text=True, timeout=max(timeout, 1.0), cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}")
    return proc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one set-up probe, one second")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 30.0
    if not (ROOT / "src" / "anosovlab" / "__init__.py").is_file():
        print(f"error: no anosovlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    setups = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        worker(args, ["--setup-only"], 60.0)
        setups.append(time.perf_counter() - t0)
    proc = worker(args, [],
                  DEADLINE_S - (time.perf_counter() - started))
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    reps = len(res.get("rep_times", [])) + len(res.get("traced_rep_times",
                                                      []))
    failed = res["failed_reps"]
    correct = failed == 0 and res.get("checks_gating_failed", 1) == 0
    if args.trace:
        layers = dict(res["layers"]) if not failed else {}
        layers["checks.attempted"] = res.get("checks_attempted", 0)
        for family, n in res.get("checks_failed_by_family", {}).items():
            layers[f"checks.failed.{family}"] = n
        values = {name: layers.get(name, 0) for name in PER_LAYER}
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in values.items()}
    else:
        values = {"run_s": calibrate.rescaled(res["rep_times"],
                                              res["calibration_times"])
                  if not failed else 0.0,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res.get("peak_rss_mb", 0.0),
                  "fail_ratio": (res["checks_failed"]
                                 / max(res["checks_attempted"], 1))
                  if not failed else 1.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    env = {"nproc": os.cpu_count(), "cpu": cpu_model(), **res.get("env", {})}
    notes = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "smoke": args.smoke,
             "run_s_samples": len(res.get("rep_times", [])),
             "rep_median_s": statistics.median(res.get("rep_times") or [0.0]),
             "rep_min_s": min(res.get("rep_times") or [0.0]),
             "rep_max_s": max(res.get("rep_times") or [0.0]),
             "calibration_samples": len(res.get("calibration_times", [])),
             "calibration_median_s": statistics.median(
                 res.get("calibration_times") or [0.0]),
             "setup_s_samples": len(setups), "setup_times": setups,
             "rep_times": res.get("rep_times", []),
             "traced_rep_times": res.get("traced_rep_times", []),
             "checks_attempted": res.get("checks_attempted", 0),
             "checks_failed": res.get("checks_failed_by_family", {})}
    line = {"correct": correct, "attempted": max(reps, 1), "failed": failed,
            "metrics": metrics}
    (OUT / args.workload / "result.json").write_text(json.dumps(
        {"env": env, "notes": notes, **line}, indent=2) + "\n")
    print("env:", json.dumps(env))
    print("notes:", json.dumps(notes))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
