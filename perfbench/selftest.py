"""Self-tests of the benchmark: reference checks, span arithmetic,
tracer installation and a smoke run of every workload.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHOTTKY = {"a": [[2.5, 0.0], [0.0, 0.4]],
            "b": [[2.804420789643763, 1.7475732861885496],
                  [1.7475732861885496, 1.4455792103562373]]}
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def exact_row(words, blocks, word):
    """A spectra.csv row holding the exact ladders of ``word``."""
    lam = checks.ladder(words.log_eig(word), blocks)
    mu = checks.ladder(words.log_sing(word), blocks)
    row = {"word": word, "length": len(word)}
    row.update({f"mu_{i}": v for i, v in enumerate(mu, 1)})
    row.update({f"lambda_{i}": v for i, v in enumerate(lam, 1)})
    return row


class ReferenceChecks(unittest.TestCase):
    def setUp(self):
        self.words = checks.BaseWords(SCHOTTKY)

    def test_ladder_of_a_generator(self):
        ell = math.log(2.5)
        got = checks.ladder(self.words.log_eig("a"), [3])
        self.assertTrue(all(abs(x - y) < 1e-15
                            for x, y in zip(got, [2 * ell, 0.0, -2 * ell])))

    def test_perturbed_jordan_value_is_flagged(self):
        rows = [exact_row(self.words, [4, 6], w) for w in ("ab", "aBBa")]
        tally = checks.Tally()
        checks.check_spectra_rows(rows, self.words, [4, 6], 2, tally)
        self.assertEqual(tally.failed["jordan"], 0)
        rows[1]["lambda_2"] += 1e-7
        tally = checks.Tally()
        checks.check_spectra_rows(rows, self.words, [4, 6], 2, tally)
        self.assertEqual((tally.attempted["jordan"], tally.failed["jordan"]),
                         (2, 1))
        self.assertEqual(tally.failed["cartan"], 0)

    def test_cartan_outside_bound_is_flagged(self):
        rows = [exact_row(self.words, [3], "abA")]
        rows[0]["mu_1"] += checks.cartan_bound([3]) + 1e-3
        tally = checks.Tally()
        checks.check_spectra_rows(rows, self.words, [3], 1, tally)
        self.assertEqual(tally.failed["cartan"], 1)

    def test_np_float64_cell_is_a_format_failure(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        (SCRATCH / "wrapped.csv").write_text(
            "word,x\nab,np.float64(1.5)\n")
        (SCRATCH / "plain.csv").write_text("word,x\nab,1.5\n")
        tally = checks.Tally()
        parsed = checks.check_csv_artifacts(
            SCRATCH, ["wrapped.csv", "plain.csv"], tally)
        self.assertEqual(parsed["wrapped.csv"], [{"word": "ab", "x": 1.5}])
        self.assertEqual((tally.attempted["csv_format"],
                          tally.failed["csv_format"]), (2, 1))
        self.assertEqual(tally.gating_failed, 0)

    def test_attracting_line_is_fixed_by_tau(self):
        import numpy as np
        from anosovlab import functors
        rep = functors.build_representation(
            {"kind": "tau", "d": 4,
             "base": {"kind": "matrices", "dim": 2, "generators": SCHOTTKY}})
        for word in ("a", "A", "b", "aB", "BBa"):
            v = np.array(self.words.attracting_line(word, 4))
            image = rep.generators.matrix_of_word(word).mat @ v
            self.assertLess(checks.proj_sine(v, image / np.linalg.norm(image)),
                            1e-12)


class SpanArithmetic(unittest.TestCase):
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child2 [5, 9]
    SPANS = [["cli.main", 0.0, 10.0, -1],
             ["spectra.gap_profile", 1.0, 4.0, 0],
             ["linalg.singular_values", 2.0, 3.0, 1],
             ["linalg.singular_values", 5.0, 9.0, 0]]

    def test_self_times_of_nested_spans(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0])

    def test_layers_and_remainder_add_up_to_wall_time(self):
        m = tracing.layer_metrics(self.SPANS, Counter(ball_elements=2), 12.0)
        self.assertEqual(m["layer.cli.self_s"], 3.0)
        self.assertEqual(m["layer.linalg.self_s"], 5.0)
        self.assertEqual(m["trace.uncovered_s"], 2.0)
        total = sum(v for k, v in m.items() if k.startswith("layer."))
        self.assertEqual(total + m["trace.uncovered_s"], 12.0)
        # only the SVD under the spectra span counts, over 2 elements
        self.assertEqual(m["spectra.svd_per_element"], 0.5)


class Calibration(unittest.TestCase):
    def test_rescaled_time_is_in_reference_seconds(self):
        ref = calibrate.REFERENCE_S
        # the host ran the calibration at half speed: times halve
        self.assertAlmostEqual(
            calibrate.rescaled([2.0, 4.0], [2 * ref, 2 * ref]), 1.5)
        self.assertAlmostEqual(calibrate.rescaled([3.0], [ref]), 3.0)

    def test_after_runs_the_job_for_its_share(self):
        times = calibrate.after(0.0)
        self.assertEqual(len(times), 1)
        times = calibrate.after(20 * times[0] / calibrate.SHARE)
        self.assertGreater(sum(times), 15 * times[0])


class TracerInstall(unittest.TestCase):
    def test_traces_bindings_and_restores_them(self):
        from anosovlab import boundary, linalg, spectra
        original = spectra.singular_values
        with tracing.Tracer() as tracer:
            self.assertIsNot(spectra.singular_values, original)
            self.assertIs(spectra.singular_values, linalg.singular_values)
            self.assertIs(boundary.cartan_jordan, spectra.cartan_jordan)
            spectra.cartan_jordan([[2.0, 0.0], [0.0, 0.5]])
        self.assertIs(spectra.singular_values, original)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "spectra.cartan_jordan")
        self.assertIn("linalg.singular_values", names)

    def test_missing_name_fails_loudly(self):
        saved = tracing.REQUIRED
        tracing.REQUIRED = saved + ("spectra.no_such_function",)
        try:
            with self.assertRaises(LookupError):
                tracing.Tracer().install()
        finally:
            tracing.REQUIRED = saved


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(run.END_TO_END_UNITS))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))

    def test_smoke_run_of_every_workload(self):
        for name in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload",
                         name, "--smoke", "--trace", trace],
                        capture_output=True, text=True, timeout=120)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    expected = (run.PER_LAYER if trace == "1"
                                else list(run.END_TO_END_UNITS))
                    self.assertEqual(list(line["metrics"]), expected)

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "refine-d10",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
