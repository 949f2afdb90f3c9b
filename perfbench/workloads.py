"""The benchmark workloads: set-up, one timed repetition, and the
untimed checks of a repetition's outputs.  ``checks`` (and with it
mpmath) is imported only for the checks, so set-up time does not
include it.

Each workload runs in one process with one caller and one BLAS thread,
as a closed loop of identical repetitions.  Inputs are the shipped
configs; the seed picks the hyperconvexity triples and the Hoelder
anchors of ``boundary-tau4`` and nothing else.

* ``refine-d10``: ``anosov-lab run`` on ``tau_d_plus_tau_d2.json`` at
  radius 3 (certify, tau4 + tau6, 53 elements, exit code 2).  Nearly all
  of its time is exterior-power refinement of Jordan spectra
  (``functors.wedge_power`` under ``spectra``).
* ``ball-tau3-r7``: ``anosov-lab run`` on ``fuchsian_tau3.json`` at
  radius 7 (alpha, m=2, 4,373 elements).  Many cheap elements: ball
  enumeration, per-element Cartan/Jordan loops and CSV writing.
* ``boundary-tau4``: a library pipeline on tau4 of the Schottky pair
  with m=2: ``limit_samples`` at radius 5, the pair scans on the
  sub-cloud of witnesses of length <= 4, 2,000 seeded hyperconvexity
  triples and a Hoelder regression at 3 seeded anchors.  The boundary
  layer both writes the cloud and reads it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIGS = Path("src") / "anosovlab" / "configs"
PROBE_SEED = 0


def ball_size(radius: int) -> int:
    """Reduced words of length <= radius in the free group of rank 2."""
    return 2 * 3 ** radius - 1


def reduced_words(rng: random.Random, count: int, lengths) -> list[str]:
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    words = []
    for _ in range(count):
        word = ""
        for _ in range(rng.choice(lengths)):
            word += rng.choice([c for c in "aAbB"
                                if not word or c != inverse[word[-1]]])
        words.append(word)
    return words


@dataclass
class CliWorkload:
    """``anosov-lab run <config> --radius R`` in the workload process."""

    config: str
    radius: int
    smoke_radius: int
    expected_exit: int
    csvs: tuple[str, ...]
    blocks: tuple[int, ...]        # tau_d block dimensions of the config
    alpha: float | None = None     # exact regularity ratio, if checked
    probe_block: int | None = None  # tau_d block for the deep-word probe
    state: dict = field(default_factory=dict)

    def setup(self, root: Path, smoke: bool, seed: int, out: Path) -> None:
        from anosovlab import cli, functors
        path = root / CONFIGS / self.config
        cfg = cli.load_config(path)
        functors.build_representation(cfg["representation"])
        radius = self.smoke_radius if smoke else self.radius
        self.state.update(cfg=cfg, out=out, radius=radius, exits=[],
                          argv=["run", str(path), "--radius", str(radius),
                                "--out", str(out)])

    def repetition(self) -> None:
        from anosovlab import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.state["argv"])
        self.state["exits"].append(code)

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.state["out"].iterdir())

    def check(self, tally) -> None:
        import checks
        st = self.state
        tally.add("exit_code",
                  all(c == self.expected_exit for c in st["exits"]),
                  gating=True)
        summary_path = st["out"] / "summary.json"
        tally.add("artifacts", summary_path.is_file(), gating=True)
        if not summary_path.is_file():
            return
        summary = json.loads(summary_path.read_text())
        tally.add("artifacts", sorted(summary["outputs"]) == sorted(self.csvs),
                  gating=True)
        parsed = checks.check_csv_artifacts(st["out"], self.csvs, tally)
        base = _base_generators(st["cfg"]["representation"])
        words = checks.BaseWords(base)
        if "spectra.csv" in parsed:
            checks.check_spectra_rows(parsed["spectra.csv"], words,
                                      self.blocks, ball_size(st["radius"]),
                                      tally)
        if self.alpha is not None:
            value = summary["results"]["alpha"]
            tally.add("alpha", abs(value - self.alpha) < checks.ALPHA_TOL,
                      gating=True)
        if self.probe_block is not None:
            self._probe(tally, words)

    def _probe(self, tally, words) -> None:
        """30 tau_d words of length 7-8 through the public
        ``cartan_jordan``; deep words expose the accuracy defect of the
        direct spectral path.

        The words come from the fixed ``PROBE_SEED``, not the run's seed:
        about half of such words fail, so a fresh draw per run would move
        the failure count by about 4 (13%) between seeds and swamp
        ``fail_ratio``."""
        from anosovlab import functors, spectra
        recipe = _find_tau_block(self.state["cfg"]["representation"],
                                 self.probe_block)
        rep = functors.build_representation(recipe)
        probe = reduced_words(random.Random(PROBE_SEED), 30, (7, 8))
        data = [spectra.cartan_jordan(rep.generators.element(w))
                for w in probe]
        import checks
        checks.check_probe(data, words, self.probe_block, probe, tally)


def _base_generators(recipe: dict) -> dict:
    """Generators of the 2x2 base shared by every tau_d block."""
    if recipe["kind"] == "matrices":
        return recipe["generators"]
    if recipe["kind"] == "tau":
        return _base_generators(recipe["base"])
    if recipe["kind"] == "direct_sum":
        left = _base_generators(recipe["left"])
        if left != _base_generators(recipe["right"]):
            raise ValueError("direct sum blocks have different bases")
        return left
    raise ValueError(f"no closed-form reference for {recipe['kind']!r}")


def _find_tau_block(recipe: dict, d: int) -> dict:
    if recipe["kind"] == "tau" and recipe["d"] == d:
        return recipe
    if recipe["kind"] == "direct_sum":
        for side in ("left", "right"):
            with contextlib.suppress(LookupError):
                return _find_tau_block(recipe[side], d)
    raise LookupError(f"no tau_{d} block in the config")


@dataclass
class BoundaryWorkload:
    """Limit-set sampling and boundary scans on tau_d of the Schottky pair."""

    d: int
    m: int
    radius: int
    witness_len: int
    n_triples: int
    n_anchors: int
    smoke: dict
    state: dict = field(default_factory=dict)

    def setup(self, root: Path, smoke: bool, seed: int, out: Path) -> None:
        from anosovlab import cli, functors
        cfg = cli.load_config(root / CONFIGS / "schottky_sl2.json")
        recipe = {"kind": "tau", "d": self.d, "base": cfg["representation"]}
        functors.build_representation(recipe)
        params = {"radius": self.radius, "witness_len": self.witness_len,
                  "n_triples": self.n_triples, "min_points": 20}
        if smoke:
            params.update(self.smoke)
        rng = random.Random(seed)
        self.state.update(
            recipe=recipe, base=cfg["representation"]["generators"],
            seed=seed, anchors=rng.sample(["a", "A", "b", "B"],
                                          self.n_anchors),
            **params)

    def repetition(self) -> None:
        from anosovlab import boundary, functors, geometry
        st = self.state
        rep = functors.build_representation(st["recipe"])
        cloud = boundary.limit_samples(rep, self.m, st["radius"])
        sub = boundary.LimitCloud(
            samples=tuple(s for s in cloud.samples
                          if s.witness.length <= st["witness_len"]),
            m=cloud.m, rep_recipe=cloud.rep_recipe)
        transversality = boundary.transversality_scan(sub)
        controlled = boundary.controlled_set_check(sub)
        hyperconvexity = boundary.hyperconvexity_scan(
            cloud, n_triples=st["n_triples"], seed=st["seed"])
        by_word = {s.witness.word: s for s in cloud.samples}
        slopes = [geometry.hoelder_regression(
                      cloud, by_word[w], min_points=st["min_points"]).slope
                  for w in st["anchors"]]
        st["result"] = (cloud, transversality, controlled, hyperconvexity,
                        slopes)

    def artifact_bytes(self) -> int:
        return 0

    def check(self, tally) -> None:
        import checks
        cloud, transversality, controlled, hyperconvexity, slopes = \
            self.state["result"]
        words = checks.BaseWords(self.state["base"])
        for s in cloud.samples:
            ref = words.attracting_line(s.witness.word, self.d)
            err = checks.proj_sine(s.xi1_plus.vector().tolist(), ref)
            tally.add("boundary", err <= checks.LIMIT_POINT_TOL, gating=True)
        lo, hi = checks.HOELDER_SLOPE_RANGE
        for slope in slopes:
            tally.add("boundary", lo <= slope <= hi, gating=True)
        for margin in (transversality.min_margin_m,
                       transversality.min_margin_1,
                       hyperconvexity.min_margin):
            tally.add("boundary", margin > 0, gating=True)
        # each violation is a false positive: sampled points of a
        # hyperconvex curve never meet another point's hyperplane
        tally.add_many("boundary", controlled.n_pairs,
                       len(controlled.violations))


# name -> factory of a fresh workload (each holds its own run state)
WORKLOADS = {
    "refine-d10": functools.partial(
        CliWorkload, config="tau_d_plus_tau_d2.json", radius=3,
        smoke_radius=2, expected_exit=2,
        csvs=("gap_profile.csv", "spectra.csv"), blocks=(4, 6),
        probe_block=6),
    "ball-tau3-r7": functools.partial(
        CliWorkload, config="fuchsian_tau3.json", radius=7, smoke_radius=3,
        expected_exit=0, csvs=("alpha_per_radius.csv", "spectra.csv"),
        blocks=(3,), alpha=2.0),
    "boundary-tau4": functools.partial(
        BoundaryWorkload, d=4, m=2, radius=5, witness_len=4, n_triples=2000,
        n_anchors=3, smoke={"radius": 4, "witness_len": 2, "n_triples": 50,
                            "min_points": 5}),
}
