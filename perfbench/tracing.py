"""Run-time tracing of anosovlab's public functions, from outside the package.

:class:`Tracer` replaces every public function of the package modules
(the names in each module's ``__all__``; for a module without one, the
functions it defines without a leading underscore), plus
``GeneratorSet.matrix_of_word``, with a wrapper that records a span
(name, start, end, parent).  A function is replaced wherever a package
module binds it, so calls that go through ``from .x import f`` bindings
are traced as well.  Names the per-layer metrics depend on must exist,
or installing the tracer raises.

Self time is a span's duration minus the durations of its child spans;
the self times of all spans plus the time outside every span add up to
the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

LAYERS = ("cli", "functors", "groups", "spectra", "boundary", "geometry",
          "linalg")

# span names the per-layer metrics are defined on
REQUIRED = (
    "cli.main", "cli.run_experiment", "functors.wedge_power",
    "functors.build_representation", "groups.enumerate_ball",
    "groups.matrix_of_word", "spectra.gap_profile", "spectra.alpha_m_estimate",
    "spectra.spectral_table", "spectra.cartan_jordan",
    "linalg.singular_values", "linalg.eigen_moduli",
    "linalg.top_invariant_subspace", "linalg.direct_sum_margin",
    "linalg.proj_distance", "linalg.point_subspace_distance",
    "boundary.limit_samples", "boundary.transversality_scan",
    "boundary.controlled_set_check", "boundary.hyperconvexity_scan",
    "geometry.hoelder_regression",
)


def _ball_counts(ball):
    n = len(ball)
    d = ball[0].matrix.dim if n else 0
    return {"ball_elements": n, "ball_bytes_computed": n * d * d * 8}


# counters read off return values: span name -> result -> increments
RESULT_COUNTERS = {
    "groups.enumerate_ball": _ball_counts,
    "boundary.limit_samples": lambda cloud: {"samples": len(cloud)},
    "boundary.transversality_scan": lambda rep: {"pairs": rep.n_pairs},
    "boundary.controlled_set_check": lambda rep: {"pairs": rep.n_pairs},
}


def _public_names(mod):
    """``__all__``, or the functions a module without one defines."""
    names = getattr(mod, "__all__", None)
    if names is not None:
        return names
    return [name for name, obj in vars(mod).items()
            if not name.startswith("_") and isinstance(obj, types.FunctionType)
            and obj.__module__ == mod.__name__]


class Tracer:
    """Span recorder that patches the package while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def wrap(self, name: str, fn):
        count = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counters.update(count(result))
            return result

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("anosovlab")
        modules = {layer: importlib.import_module(f"anosovlab.{layer}")
                   for layer in LAYERS}
        targets = {}   # original function -> span name
        for mod in modules.values():
            for attr in _public_names(mod):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType):
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    targets[fn] = f"{layer}.{fn.__name__}"
        GeneratorSet = modules["groups"].GeneratorSet
        found = set(targets.values())
        if hasattr(GeneratorSet, "matrix_of_word"):
            found.add("groups.matrix_of_word")
        missing = set(REQUIRED) - found
        if missing:
            raise LookupError("cannot trace missing functions: "
                              + ", ".join(sorted(missing)))
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for mod in [pkg, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        self._patch(GeneratorSet, "matrix_of_word",
                    self.wrap("groups.matrix_of_word",
                              GeneratorSet.matrix_of_word))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def layer_metrics(spans, counters, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition lasting ``wall_s``."""
    selfs = self_times(spans)
    calls, self_s = Counter(), Counter()
    under_spectra = []
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        under_spectra.append(parent >= 0 and (
            under_spectra[parent] or spans[parent][0].startswith("spectra.")))
    svd = sum(1 for i, s in enumerate(spans)
              if under_spectra[i] and s[0] == "linalg.singular_values")
    eig = sum(1 for i, s in enumerate(spans)
              if under_spectra[i] and s[0] == "linalg.eigen_moduli")
    elements = counters["ball_elements"]
    pairs = counters["pairs"]
    scan_s = sum(end - start for name, start, end, _ in spans
                 if name in ("boundary.transversality_scan",
                             "boundary.controlled_set_check"))
    root_s = sum(end - start for _, start, end, parent in spans if parent < 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("functors.wedge_power", "groups.matrix_of_word",
                 "linalg.top_invariant_subspace", "linalg.direct_sum_margin",
                 "linalg.proj_distance", "linalg.point_subspace_distance"):
        out[f"{name}.calls"] = calls[name]
    for name in ("functors.wedge_power", "functors.build_representation",
                 "groups.enumerate_ball", "spectra.gap_profile",
                 "spectra.alpha_m_estimate", "spectra.spectral_table",
                 "spectra.cartan_jordan", "linalg.singular_values",
                 "linalg.eigen_moduli", "boundary.limit_samples",
                 "linalg.top_invariant_subspace",
                 "boundary.transversality_scan",
                 "boundary.controlled_set_check",
                 "boundary.hyperconvexity_scan",
                 "linalg.direct_sum_margin",
                 "geometry.hoelder_regression", "cli.run_experiment"):
        out[f"{name}.self_s"] = self_s[name]
    out["groups.ball_elements"] = elements
    out["groups.ball_bytes_computed"] = counters["ball_bytes_computed"]
    out["spectra.svd_per_element"] = ratio(svd, elements)
    out["spectra.eig_per_element"] = ratio(eig, elements)
    out["boundary.samples_per_element"] = ratio(counters["samples"], elements)
    out["boundary.pairs"] = pairs
    out["boundary.pair_us"] = ratio(scan_s, pairs) * 1e6
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    out["trace.uncovered_s"] = wall_s - root_s
    out["trace.run_s"] = wall_s
    return out
