"""Batch front-end: JSON experiment configs in, CSV/JSON/SVG artifacts out.

``anosov-lab run config.json`` executes one experiment and writes a
summary JSON plus per-kind tables; ``anosov-lab examples`` lists the
shipped example configs.  Exit codes: 0 success, 2 ran fine but the
tested property failed (e.g. a gap that does not grow linearly), 1 error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import (DEFAULT_FLAG_DEDUP_TOL, hyperconvexity_scan,
                       limit_samples)
from .functors import build_representation, perturb_rep
from .geometry import build_chart, chart_coords, hoelder_regression
from .groups import BallTooLargeError, enumerate_ball
from .spectra import (alpha_m_estimate, cone_diagnostic, gap_profile,
                      gelfand_check, spectral_kernel, spectral_table)

# The experiment fields each kind reads, with their defaults: any other
# field is rejected.  A callable default depends on the run and is called
# with the representation and the radius.
_FIELDS = {
    "certify": {"ks": [1], "slope_min": 0.05, "r2_min": 0.9},
    "alpha": {"m": 2, "tol": 1e-9},
    "limitset": {"m": 2, "dedup_tol": DEFAULT_FLAG_DEDUP_TOL,
                 "anchor_index": 0},
    "hyperconvex": {"m": 2, "dedup_tol": DEFAULT_FLAG_DEDUP_TOL,
                    "n_triples": 500, "sep_tol": 1e-3, "margin_min": 0.0},
    "hoelder": {"m": 2, "dedup_tol": DEFAULT_FLAG_DEDUP_TOL,
                "window": [1e-5, 1e-1], "n_anchors": 3},
    "cones": {"n_min": lambda rep, radius: max(1, radius - 3)},
    "gelfand": {"word": lambda rep, radius: rep.generators.positive_labels[0],
                "i": 1, "K": 200},
    "perturb-sweep": {"eps_list": [0.0, 1e-4, 1e-3], "k": 1,
                      "slope_min": 0.05, "r2_min": 0.9},
}
KINDS = tuple(_FIELDS)


class ConfigError(ValueError):
    """Config validation failure with a dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cfg: dict, key: str, types, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = cfg[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(value).__name__}")
    return value


# the top-level keys of a config, and the fields each recipe kind reads
# (a matrices recipe may also carry the optional "name")
_CONFIG_KEYS = ("name", "description", "representation", "radius", "seed",
                "experiment")
_RECIPE_FIELDS = {
    "matrices": ("kind", "dim", "generators", "name"),
    "su21": ("kind", "generators"),
    "tau": ("kind", "base", "d"),
    "wedge": ("kind", "base", "k"),
    "sym2": ("kind", "base"),
    "perturb": ("kind", "base", "eps", "seed"),
    "direct_sum": ("kind", "left", "right"),
}


def _reject_unknown(obj: dict, known, path: str, owner: str) -> None:
    """Exit at the first key of ``obj`` outside ``known``."""
    for key in obj:
        if key not in known:
            reads = ", ".join(k for k in known if k != "kind")
            raise ConfigError(f"{path}.{key}",
                              f"not a field of {owner}, which reads {reads}")


def _validate_recipe(recipe, path: str) -> None:
    if not isinstance(recipe, dict):
        raise ConfigError(path, "representation recipe must be an object")
    kind = _require(recipe, "kind", str, path)
    if kind in _RECIPE_FIELDS:
        _reject_unknown(recipe, _RECIPE_FIELDS[kind], path,
                        f"recipe kind {kind!r}")
    if kind == "matrices":
        gens = _require(recipe, "generators", dict, path)
        if not gens:
            raise ConfigError(f"{path}.generators",
                              "at least one generator required")
        dim = _require(recipe, "dim", int, path)
        for label, rows in gens.items():
            arr = np.asarray(rows, dtype=float) if _is_numeric(rows) else None
            if arr is None or arr.shape != (dim, dim):
                raise ConfigError(f"{path}.generators.{label}",
                                  f"expected a {dim}x{dim} numeric matrix")
    elif kind == "su21":
        gens = _require(recipe, "generators", dict, path)
        if not gens:
            raise ConfigError(f"{path}.generators",
                              "at least one generator required")
        for label, rows in gens.items():
            arr = np.asarray(rows, dtype=float) if _is_numeric(rows) else None
            if arr is None or arr.shape != (3, 3, 2):
                raise ConfigError(f"{path}.generators.{label}",
                                  "expected a 3x3 matrix of [re, im] pairs")
    elif kind in ("tau", "wedge", "sym2", "perturb"):
        _validate_recipe(_require(recipe, "base", dict, path), f"{path}.base")
        if kind == "tau":
            d = _require(recipe, "d", int, path)
            if d < 2:
                raise ConfigError(f"{path}.d", "tau dimension must be >= 2")
        if kind == "wedge":
            _require(recipe, "k", int, path)
        if kind == "perturb":
            _require(recipe, "eps", (int, float), path)
            _require(recipe, "seed", int, path)
    elif kind == "direct_sum":
        _validate_recipe(_require(recipe, "left", dict, path), f"{path}.left")
        _validate_recipe(_require(recipe, "right", dict, path), f"{path}.right")
    else:
        raise ConfigError(f"{path}.kind", f"unknown recipe kind {kind!r}")


def _recipe_labels(recipe: dict) -> set[str]:
    """Positive generator labels of a validated recipe."""
    while recipe["kind"] not in ("matrices", "su21"):
        recipe = recipe["left" if recipe["kind"] == "direct_sum" else "base"]
    return set(recipe["generators"])


def _is_int(value, lo: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= lo


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# integer experiment fields and their least value; ranges that depend on
# the representation's dimension or the radius are checked by
# _check_bounds once the representation is built
_COUNT_FIELDS = {"k": 1, "m": 1, "i": 1, "K": 1, "n_triples": 1,
                 "n_anchors": 1, "n_min": 1, "anchor_index": 0}
# the tolerances, which the summary reports
_POSITIVE_FIELDS = ("tol", "dedup_tol", "sep_tol")
_REAL_FIELDS = ("slope_min", "r2_min", "margin_min")


def _validate_experiment(exp: dict, labels: set[str], path: str) -> None:
    def check(ok: bool, key: str, expected: str, value) -> None:
        if not ok:
            raise ConfigError(f"{path}.{key}",
                              f"expected {expected}, got {value!r}")

    _reject_unknown(exp, ["kind", *_FIELDS[exp["kind"]]], path,
                    f"kind {exp['kind']!r}")
    for key, lo in _COUNT_FIELDS.items():
        if key in exp:
            check(_is_int(exp[key], lo), key, f"an integer >= {lo}", exp[key])
    for key in _POSITIVE_FIELDS:
        if key in exp:
            check(_is_real(exp[key]) and exp[key] > 0, key,
                  "a finite number > 0", exp[key])
    for key in _REAL_FIELDS:
        if key in exp:
            check(_is_real(exp[key]), key, "a finite number", exp[key])
    for key, ok, expected in (
            ("ks", lambda k: _is_int(k, 1), "an integer >= 1"),
            # the noise range [-eps, eps] must have a finite width
            ("eps_list", lambda e: _is_real(e) and 0 <= e
             and math.isfinite(2.0 * e), "a number >= 0 with 2 * eps finite")):
        if key in exp:
            values = exp[key]
            check(isinstance(values, list) and len(values) > 0, key,
                  "a non-empty list", values)
            for j, value in enumerate(values):
                check(ok(value), f"{key}[{j}]", expected, value)
    if "window" in exp:
        w = exp["window"]
        check(isinstance(w, list) and len(w) == 2 and all(map(_is_real, w))
              and 0 < w[0] < w[1], "window", "[lo, hi] with 0 < lo < hi", w)
    if "word" in exp:
        word = exp["word"]
        letters = labels | {label.upper() for label in labels}
        check(isinstance(word, str) and len(word) > 0 and set(word) <= letters,
              "word", f"a non-empty word in {''.join(sorted(letters))}", word)


def _check_bounds(exp: dict, fields: dict, dim: int, radius: int) -> None:
    """Resolved experiment values whose range depends on the
    representation's dimension or on the radius, as the analytics require
    them.  A default out of range for the radius blames the radius."""
    m_lo = 2 if exp["kind"] in ("alpha", "hyperconvex") else 1
    bounds = {"k": (1, dim - 1), "m": (m_lo, dim - 1), "i": (1, dim),
              "n_min": (1, radius - 1)}
    values = [(key, key, fields[key]) for key in bounds if key in fields]
    if "ks" in fields:
        values += [(f"ks[{j}]", "k", k) for j, k in enumerate(fields["ks"])]
    for field_path, key, value in values:
        lo, hi = bounds[key]
        if lo <= value <= hi:
            continue
        if key == "n_min" and key not in exp:
            raise ConfigError("config.radius", f"expected an integer >= "
                              f"{value + 1} for the {exp['kind']} default "
                              f"n_min {value}, got {radius}")
        scope, size = ("radius", radius) if key == "n_min" else ("dimension",
                                                                 dim)
        if lo > hi:  # every empty range here has hi = size - 1
            raise ConfigError(f"config.experiment.{field_path}",
                              f"kind {exp['kind']!r} needs {scope} >= "
                              f"{lo + 1}, got {size}")
        raise ConfigError(f"config.experiment.{field_path}",
                          f"expected an integer in [{lo}, {hi}] for "
                          f"{scope} {size}, got {value!r}")


def _is_numeric(rows) -> bool:
    try:
        np.asarray(rows, dtype=float)
        return True
    except (TypeError, ValueError):
        return False


def load_config(path: Path) -> dict:
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}, "
                                     f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top level must be an object")
    _reject_unknown(cfg, _CONFIG_KEYS, "config", "a config")
    _validate_recipe(_require(cfg, "representation", dict, "config"),
                     "config.representation")
    _check_radius(_require(cfg, "radius", int, "config"))
    _require(cfg, "seed", int, "config")
    exp = _require(cfg, "experiment", dict, "config")
    kind = _require(exp, "kind", str, "config.experiment")
    if kind not in KINDS:
        raise ConfigError("config.experiment.kind",
                          f"unknown kind {kind!r}; expected one of {KINDS}")
    _validate_experiment(exp, _recipe_labels(cfg["representation"]),
                         "config.experiment")
    return cfg


def _check_radius(radius: int) -> int:
    if radius < 1:
        raise ConfigError("config.radius", "radius must be >= 1")
    return radius


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_csv(path: Path, fieldnames, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})


def _write_svg(path: Path, points, anchor_uw) -> None:
    """Scatter of chart coordinates with the tangent direction (the
    u-axis of the chart) drawn at the anchor."""
    size = 640.0
    pad = 40.0
    us = np.array([p[0] for p in points])
    ws = np.array([p[1] for p in points])
    lo_u, hi_u = np.percentile(us, [5, 95])
    lo_w, hi_w = np.percentile(ws, [5, 95])
    span = max(hi_u - lo_u, hi_w - lo_w, 1e-12)

    def sx(u):
        return pad + (u - lo_u) / span * (size - 2 * pad)

    def sy(w):
        return size - pad - (w - lo_w) / span * (size - 2 * pad)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    half = 0.15 * span
    x0, y0 = sx(anchor_uw[0] - half), sy(anchor_uw[1])
    x1, y1 = sx(anchor_uw[0] + half), sy(anchor_uw[1])
    lines.append(f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{x1:.3f}" '
                 f'y2="{y1:.3f}" stroke="#d62728" stroke-width="1.5"/>')
    for u, w in points:
        lines.append(f'<circle cx="{sx(u):.3f}" cy="{sy(w):.3f}" r="1.6" '
                     f'fill="#1f77b4" fill-opacity="0.7"/>')
    lines.append(f'<circle cx="{sx(anchor_uw[0]):.3f}" '
                 f'cy="{sy(anchor_uw[1]):.3f}" r="3.5" fill="#d62728"/>')
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment drivers: each returns (results dict, property verdict)

def _run_certify(rep, exp, radius, seed, out, artifacts):
    ball = enumerate_ball(rep.generators, radius)
    rows, results = [], {}
    all_linear = True
    for k in exp["ks"]:
        prof = gap_profile(rep, k, radius, ball=ball,
                           slope_min=exp["slope_min"], r2_min=exp["r2_min"])
        for n, mn, mx in zip(prof.lengths, prof.min_gap, prof.max_gap):
            rows.append({"k": k, "length": int(n), "min_gap": float(mn),
                         "max_gap": float(mx)})
        results[f"k={k}"] = {
            "slope": prof.slope, "intercept": prof.intercept,
            "r_squared": prof.r_squared, "verdict": prof.verdict,
        }
        all_linear = all_linear and prof.linear
    _write_csv(out / "gap_profile.csv", ["k", "length", "min_gap", "max_gap"],
               rows)
    artifacts.append("gap_profile.csv")
    table = spectral_table(rep, radius, ball=ball)
    _write_csv(out / "spectra.csv", list(table[0].keys()), table)
    artifacts.append("spectra.csv")
    return results, all_linear


def _run_alpha(rep, exp, radius, seed, out, artifacts):
    m = exp["m"]
    ball = enumerate_ball(rep.generators, radius)
    est = alpha_m_estimate(rep, m, radius, tol=exp["tol"], ball=ball)
    rows = [{"radius": int(r), "alpha_inf": float(v)}
            for r, v in est.per_radius if not np.isnan(v)]
    _write_csv(out / "alpha_per_radius.csv", ["radius", "alpha_inf"], rows)
    artifacts.append("alpha_per_radius.csv")
    table = spectral_table(rep, radius, m=m, ball=ball)
    _write_csv(out / "spectra.csv", list(table[0].keys()), table)
    artifacts.append("spectra.csv")
    results = {"m": m, "alpha": est.value, "witness": est.witness.word,
               "converged": bool(est.converged)}
    if not est.converged:
        results["note"] = "possibly not converged"
    return results, True


def _cloud_rows(cloud):
    rows = []
    for s in cloud.samples:
        row = {"word": s.witness.word, "length": s.witness.length}
        for i, v in enumerate(s.xi1_plus.vector()):
            row[f"xi1_{i + 1}"] = float(v)
        for name in ("xim_plus", "xi_dm_minus", "xi_d1_minus"):
            frame = getattr(s, name).frame
            for i, v in enumerate(frame.ravel(order="F")):
                row[f"{name}_{i + 1}"] = float(v)
        rows.append(row)
    return rows


def _pick_chart_pair(cloud, anchor_index):
    from .linalg import proj_distance
    anchor = cloud.samples[anchor_index]
    far_idx = max(range(len(cloud.samples)),
                  key=lambda i: (proj_distance(anchor.xi1_plus,
                                               cloud.samples[i].xi1_minus), -i))
    return anchor, cloud.samples[far_idx]


def _run_limitset(rep, exp, radius, seed, out, artifacts):
    m = exp["m"]
    cloud = limit_samples(rep, m, radius, dedup_tol=exp["dedup_tol"])
    if exp["anchor_index"] >= len(cloud):
        raise ConfigError("config.experiment.anchor_index",
                          f"expected an integer in [0, {len(cloud) - 1}] "
                          f"for {len(cloud)} limit samples, "
                          f"got {exp['anchor_index']}")
    rows = _cloud_rows(cloud)
    _write_csv(out / "limit_cloud.csv", list(rows[0].keys()), rows)
    artifacts.append("limit_cloud.csv")
    results = {"m": m, "n_samples": len(cloud),
               "coverage": cloud.coverage_stats()}
    if rep.dim == 3:
        anchor, far = _pick_chart_pair(cloud, exp["anchor_index"])
        frame = build_chart(anchor, far)
        pts, chart_rows = [], []
        for s in cloud.samples:
            try:
                u, w = chart_coords(frame, s.xi1_plus)
            except ValueError:
                continue
            pts.append((float(u[0]), float(w[0])))
            chart_rows.append({"word": s.witness.word,
                               "u": float(u[0]), "w": float(w[0])})
        a_u, a_w = chart_coords(frame, anchor.xi1_plus)
        _write_svg(out / "limit_set.svg", pts, (float(a_u[0]), float(a_w[0])))
        artifacts.append("limit_set.svg")
        _write_csv(out / "chart_cloud.csv", ["word", "u", "w"], chart_rows)
        artifacts.append("chart_cloud.csv")
        results["svg_points"] = len(pts)
        results["anchor"] = anchor.witness.word
    return results, True


def _run_hyperconvex(rep, exp, radius, seed, out, artifacts):
    m = exp["m"]
    cloud = limit_samples(rep, m, radius, dedup_tol=exp["dedup_tol"])
    report = hyperconvexity_scan(cloud, m=m, n_triples=exp["n_triples"],
                                 seed=seed, sep_tol=exp["sep_tol"])
    rows = [{"index": i, "margin": float(v)}
            for i, v in enumerate(report.margins)]
    _write_csv(out / "hyperconvexity_margins.csv", ["index", "margin"], rows)
    artifacts.append("hyperconvexity_margins.csv")
    margin_min = exp["margin_min"]
    results = {"m": m, "n_samples": len(cloud),
               "n_triples": report.n_evaluated,
               "min_margin": report.min_margin,
               "worst_triple": list(report.worst_triple),
               "margin_min": margin_min}
    return results, report.min_margin > margin_min


def _run_hoelder(rep, exp, radius, seed, out, artifacts):
    m = exp["m"]
    window = tuple(exp["window"])
    cloud = limit_samples(rep, m, radius, dedup_tol=exp["dedup_tol"])
    pts = cloud.points()
    # anchors with the most neighbours inside the window, deterministically
    scores = []
    for i, s in enumerate(cloud.samples):
        v = s.xi1_plus.vector()
        dots = np.clip(np.abs(pts @ v), 0.0, 1.0)
        dist = np.sqrt(1.0 - dots ** 2)
        scores.append(((dist > window[0]) & (dist < window[1])).sum())
    from .geometry import REGRESSION_CAVEAT, _pair_distances
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    results = {"m": m, "window": list(window), "anchors": [],
               "caveat": REGRESSION_CAVEAT}
    rows, scatter = [], []
    for i in order[:exp["n_anchors"]]:
        anchor = cloud.samples[i]
        rep_report = hoelder_regression(cloud, anchor, window=window)
        results["anchors"].append({
            "witness": anchor.witness.word, "slope": rep_report.slope,
            "r_squared": rep_report.r_squared,
            "n_points": rep_report.n_points,
            "n_floored": rep_report.n_floored,
        })
        rows.append({"witness": anchor.witness.word,
                     "slope": rep_report.slope,
                     "r_squared": rep_report.r_squared,
                     "n_points": rep_report.n_points})
        for dp, dt in _pair_distances(cloud, anchor, "sin"):
            if window[0] < dp < window[1] and dt > 1e-14:
                scatter.append({"anchor": anchor.witness.word,
                                "point_distance": dp,
                                "tangent_distance": dt})
    _write_csv(out / "hoelder_slopes.csv",
               ["witness", "slope", "r_squared", "n_points"], rows)
    artifacts.append("hoelder_slopes.csv")
    _write_csv(out / "hoelder_scatter.csv",
               ["anchor", "point_distance", "tangent_distance"], scatter)
    artifacts.append("hoelder_scatter.csv")
    return results, True


def _run_cones(rep, exp, radius, seed, out, artifacts):
    report = cone_diagnostic(rep, radius, exp["n_min"])
    results = {"max_distance": report.max_distance,
               "mean_distance": report.mean_distance,
               "n_elements": report.n_elements,
               "degenerate": report.degenerate}
    return results, not report.degenerate


def _run_gelfand(rep, exp, radius, seed, out, artifacts):
    word, i, K = exp["word"], exp["i"], exp["K"]
    g = rep.generators.element(word)
    errors = gelfand_check(g.matrix, i, K)
    rows = [{"k": k + 1, "error": float(e)} for k, e in enumerate(errors)]
    _write_csv(out / "gelfand_errors.csv", ["k", "error"], rows)
    artifacts.append("gelfand_errors.csv")
    return {"word": word, "i": i, "K": K,
            "final_error": float(errors[-1])}, True


def _run_perturb_sweep(rep, exp, radius, seed, out, artifacts):
    k = exp["k"]
    rows, results = [], []
    for idx, eps in enumerate(exp["eps_list"]):
        pert = perturb_rep(rep, float(eps), seed + idx)
        prof = gap_profile(pert, k, radius, slope_min=exp["slope_min"],
                           r2_min=exp["r2_min"])
        rows.append({"eps": float(eps), "slope": prof.slope,
                     "r_squared": prof.r_squared, "verdict": prof.verdict})
        results.append({"eps": float(eps), "slope": prof.slope,
                        "verdict": prof.verdict})
    _write_csv(out / "perturb_sweep.csv",
               ["eps", "slope", "r_squared", "verdict"], rows)
    artifacts.append("perturb_sweep.csv")
    return {"k": k, "sweep": results}, all(r["verdict"] == "gap grows linearly"
                                           for r in results)


_DRIVERS = {
    "certify": _run_certify,
    "alpha": _run_alpha,
    "limitset": _run_limitset,
    "hyperconvex": _run_hyperconvex,
    "hoelder": _run_hoelder,
    "cones": _run_cones,
    "gelfand": _run_gelfand,
    "perturb-sweep": _run_perturb_sweep,
}


def run_experiment(cfg: dict, out_dir: Path) -> int:
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        rep = build_representation(cfg["representation"])
    except ValueError as exc:
        print(f"error: config.representation: {exc}", file=sys.stderr)
        return 1
    exp = cfg["experiment"]
    radius = cfg["radius"]
    seed = cfg["seed"]
    # the fields the kind reads: the config's value, else the default
    fields = {key: exp[key] if key in exp
              else default(rep, radius) if callable(default) else default
              for key, default in _FIELDS[exp["kind"]].items()}
    _check_bounds(exp, fields, rep.dim, radius)
    artifacts: list[str] = []
    try:
        results, ok = _DRIVERS[exp["kind"]](rep, fields, radius, seed,
                                            out_dir, artifacts)
    except BallTooLargeError as exc:
        raise ConfigError("config.radius", str(exc)) from exc
    summary = {
        "tool": "anosov-lab",
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "name": cfg.get("name", ""),
        "kind": exp["kind"],
        "radius": radius,
        "seed": seed,
        "dim": rep.dim,
        "tolerances": {key: value for key, value in fields.items()
                       if key in _POSITIVE_FIELDS + _REAL_FIELDS},
        "results": results,
        "diagnostics": {"spectral_kernel": spectral_kernel(rep.generators)},
        "property_satisfied": bool(ok),
        "outputs": sorted(artifacts),
        "wall_clock_s": round(time.perf_counter() - started, 6),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"{cfg.get('name', 'experiment')}: "
          f"{'ok' if ok else 'property not satisfied'} "
          f"-> {out_dir / 'summary.json'}")
    return 0 if ok else 2


def _example_configs():
    root = resources.files("anosovlab").joinpath("configs")
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".json"):
            yield entry.name, json.loads(entry.read_text())


def list_examples() -> int:
    for name, cfg in _example_configs():
        desc = cfg.get("description", "")
        print(f"{name:28s} {desc}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anosov-lab",
        description="spectral-gap, limit-set and regularity experiments for "
                    "linear representations of word-hyperbolic groups")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--radius", type=int, default=None,
                       help="override the config ball radius")
    run_p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: ./out/<config name>)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    sub.add_parser("examples", help="list shipped example configs")
    args = parser.parse_args(argv)

    if args.command == "examples":
        return list_examples()

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or Path("out") / args.config.stem
    try:
        if args.radius is not None:
            cfg["radius"] = _check_radius(args.radius)
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run_experiment(cfg, out_dir)
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
