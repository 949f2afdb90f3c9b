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
from types import SimpleNamespace

import numpy as np

from . import __version__
from .boundary import (DEFAULT_FLAG_DEDUP_TOL, _chunks, _separated,
                       hyperconvexity_scan, limit_samples)
from .functors import RECIPES, SUB_RECIPES, perturb_rep
from .geometry import (REGRESSION_CAVEAT, build_chart, chart_coords,
                       hoelder_regression)
from .groups import BallTooLargeError, enumerate_ball
from .linalg import _sines
from .spectra import (alpha_m_estimate, cone_diagnostic, gap_profile,
                      gelfand_check, spectral_kernel, spectral_table)


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


# the top-level keys of a config (functors.RECIPES holds a recipe's)
_CONFIG_KEYS = ("name", "description", "representation", "radius", "seed",
                "experiment")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # compared, not converted, so that a huge JSON integer is rejected too
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


_POSITIVE = (lambda v: _is_real(v) and v > 0, "a finite number > 0")
_REAL = (_is_real, "a finite number")
# the noise range [-eps, eps] must have a finite width
_EPS = (lambda v: _is_real(v) and v >= 0 and math.isfinite(2.0 * v),
        "a number >= 0 with 2 * eps finite")
# The rule of every integer and real value, by field name, wherever the
# field appears: at the top level, in a recipe or in an experiment (the
# overrides --radius and --seed included).  An integer field maps to its
# least value; a real field to its test and what it expects; a list field
# to the rule of each entry of a non-empty list.  Ranges that depend on
# the representation's dimension or on the radius are checked by
# _check_bounds once the representation is built.  The summary reports
# the _POSITIVE and _REAL fields a run read as its tolerances.
_VALUES = {
    "radius": 1, "seed": 0, "dim": 1, "d": 2, "k": 1, "eps": _EPS,
    "ks": [1], "m": 1, "i": 1, "K": 1, "n_triples": 1, "n_anchors": 1,
    "n_min": 1, "anchor_index": 0, "eps_list": [_EPS],
    "tol": _POSITIVE, "dedup_tol": _POSITIVE, "sep_tol": _POSITIVE,
    "slope_min": _REAL, "r2_min": _REAL, "margin_min": _REAL,
    "window": (lambda w: isinstance(w, list) and len(w) == 2
               and all(map(_is_real, w)) and 0 < w[0] < w[1],
               "[lo, hi] with 0 < lo < hi"),
}


def _check_values(obj: dict, path: str) -> None:
    """Exit at the first value of ``obj`` that breaks its field's rule."""
    for key, value in obj.items():
        rule = _VALUES.get(key)
        if rule is None:
            continue
        entries = [(key, value)]
        if isinstance(rule, list):
            if not (isinstance(value, list) and value):
                raise ConfigError(f"{path}.{key}",
                                  f"expected a non-empty list, got {value!r}")
            rule = rule[0]
            entries = [(f"{key}[{j}]", v) for j, v in enumerate(value)]
        for name, v in entries:
            if not isinstance(rule, int):
                if not rule[0](v):
                    raise ConfigError(f"{path}.{name}",
                                      f"expected {rule[1]}, got {v!r}")
            elif not _is_int(v):
                raise ConfigError(f"{path}.{name}",
                                  f"expected an integer, got {v!r}")
            elif v < rule:
                raise ConfigError(f"{path}.{name}",
                                  f"{name} must be >= {rule}, got {v}")


def _reject_unknown(obj: dict, known, path: str, owner: str) -> None:
    """Exit at the first key of ``obj`` outside ``known``."""
    for key in obj:
        if key not in known:
            reads = ", ".join(k for k in known if k != "kind")
            raise ConfigError(f"{path}.{key}",
                              f"not a field of {owner}, which reads {reads}")


def _build_recipe(recipe, path: str):
    """Check a recipe node's fields and values, build its sub-recipes, then
    the node, whose build failure exits at the node's path."""
    if not isinstance(recipe, dict):
        raise ConfigError(path, "representation recipe must be an object")
    kind = _require(recipe, "kind", str, path)
    if kind not in RECIPES:
        raise ConfigError(f"{path}.kind", f"unknown recipe kind {kind!r}")
    fields, build = RECIPES[kind]
    _reject_unknown(recipe, ("kind", *fields), path, f"recipe kind {kind!r}")
    for key in fields:
        if key != "name":
            _require(recipe, key, None, path)
    _check_values(recipe, path)
    if "generators" in fields:
        gens = _require(recipe, "generators", dict, path)
        if not gens:
            raise ConfigError(f"{path}.generators",
                              "at least one generator required")
        dim = recipe.get("dim")
        shape, expected = (((dim, dim), f"a {dim}x{dim} numeric matrix")
                           if kind == "matrices" else
                           ((3, 3, 2), "a 3x3 matrix of [re, im] pairs"))
        for label, rows in gens.items():
            try:
                ok = np.asarray(rows, dtype=float).shape == shape
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ConfigError(f"{path}.generators.{label}",
                                  f"expected {expected}")
    subs = [_build_recipe(recipe[key], f"{path}.{key}")
            for key in fields if key in SUB_RECIPES]
    try:
        return build(recipe, *subs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _validate_experiment(exp: dict, labels, path: str) -> None:
    _reject_unknown(exp, ["kind", *_KINDS[exp["kind"]][1]], path,
                    f"kind {exp['kind']!r}")
    _check_values(exp, path)
    if "word" in exp:
        word = exp["word"]
        letters = set(labels)
        if not (isinstance(word, str) and len(word) > 0
                and set(word) <= letters):
            raise ConfigError(f"{path}.word",
                              f"expected a non-empty word in "
                              f"{''.join(sorted(letters))}, got {word!r}")


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


def load_config(path: Path) -> dict:
    """The checked config of ``path``, whose recipe was built to check it."""
    return _load(path)[0]


def _load(path: Path):
    """The checked config of ``path`` and its built representation."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}, "
                                     f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top level must be an object")
    _reject_unknown(cfg, _CONFIG_KEYS, "config", "a config")
    rep = _build_recipe(_require(cfg, "representation", None, "config"),
                        "config.representation")
    for key in ("radius", "seed"):
        _require(cfg, key, None, "config")
    _check_values(cfg, "config")
    exp = _require(cfg, "experiment", dict, "config")
    kind = _require(exp, "kind", str, "config.experiment")
    if kind not in _KINDS:
        raise ConfigError("config.experiment.kind",
                          f"unknown kind {kind!r}; expected one of {KINDS}")
    _validate_experiment(exp, rep.generators.labels, "config.experiment")
    return cfg, rep


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# rows formatted and written at a time when a table has a float block
_CSV_BLOCK = 512


def _csv_cells(column) -> list[str]:
    """A leading column's cells as ``csv.writer`` writes them before more
    cells: an int array's by ``str``, once per distinct value, whose cells
    share that text; texts as they are unless csv quoting acts on one of
    them, else all through the writer."""
    if isinstance(column, np.ndarray):
        values, at = np.unique(column, return_inverse=True)
        texts = np.array(list(map(str, values.tolist())), dtype=object)
        return texts[at].tolist()
    joined = "".join(column)
    if not any(c in joined for c in ',"\r\n'):
        return column
    lines = []  # each ends with the separator of a last empty cell, "\r\n"
    csv.writer(SimpleNamespace(write=lines.append)).writerows(
        [cell, ""] for cell in column)
    return [line[:-3] for line in lines]


def _write_csv(path: Path, header, cells, values=None) -> None:
    """Write the header, then ``cells``: the rows, through ``csv.writer``,
    or, with an (n, w) float array ``values``, the leading columns, int
    arrays or lists of texts, each formatted once, row i exactly as the
    writer writes its i-th cells and then ``values[i].tolist()``.  A row
    with floats is never a lone empty field, the one case in which the
    writer writes an empty text as ``""``.  A float is written as its
    ``repr``, formatted once per distinct magnitude (the bits with the
    sign cleared), with a ``-`` in front if its sign bit is set, as its
    ``repr`` has, unless it is a NaN, whose ``repr`` drops the sign: so
    -0.0 and 0.0 stay apart."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if values is None:
            writer.writerows(cells)
            return
        values = np.ascontiguousarray(values, dtype=np.float64)
        magnitudes, at = np.unique(
            values.view(np.int64).ravel() & np.int64(2 ** 63 - 1),
            return_inverse=True)
        texts = list(map(repr, magnitudes.view(np.float64).tolist()))
        texts = np.array(texts + ["-" + t for t in texts], dtype=object)
        at = at.reshape(values.shape)  # the position of each value's text
        at[np.signbit(values) & ~np.isnan(values)] += len(magnitudes)
        leads = list(map(_csv_cells, cells))
        for start in range(0, len(values), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            grid = np.hstack([np.array([lead[rows] for lead in leads],
                                       dtype=object).T, texts[at[rows]]])
            fh.write("".join([",".join(line) + "\r\n"
                              for line in grid.tolist()]))


def _svg(points, anchor_uw) -> str:
    """Scatter of the (n, 2) chart coordinates (u, w) with the tangent
    direction (the u-axis of the chart) drawn at the anchor's (u, w)."""
    size = 640.0
    pad = 40.0
    lo_u, hi_u = np.percentile(points[:, 0], [5, 95])
    lo_w, hi_w = np.percentile(points[:, 1], [5, 95])
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
    for u, w in points.tolist():
        lines.append(f'<circle cx="{sx(u):.3f}" cy="{sy(w):.3f}" r="1.6" '
                     f'fill="#1f77b4" fill-opacity="0.7"/>')
    lines.append(f'<circle cx="{sx(anchor_uw[0]):.3f}" '
                 f'cy="{sy(anchor_uw[1]):.3f}" r="3.5" fill="#d62728"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment drivers: each takes the resolved experiment fields and returns
# (results dict, property verdict, artifacts), where artifacts maps each
# file name to its SVG text or to its table, the arguments of _write_csv
# after the path: (header, rows), a few rows of cells in header order, or
# (header, columns, values), the leading columns, int arrays or lists of
# texts, and the (n, w) float block of the columns after them

def _run_certify(rep, fields, radius, seed):
    ball = enumerate_ball(rep.generators, radius)
    rows, gaps, results = [], [], {}
    all_linear = True
    for k in fields["ks"]:
        prof = gap_profile(ball, k, slope_min=fields["slope_min"],
                           r2_min=fields["r2_min"])
        rows.append(np.column_stack([np.full_like(prof.lengths, k),
                                     prof.lengths]))
        gaps.append(np.column_stack([prof.min_gap, prof.max_gap]))
        results[f"k={k}"] = {
            "slope": prof.slope, "intercept": prof.intercept,
            "r_squared": prof.r_squared, "verdict": prof.verdict,
        }
        all_linear = all_linear and prof.linear
    return results, all_linear, {
        "gap_profile.csv": (["k", "length", "min_gap", "max_gap"],
                            list(np.vstack(rows).T), np.vstack(gaps)),
        "spectra.csv": spectral_table(ball)}


def _run_alpha(rep, fields, radius, seed):
    m = fields["m"]
    ball = enumerate_ball(rep.generators, radius)
    est = alpha_m_estimate(ball, m, tol=fields["tol"])
    per_radius = est.per_radius[~np.isnan(est.per_radius[:, 1])]
    results = {"m": m, "alpha": est.value, "witness": est.witness.word,
               "converged": bool(est.converged)}
    if not est.converged:
        results["note"] = "possibly not converged"
    if not est.witness_gap > fields["tol"]:
        # an element of infinite order with lam_m = lam_(m+1): not
        # P_m-Anosov, so the theorem does not apply and the ratio is not
        # the limit set's regularity
        results["hypotheses"] = (
            f"the witness's Jordan gap log(lam_{m} / lam_{m + 1}) = "
            f"{est.witness_gap:.3g} is at most tol = {fields['tol']:g}: the "
            f"representation is outside the theorem's hypotheses (not "
            f"P_{m}-Anosov), and alpha is not a regularity exponent")
    return results, True, {
        "alpha_per_radius.csv": (["radius", "alpha_inf"],
                                 [per_radius[:, 0].astype(int)],
                                 per_radius[:, 1:]),
        "spectra.csv": spectral_table(ball, m=m)}


def _cloud_table(cloud):
    """One row per sample: its witness, then the entries of its xi^(1),
    xi^(m), xi^(d-m) and xi^(d-1) frames, column by column."""
    header = ["word", "length"]
    columns = [cloud.words.tolist(), np.char.str_len(cloud.words)]
    entries = []
    for name in ("xi1", "xim_plus", "xi_dm_minus", "xi_d1_minus"):
        F = cloud.frames["xi1_plus" if name == "xi1" else name]
        entries.append(F.transpose(0, 2, 1).reshape(len(F), -1))
        header += [f"{name}_{i + 1}" for i in range(F[0].size)]
    return header, columns, np.hstack(entries)


def _run_limitset(rep, fields, radius, seed):
    m = fields["m"]
    cloud = limit_samples(rep, m, radius, dedup_tol=fields["dedup_tol"])
    a = fields["anchor_index"]
    if a >= len(cloud):
        raise ConfigError("config.experiment.anchor_index",
                          f"expected an integer in [0, {len(cloud) - 1}] "
                          f"for {len(cloud)} limit samples, got {a}")
    artifacts = {"limit_cloud.csv": _cloud_table(cloud)}
    results = {"m": m, "n_samples": len(cloud),
               "coverage": cloud.coverage_stats()}
    if rep.dim == 3:
        # the chart of the anchor and of the first sample whose minus
        # point is the farthest from the anchor point
        plus, minus = cloud.lines
        far = int(np.argmax(_sines(minus, plus[a])))
        frame = build_chart(cloud.samples[a], cloud.samples[far])
        rows, u, w = chart_coords(frame, plus)
        coords = np.hstack([u, w])
        # the anchor maps to the chart's origin, never to infinity
        anchor_uw = coords[np.searchsorted(rows, a)]
        artifacts["limit_set.svg"] = _svg(coords, anchor_uw)
        artifacts["chart_cloud.csv"] = (["word", "u", "w"],
                                        [cloud.words[rows].tolist()], coords)
        results["svg_points"] = len(rows)
        results["anchor"] = str(cloud.words[a])
    return results, True, artifacts


def _run_hyperconvex(rep, fields, radius, seed):
    m = fields["m"]
    cloud = limit_samples(rep, m, radius, dedup_tol=fields["dedup_tol"])
    try:
        report = hyperconvexity_scan(cloud, n_triples=fields["n_triples"],
                                     seed=seed, sep_tol=fields["sep_tol"])
    except ValueError as exc:
        if len(cloud) < 3:
            raise
        # _check_bounds excludes m < 2, so the scan ran out of draws
        raise ConfigError("config.experiment.sep_tol", str(exc)) from exc
    margin_min = fields["margin_min"]
    results = {"m": m, "n_samples": len(cloud),
               "n_triples": report.n_evaluated,
               "n_svd": report.n_svd,
               "min_margin": report.min_margin,
               "worst_triple": list(report.worst_triple),
               "margin_min": margin_min}
    return results, report.min_margin > margin_min, {
        "hyperconvexity_margins.csv": (
            ["index", "margin"], [np.arange(len(report.margins))],
            report.margins[:, None])}


def _run_hoelder(rep, fields, radius, seed):
    m = fields["m"]
    window = tuple(fields["window"])
    cloud = limit_samples(rep, m, radius, dedup_tol=fields["dedup_tol"])
    # anchors with the most points p within the window by _sines(p, anchor),
    # ties to the first; for doubles, lo < dp is dp >= nextafter(lo, inf)
    plus = cloud.lines[0]
    lo = np.nextafter(window[0], math.inf)
    scores = np.concatenate([
        _separated(plus, plus[part], lo, window[1]).sum(axis=0)
        for part in _chunks(len(plus), 48 * len(plus))])
    order = np.argsort(-scores, kind="stable")
    results = {"m": m, "window": list(window), "anchors": [],
               "caveat": REGRESSION_CAVEAT}
    header = ["witness", "slope", "r_squared", "n_points"]
    rows, anchors, scatter = [], [], []
    for i in order[:fields["n_anchors"]]:
        anchor = cloud.samples[i]
        try:
            rep_report = hoelder_regression(cloud, anchor, window=window)
        except ValueError as exc:  # too few points in the window
            raise ConfigError("config.experiment.window", str(exc)) from exc
        row = [anchor.witness.word, rep_report.slope, rep_report.r_squared,
               rep_report.n_points]
        rows.append(row)
        results["anchors"].append(dict(zip(header, row),
                                       n_floored=rep_report.n_floored))
        anchors += [anchor.witness.word] * len(rep_report.points)
        scatter.append(rep_report.points)
    return results, True, {
        "hoelder_slopes.csv": (header, rows),
        "hoelder_scatter.csv": (["anchor", "point_distance",
                                 "tangent_distance"], [anchors],
                                np.vstack(scatter))}


def _run_cones(rep, fields, radius, seed):
    report = cone_diagnostic(enumerate_ball(rep.generators, radius),
                             fields["n_min"])
    results = {"max_distance": report.max_distance,
               "mean_distance": report.mean_distance,
               "n_elements": report.n_elements,
               "degenerate": report.degenerate}
    return results, not report.degenerate, {}


def _run_gelfand(rep, fields, radius, seed):
    word, i, K = fields["word"], fields["i"], fields["K"]
    try:
        g = rep.generators.element(word)
    except FloatingPointError as exc:
        raise ConfigError("config.experiment.word", str(exc)) from exc
    errors = gelfand_check(g.matrix, i, K)
    return ({"word": word, "i": i, "K": K, "final_error": float(errors[-1])},
            True, {"gelfand_errors.csv": (
                ["k", "error"], [np.arange(1, len(errors) + 1)],
                errors[:, None])})


def _run_perturb_sweep(rep, fields, radius, seed):
    k = fields["k"]
    rows, results = [], []
    for idx, eps in enumerate(fields["eps_list"]):
        pert = perturb_rep(rep, float(eps), seed + idx)
        prof = gap_profile(enumerate_ball(pert.generators, radius), k,
                           slope_min=fields["slope_min"],
                           r2_min=fields["r2_min"])
        rows.append([float(eps), prof.slope, prof.r_squared, prof.verdict])
        results.append({"eps": float(eps), "slope": prof.slope,
                        "verdict": prof.verdict})
    ok = all(r["verdict"] == "gap grows linearly" for r in results)
    return {"k": k, "sweep": results}, ok, {
        "perturb_sweep.csv": (["eps", "slope", "r_squared", "verdict"], rows)}


# Each experiment kind: its driver, and the fields it reads with their
# defaults; any other field is rejected.  A callable default depends on
# the run and is called with the representation and the radius.
_KINDS = {
    "certify": (_run_certify,
                {"ks": [1], "slope_min": 0.05, "r2_min": 0.9}),
    "alpha": (_run_alpha, {"m": 2, "tol": 1e-9}),
    "limitset": (_run_limitset, {"m": 2, "dedup_tol": DEFAULT_FLAG_DEDUP_TOL,
                                 "anchor_index": 0}),
    "hyperconvex": (_run_hyperconvex,
                    {"m": 2, "dedup_tol": DEFAULT_FLAG_DEDUP_TOL,
                     "n_triples": 500, "sep_tol": 1e-3, "margin_min": 0.0}),
    "hoelder": (_run_hoelder, {"m": 2, "dedup_tol": DEFAULT_FLAG_DEDUP_TOL,
                               "window": [1e-5, 1e-1], "n_anchors": 3}),
    "cones": (_run_cones,
              {"n_min": lambda rep, radius: max(1, radius - 3)}),
    "gelfand": (_run_gelfand,
                {"word": lambda rep, radius: rep.generators.positive_labels[0],
                 "i": 1, "K": 200}),
    "perturb-sweep": (_run_perturb_sweep,
                      {"eps_list": [0.0, 1e-4, 1e-3], "k": 1,
                       "slope_min": 0.05, "r2_min": 0.9}),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: dict, rep, out_dir: Path) -> int:
    started = time.perf_counter()
    exp = cfg["experiment"]
    radius = cfg["radius"]
    seed = cfg["seed"]
    driver, defaults = _KINDS[exp["kind"]]
    # the fields the kind reads: the config's value, else the default
    fields = {key: exp[key] if key in exp
              else default(rep, radius) if callable(default) else default
              for key, default in defaults.items()}
    _check_bounds(exp, fields, rep.dim, radius)
    try:
        results, ok, artifacts = driver(rep, fields, radius, seed)
    except BallTooLargeError as exc:
        raise ConfigError("config.radius", str(exc)) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        if isinstance(content, str):
            (out_dir / name).write_text(content)
        else:
            _write_csv(out_dir / name, *content)
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
                       if _VALUES.get(key) in (_POSITIVE, _REAL)},
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
        cfg, rep = _load(args.config)
    except (ConfigError, Warning) as exc:  # a warning raised as an error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or Path("out") / args.config.stem
    overrides = {key: value for key, value in (("radius", args.radius),
                                                ("seed", args.seed))
                 if value is not None}
    try:
        _check_values(overrides, "config")
        cfg.update(overrides)
        return run_experiment(cfg, rep, out_dir)
    except (ValueError, FloatingPointError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
