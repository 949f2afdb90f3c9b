import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anosovlab import cli
from anosovlab.cli import ConfigError, list_examples, load_config, main
from anosovlab.functors import build_representation
from anosovlab.groups import enumerate_ball
from anosovlab.spectra import spectral_table


def config_path(name: str) -> Path:
    return Path(str(resources.files("anosovlab").joinpath("configs",
                                                          f"{name}.json")))


def write_config(tmp_path: Path, cfg: dict, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


BASE_REP = {
    "kind": "matrices", "dim": 2,
    "generators": {"a": [[2.0, 0.0], [0.0, 0.5]],
                   "b": [[1.25, 0.75], [0.75, 1.25]]},
}


# the experiment fields each kind reads, and no others
READS = {
    "certify": {"ks"},
    "alpha": {"m"},
    "limitset": {"m", "dedup_tol", "anchor_index"},
    "hyperconvex": {"m", "dedup_tol", "n_triples", "sep_tol", "margin_min"},
    "hoelder": {"m", "dedup_tol", "window", "n_anchors"},
    "gelfand": {"word", "i", "K"},
}


class TestExamples:
    def test_lists_five_entries(self, capsys):
        assert list_examples() == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5

    @pytest.mark.parametrize("name", ["fuchsian_tau3", "schottky_sl2",
                                      "su21_9dim", "tau5_plus_tau2",
                                      "tau_d_plus_tau_d2"])
    def test_each_config_validates(self, name):
        cfg = load_config(config_path(name))
        assert cfg["experiment"]["kind"]

    def test_examples_subcommand(self, capsys):
        assert main(["examples"]) == 0
        assert "fuchsian_tau3" in capsys.readouterr().out


class TestValidation:
    def test_missing_representation(self, tmp_path, capsys):
        path = write_config(tmp_path, {"radius": 3, "seed": 0,
                                       "experiment": {"kind": "alpha"}})
        assert main(["run", str(path)]) == 1
        assert "config.representation" in capsys.readouterr().err

    def test_empty_generators(self, tmp_path, capsys):
        cfg = {"representation": {"kind": "matrices", "dim": 2,
                                  "generators": {}},
               "radius": 3, "seed": 0, "experiment": {"kind": "alpha"}}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert "at least one generator required" in capsys.readouterr().err

    def test_bad_matrix_shape(self, tmp_path, capsys):
        cfg = {"representation": {"kind": "matrices", "dim": 2,
                                  "generators": {"a": [[1.0, 0.0]]}},
               "radius": 3, "seed": 0, "experiment": {"kind": "alpha"}}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert "generators.a" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        cfg = {"representation": BASE_REP, "radius": 3, "seed": 0,
               "experiment": {"kind": "frobnicate"}}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert "experiment.kind" in capsys.readouterr().err

    def test_malformed_json_line_info(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"representation": \n  oops}')
        assert main(["run", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer literal of more than 4,300 digits
        cfg = {"representation": BASE_REP, "radius": 0, "seed": 0,
               "experiment": {"kind": "certify"}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg).replace('"radius": 0',
                                                '"radius": ' + "9" * 5001))
        assert main(["run", str(path)]) == 1
        assert f"{path}: invalid JSON: " in capsys.readouterr().err

    def test_singular_generator_build_error(self, tmp_path, capsys):
        cfg = {"representation": {"kind": "matrices", "dim": 2,
                                  "generators": {"a": [[1.0, 1.0],
                                                       [1.0, 1.0]]}},
               "radius": 2, "seed": 0, "experiment": {"kind": "certify"}}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert "non-invertible" in capsys.readouterr().err

    def test_non_ascii_label_build_error(self, tmp_path, capsys):
        cfg = {"representation": {"kind": "matrices", "dim": 2,
                                  "generators": {"ß": [[2.0, 0.0],
                                                       [0.0, 0.5]]}},
               "radius": 2, "seed": 0, "experiment": {"kind": "certify"}}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.representation: ")
        assert "'ß'" in err and "Traceback" not in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        # a misspelt seed next to a recipe field matrices does not read
        rep = dict(BASE_REP, dimension=3)
        cfg = {"representation": rep, "radius": 2, "seed": 0, "sed": 5,
               "experiment": {"kind": "certify"}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert ("error: config.sed: not a field of a config, which reads "
                "name, description, representation, radius, seed, "
                "experiment") in err

    @pytest.mark.parametrize("recipe, path", [
        (dict(BASE_REP, dimension=3), "representation.dimension"),
        ({"kind": "tau", "d": 3, "base": BASE_REP, "dim": 3},
         "representation.dim"),
        ({"kind": "tau", "d": 3, "base": dict(BASE_REP, k=2)},
         "representation.base.k"),
        ({"kind": "direct_sum", "left": BASE_REP,
          "right": {"kind": "sym2", "base": BASE_REP, "d": 3}},
         "representation.right.d"),
        ({"kind": "perturb", "base": BASE_REP, "eps": 0.1, "seed": 1,
          "name": "p"}, "representation.name"),
    ])
    def test_unknown_recipe_field(self, tmp_path, capsys, recipe, path):
        cfg = {"representation": recipe, "radius": 2, "seed": 0,
               "experiment": {"kind": "certify"}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert f"error: config.{path}: not a field of recipe kind " in err

    @pytest.mark.parametrize("recipe, path", [
        ({"kind": "perturb", "eps": 0.1, "seed": 1,
          "base": dict(BASE_REP, generators={"a": [[1.0, 1.0], [1.0, 1.0]]})},
         "config.representation.base"),
        ({"kind": "tau", "d": 3, "base": {"kind": "tau", "d": 3,
                                          "base": BASE_REP}},
         "config.representation"),
        ({"kind": "direct_sum", "left": BASE_REP,
          "right": dict(BASE_REP, generators={"c": [[2.0, 0.0],
                                                    [0.0, 0.5]]})},
         "config.representation"),
        ({"kind": "direct_sum", "left": BASE_REP,
          "right": {"kind": "wedge", "k": 2, "base": BASE_REP}},
         "config.representation.right"),
    ], ids=["singular-base", "tau-of-tau3", "label-mismatch",
            "wedge-k-past-dim"])
    def test_build_failure_names_its_node(self, tmp_path, recipe, path):
        cfg = {"representation": recipe, "radius": 2, "seed": 0,
               "experiment": {"kind": "certify"}}
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, cfg))
        assert info.value.path == path

    def test_named_matrices_recipe_accepted(self, tmp_path):
        # build_representation reads the optional name of a matrices recipe
        cfg = {"representation": dict(BASE_REP, name="pair"), "radius": 2,
               "seed": 0, "description": "", "name": "n",
               "experiment": {"kind": "certify"}}
        assert load_config(write_config(tmp_path, cfg))["name"] == "n"


class TestExperimentFields:
    @pytest.mark.parametrize("kind, key, value, path", [
        ("certify", "ks", "1", "ks"),
        ("certify", "ks", [1, 0], "ks[1]"),
        ("certify", "ks", [], "ks"),
        ("alpha", "m", "2", "m"),
        ("gelfand", "i", 0, "i"),
        ("gelfand", "K", 2.5, "K"),
        ("hoelder", "window", [1e-1, 1e-4], "window"),
        ("hoelder", "window", [0.0, 1e-1], "window"),
        ("gelfand", "word", "az", "word"),
        ("hyperconvex", "n_triples", 0, "n_triples"),
        ("hoelder", "n_anchors", True, "n_anchors"),
        ("gelfand", "K", 0, "K"),
        ("limitset", "anchor_index", -1, "anchor_index"),
        ("hyperconvex", "sep_tol", -1e-9, "sep_tol"),
        ("limitset", "dedup_tol", "1e-7", "dedup_tol"),
        ("hyperconvex", "sep_tol", float("nan"), "sep_tol"),
        ("hyperconvex", "margin_min", None, "margin_min"),
        ("hyperconvex", "dedup_tol", 0.0, "dedup_tol"),
        ("hyperconvex", "margin_min", [0.0], "margin_min"),
        # ranges that depend on the dimension (2)
        ("certify", "ks", [1, 2], "ks[1]"),
        ("alpha", "m", 3, "m"),
        ("limitset", "m", 2, "m"),
        ("hyperconvex", "m", 1, "m"),
        ("gelfand", "i", 3, "i"),
        # a field the kind does not read
        ("certify", "dedup_tol", 0.5, "dedup_tol"),
        ("certify", "r2_min", "0.9", "r2_min"),
        # a real beyond the float range
        pytest.param("hyperconvex", "margin_min", 10**400, "margin_min",
                     id="hyperconvex-margin_min-10**400-margin_min"),
    ])
    def test_bad_field_exits_one_with_path(self, tmp_path, capsys, kind, key,
                                           value, path):
        cfg = {"representation": BASE_REP, "radius": 2, "seed": 0,
               "experiment": {"kind": kind, key: value}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        assert f"error: config.experiment.{path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["alpha", "limitset", "hyperconvex",
                                      "hoelder"])
    def test_default_m_out_of_range_names_field(self, tmp_path, capsys,
                                                kind):
        # the default m = 2 needs dimension >= 3
        cfg = {"representation": BASE_REP, "radius": 2, "seed": 0,
               "experiment": {"kind": kind}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        if kind in ("alpha", "hyperconvex"):
            # m >= 2 leaves no m in range at dimension 2
            assert (f"error: config.experiment.m: kind {kind!r} needs "
                    f"dimension >= 3, got 2") in err
        else:
            assert ("error: config.experiment.m: expected an integer in ["
                    in err)
            assert "for dimension 2, got 2" in err

    def test_field_accepted_iff_kind_reads_it(self, tmp_path):
        # tol, slope_min and r2_min are fixed thresholds, read by no kind
        valid = {"ks": [1], "k": 1, "m": 1, "i": 1, "K": 5,
                 "window": [1e-4, 1e-1], "word": "a", "n_triples": 5,
                 "n_anchors": 1,
                 "anchor_index": 0, "tol": 1e-9, "dedup_tol": 1e-7,
                 "sep_tol": 1e-3, "slope_min": 0.05, "r2_min": 0.9,
                 "margin_min": 0.0}
        accepted = {}
        for kind in READS:
            for key, value in valid.items():
                cfg = {"representation": BASE_REP, "radius": 2, "seed": 0,
                       "experiment": {"kind": kind, key: value}}
                path = write_config(tmp_path, cfg)
                try:
                    load_config(path)
                except ConfigError as exc:
                    assert exc.path == f"config.experiment.{key}"
                    assert "not a field of kind" in str(exc)
                    continue
                accepted.setdefault(kind, set()).add(key)
        assert accepted == READS

    @pytest.mark.parametrize("key", ["dedup_tol", "sep_tol"])
    def test_sine_tolerance_at_most_one(self, tmp_path, key):
        # both compare sines, none of which exceeds 1
        def experiment(value):
            cfg = {"representation": BASE_REP, "radius": 2, "seed": 0,
                   "experiment": {"kind": "hyperconvex", key: value}}
            return write_config(tmp_path, cfg)

        assert load_config(experiment(1.0))["experiment"][key] == 1.0
        with pytest.raises(ConfigError) as info:
            load_config(experiment(1.5))
        assert str(info.value) == (f"config.experiment.{key}: expected a "
                                   f"number in (0, 1], got 1.5")

    def test_word_over_inverse_labels_accepted(self, tmp_path):
        cfg = {"representation": {"kind": "tau", "d": 3, "base": BASE_REP},
               "radius": 2, "seed": 0,
               "experiment": {"kind": "gelfand", "word": "aB"}}
        assert load_config(write_config(tmp_path, cfg))["experiment"]["word"]


TAU3_REP = {"kind": "tau", "d": 3, "base": BASE_REP}
TAU6_OVERFLOW = {"kind": "tau", "d": 6, "base": dict(
    BASE_REP, generators={"a": [[1e100, 0], [0, 1e-100]]})}
SYM2_OVERFLOW = {"kind": "sym2", "base": dict(
    BASE_REP, generators={"a": [[1e200, 0], [0, 1e-200]]})}
HYPERCONVEX = {"representation": TAU3_REP,
               "experiment": {"kind": "hyperconvex", "n_triples": 5}}
OVER_CAP = "ball too large: over 1000000000000000000 words exceed cap 5000000"


class TestConfigValues:
    """Integer and real values outside the experiment: at the top level,
    in a recipe, and in the --radius and --seed overrides."""

    @pytest.mark.parametrize("changes, argv, path, message", [
        ({"representation": {"kind": "perturb", "base": BASE_REP,
                             "eps": eps, "seed": 1}}, [],
         "representation.eps",
         f"expected a number >= 0 with 2 * eps finite, got {eps!r}")
        for eps in (1e308, float("nan"), True)
    ] + [
        ({"radius": True}, [], "radius", "expected an integer, got True"),
        ({"seed": True}, [], "seed", "expected an integer, got True"),
        (dict(HYPERCONVEX, seed=-1), [], "seed", "seed must be >= 0, got -1"),
        (HYPERCONVEX, ["--seed", "-1"], "seed", "seed must be >= 0, got -1"),
        ({"representation": dict(TAU3_REP, d=True)}, [], "representation.d",
         "expected an integer, got True"),
        ({"representation": {"kind": "wedge", "base": TAU3_REP, "k": True}},
         [], "representation.k", "expected an integer, got True"),
        ({"radius": 100000}, [], "radius", OVER_CAP),
        ({"radius": 1000000}, [], "radius", OVER_CAP),
        ({"representation": dict(BASE_REP, generators={
            "a": [[10**400, 0], [0, 1]]})}, [], "representation.generators.a",
         "expected a 2x2 numeric matrix"),
    ], ids=["eps-1e308", "eps-nan", "eps-true", "radius-true", "seed-true",
            "seed--1", "override-seed--1", "d-true", "k-true",
            "radius-100000", "radius-1000000", "generator-10**400"])
    def test_bad_value_exits_one_with_path(self, tmp_path, capsys, changes,
                                           argv, path, message):
        cfg = dict({"representation": BASE_REP, "radius": 2, "seed": 0,
                    "experiment": {"kind": "certify"}}, **changes)
        started = time.perf_counter()
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out"), *argv]) == 1
        assert time.perf_counter() - started < 1.0
        assert f"error: config.{path}: {message}\n" in capsys.readouterr().err


class TestFailedRunWritesNothing:
    @pytest.mark.parametrize("changes, message", [
        ({"representation": {"kind": "tau", "d": 3, "base": TAU3_REP}},
         "config.representation: tau requires a 2-dimensional base"),
        ({"experiment": {"kind": "alpha", "m": 3}},
         "config.experiment.m: expected an integer in [2, 2]"),
        ({"radius": 20}, "config.radius: ball too large: "),
        ({"representation": {"kind": "tau", "d": 6, "base": BASE_REP},
          "experiment": {"kind": "gelfand", "word": "ab" * 200}},
         "config.experiment.word: word products overflow doubles in "
         "dimension 6; the longest word has length 400"),
        # far past the address space: the allocation fails at once
        ({"experiment": {"kind": "gelfand", "K": 10**15}},
         "out of memory: "),
        ({"radius": 3,
          "experiment": {"kind": "hyperconvex", "n_triples": 10**15}},
         "out of memory: "),
        ({"radius": 3,
          "experiment": {"kind": "hoelder", "window": [0.4, 0.5]}},
         "config.experiment.window: too few cloud points in window "),
        ({"radius": 3, "experiment": {"kind": "hyperconvex", "sep_tol": 1.0}},
         "config.experiment.sep_tol: cannot find 500 separated triples "),
        ({"representation": TAU6_OVERFLOW},
         "config.representation: tau_6 image overflows doubles"),
        ({"representation": SYM2_OVERFLOW},
         "config.representation: sym2 image overflows doubles"),
    ], ids=["build", "bounds", "ball-cap", "word-overflow", "gelfand-K",
            "n_triples", "window", "sep_tol", "tau-overflow",
            "sym2-overflow"])
    def test_exit_one_leaves_no_output(self, tmp_path, capsys, changes,
                                       message):
        cfg = dict({"representation": TAU3_REP, "radius": 2, "seed": 0,
                    "experiment": {"kind": "certify"}}, **changes)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("kind, key, reads", [
        ("alpha", "tol", "m"), ("certify", "slope_min", "ks"),
        ("certify", "r2_min", "ks")])
    def test_fixed_threshold_exits_one(self, tmp_path, capsys, kind, key,
                                       reads):
        cfg = {"representation": TAU3_REP, "radius": 2, "seed": 0,
               "experiment": {"kind": kind, key: 0.5}}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config.experiment.{key}: not a field of kind "
            f"{kind!r}, which reads {reads}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["cones", "perturb-sweep"])
    def test_removed_kind_exits_one_listing_the_kinds(self, tmp_path, capsys,
                                                      kind):
        cfg = {"representation": TAU3_REP, "radius": 2, "seed": 0,
               "experiment": {"kind": kind}}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        assert cli.KINDS == ("certify", "alpha", "limitset", "hyperconvex",
                             "hoelder", "gelfand")
        assert capsys.readouterr().err == (
            f"error: config.experiment.kind: unknown kind {kind!r}; "
            f"expected one of {cli.KINDS}\n")
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        # the radius-2 gap profile is not certified linear
        ({}, "gap profile at k=1 is not certified linear"),
        # the wedge^1 image's inverse residual a a^-1 - 1 takes an
        # inf - inf at load
        ({"representation": {"kind": "wedge", "k": 1, "base": dict(
            BASE_REP, generators={"a": [[1e200, 1e200], [0, 1e-200]]})}},
         "invalid value encountered in matmul"),
        # the tau_6 build raises the base's entries to the 5th power: its
        # overflow is caught at load, not warned
        ({"representation": TAU6_OVERFLOW},
         "config.representation: tau_6 image overflows doubles"),
    ], ids=["run", "load", "tau-overflow"])
    def test_warning_raised_as_error_exits_one(self, tmp_path, capsys,
                                               changes, message):
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(HYPERCONVEX, radius=2, seed=0,
                                           **changes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_warning_alone_does_not_fail(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(HYPERCONVEX, radius=2, seed=0))
        with pytest.warns(UserWarning, match="not certified linear"):
            assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()


class TestRun:
    def test_alpha_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(config_path("fuchsian_tau3")),
                     "--radius", "4", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["results"]["alpha"] - 2.0) < 1e-9
        assert (out / "alpha_per_radius.csv").exists()
        assert (out / "spectra.csv").exists()
        header = (out / "spectra.csv").read_text().splitlines()[0]
        assert header.startswith("word,length,mu_1")
        assert "hypotheses" not in summary["results"]

    def test_alpha_outside_the_hypotheses(self, tmp_path):
        # the witness AAbaB has a complex pair, lam_2 = lam_3: its ratio 1
        # is not a regularity exponent, though the radii agree on it
        cfg = json.loads(config_path("fuchsian_tau3").read_text())
        cfg["representation"] = {"kind": "perturb", "eps": 0.1, "seed": 4,
                                 "base": cfg["representation"]}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["witness"] == "AAbaB" and results["converged"]
        assert results["alpha"] == pytest.approx(1.0, abs=1e-12)
        assert "not a regularity exponent" in results["hypotheses"]

    def test_alpha_is_the_least_ratio_in_spectra_csv(self, tmp_path):
        # alpha and ratio_m skip the same elements, those whose (1, 2) gap
        # is numerically zero: a threshold of 7 for alpha alone would give
        # 1.837 (witness ABaab) beside a least ratio_m of 1.748 here
        cfg = json.loads(config_path("fuchsian_tau3").read_text())
        cfg["representation"] = {"kind": "perturb", "eps": 0.05, "seed": 3,
                                 "base": cfg["representation"]}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--radius", "6",
                     "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        with (out / "spectra.csv").open(newline="") as fh:
            ratios = {row["word"]: float(row["ratio_m"])
                      for row in csv.DictReader(fh)}
        least = min(r for r in ratios.values() if not math.isnan(r))
        assert results["alpha"] == least == pytest.approx(1.7476540639232077)
        assert ratios[results["witness"]] == least

    def test_csv_cells_are_plain_floats(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_path("fuchsian_tau3")),
                     "--radius", "3", "--out", str(out)]) == 0
        for name in ("spectra.csv", "alpha_per_radius.csv"):
            with (out / name).open(newline="") as fh:
                for row in csv.DictReader(fh):
                    for key, cell in row.items():
                        if key != "word":
                            float(cell)

    def test_gap_collapse_exits_two(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(config_path("tau_d_plus_tau_d2")),
                     "--radius", "4", "--out", str(out)])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["property_satisfied"]
        assert summary["results"]["k=2"]["verdict"] != "gap grows linearly"

    def test_summary_reports_kernel_per_block(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_path("tau_d_plus_tau_d2")),
                     "--radius", "3", "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diagnostics"]["spectral_kernel"] == {
            "blocks": [4, 6], "paths": ["ladder", "ladder"]}

    def test_summary_reports_capped_block(self, tmp_path):
        cfg = {"representation": {"kind": "tau", "d": 10, "base": BASE_REP},
               "radius": 3, "seed": 0, "experiment": {"kind": "certify"}}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) in (0, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diagnostics"]["spectral_kernel"] == {
            "blocks": [10], "paths": ["capped at k=3"]}
        with (out / "spectra.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                for prefix in ("mu_", "lambda_"):
                    values = [float(row[f"{prefix}{i}"]) for i in range(1, 11)]
                    assert all(map(math.isfinite, values))
                    assert abs(sum(values)) < 1e-9

    def test_limitset_svg(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "limitset", "m": 2}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--radius", "4",
                     "--out", str(out)]) == 0
        svg = (out / "limit_set.svg").read_text()
        assert svg.startswith("<svg") and "<circle" in svg
        assert (out / "limit_cloud.csv").exists()
        # the flag dedup tolerance limit_samples used by default
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tolerances"]["dedup_tol"] == 1e-07

    @pytest.mark.parametrize("experiment, tolerances", [
        ({"kind": "certify"}, {"slope_min": 0.05, "r2_min": 0.9}),
        ({"kind": "alpha"}, {"tol": 1e-9}),
        ({"kind": "limitset"}, {"dedup_tol": 1e-7}),
        ({"kind": "hyperconvex", "n_triples": 20, "sep_tol": 1e-2},
         {"dedup_tol": 1e-7, "sep_tol": 1e-2, "margin_min": 0.0}),
        ({"kind": "hoelder", "window": [1e-3, 0.5], "n_anchors": 1,
          "dedup_tol": 1e-6}, {"dedup_tol": 1e-6}),
        ({"kind": "gelfand", "K": 10}, {}),
    ], ids=list(READS))
    def test_summary_reports_tolerances_read(self, tmp_path, experiment,
                                             tolerances):
        # the config's value where it sets one, the kind's default
        # otherwise, and the fixed thresholds of the kind's verdict
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = experiment
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--radius", "4",
                     "--out", str(out)]) in (0, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tolerances"] == tolerances
        # outputs lists exactly the files the run wrote
        assert summary["outputs"] == sorted(
            p.name for p in out.iterdir() if p.name != "summary.json")

    def test_anchor_index_past_the_cloud(self, tmp_path, capsys):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "limitset", "anchor_index": 100000}
        assert main(["run", str(write_config(tmp_path, cfg)), "--radius", "3",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: config.experiment.anchor_index: " in err
        assert "limit samples, got 100000" in err

    @pytest.mark.parametrize("name, radius, message", [
        ("fuchsian_tau3", "0", "radius must be >= 1"),
        ("schottky_sl2", "-2", "radius must be >= 1"),
        ("fuchsian_tau3", "20", "exceed cap 5000000"),
    ])
    def test_radius_override_checked(self, tmp_path, capsys, name, radius,
                                     message):
        assert main(["run", str(config_path(name)), "--radius", radius,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.radius: ") and message in err

    def test_config_radius_over_cap(self, tmp_path, capsys):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["radius"] = 20
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.radius: ball too large: ")

    def test_hyperconvex_kind(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "hyperconvex", "m": 2, "n_triples": 50,
                             "dedup_tol": 0.05}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--radius", "5",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["min_margin"] > 0
        # the triples whose margin took the SVD: a deterministic counter
        assert 0 <= summary["results"]["n_svd"] < 50
        assert main(["run", str(path), "--radius", "5",
                     "--out", str(tmp_path / "again")]) == 0
        again = json.loads((tmp_path / "again" / "summary.json").read_text())
        assert again["results"] == summary["results"]

    def test_hyperconvex_verdict_negative(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "hyperconvex", "m": 2, "n_triples": 20,
                             "dedup_tol": 0.05, "margin_min": 10.0}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--radius", "5",
                     "--out", str(tmp_path / "o")]) == 2

    def test_gelfand_kind(self, tmp_path):
        cfg = {"representation": BASE_REP, "radius": 2, "seed": 0,
               "experiment": {"kind": "gelfand", "word": "ab", "K": 50}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        rows = (out / "gelfand_errors.csv").read_text().splitlines()
        assert len(rows) == 51  # header + 50 entries

    def test_hoelder_kind(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "hoelder", "m": 2,
                             "window": [1e-4, 1e-1], "n_anchors": 2}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--radius", "6",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        with (out / "hoelder_scatter.csv").open() as fh:
            scatter = [row["anchor"] for row in csv.DictReader(fh)]
        for anchor in summary["results"]["anchors"]:
            assert abs(anchor["slope"] - 2.0) < 0.15
            # the scatter holds exactly the points each fit used
            assert scatter.count(anchor["witness"]) == anchor["n_points"]

    def test_hoelder_anchors_equal_the_per_anchor_loop(self, monkeypatch):
        # every anchor in order, with the window's edges at the distances
        # of two of the cloud's pairs and one ulp either side of them
        from types import SimpleNamespace
        from anosovlab.boundary import limit_samples
        from anosovlab.linalg import _sines
        rep = build_representation(
            load_config(config_path("fuchsian_tau3"))["representation"])
        cloud = limit_samples(rep, 2, 5)
        monkeypatch.setattr(cli, "limit_samples", lambda *args, **kw: cloud)
        chosen = []

        def fit(cloud, anchor, window):
            chosen.append(anchor.witness.word)
            return SimpleNamespace(slope=1.0, r_squared=1.0, n_points=0,
                                   n_floored=0, points=np.empty((0, 2)))

        monkeypatch.setattr(cli, "hoelder_regression", fit)
        plus = cloud.lines[0]
        dp = np.array([_sines(plus, x) for x in plus])  # (anchor, point)
        near = np.sort(dp[0])
        lo, hi = near[near > 1e-4][0], near[near > 0.1][0]
        for a in (np.nextafter(lo, 0), lo, np.nextafter(lo, 1)):
            for b in (np.nextafter(hi, 0), hi, np.nextafter(hi, 1)):
                chosen.clear()
                cli._run_hoelder(rep, {"m": 2, "dedup_tol": 1e-7,
                                       "window": [a, b],
                                       "n_anchors": len(cloud)}, 5, 0)
                scores = np.count_nonzero((a < dp) & (dp < b), axis=1)
                order = sorted(range(len(cloud)),
                               key=lambda i: (-scores[i], i))
                assert chosen == cloud.words[order].tolist()


def _dict_rows_spectra_csv(path: Path, ball, m) -> None:
    """spectra.csv as it was first written: one dict of numpy scalars per
    element through ``csv.DictWriter``."""
    rows = []
    for g, mu, lam in zip(ball, ball.cartan, ball.jordan):
        row = {"word": g.word or "<id>", "length": g.length}
        row.update((f"mu_{i}", v) for i, v in enumerate(mu, 1))
        row.update((f"lambda_{i}", v) for i, v in enumerate(lam, 1))
        if m is not None:
            top_gap = lam[0] - lam[m - 1]
            row["ratio_m"] = ((lam[0] - lam[m]) / top_gap
                              if top_gap > 1e-9 else math.nan)
        rows.append(row)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _csv_writer_rendering(path: Path, header, columns, values=None) -> None:
    """The table as ``csv.writer`` writes it: ``columns`` holds its rows
    without ``values``; with them, its leading columns, each row's cells
    followed by its floats as Python floats."""
    rows = columns if values is None else [
        [*cells, *v] for cells, v in zip(zip(*columns), values.tolist())]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# leading columns: texts the writer has to quote, or writes as "" when
# alone, or ints past int64, which numpy holds as objects
_TEXTS = st.text(alphabet=st.sampled_from(list('ab ,"\r\n;-.')), max_size=5)
_INTS = st.integers(-10 ** 20, 10 ** 20)
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                                  5e-324, -5e-324, 1e308, 0.1 + 0.2,
                                  2.0 / 3.0, 1.0, 12345678.901234567]))


def _columns(n: int):
    return st.one_of(st.lists(_TEXTS, min_size=n, max_size=n),
                     st.lists(_INTS, min_size=n, max_size=n).map(np.array))


class TestFloatBlock:
    """``_write_csv`` with a float block writes what ``csv.writer`` writes
    for the rows of its leading columns with their floats appended."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12), width=st.integers(1, 4),
           lead=st.integers(1, 3), block=st.integers(1, 5))
    def test_equals_csv_writer(self, tmp_path_factory, data, n, width, lead,
                               block):
        header = data.draw(st.lists(st.text(alphabet=st.sampled_from(
            list('hx ,"\r\n')), max_size=4), min_size=lead + width,
            max_size=lead + width))
        columns = [data.draw(_columns(n)) for _ in range(lead)]
        values = data.draw(arrays(np.float64, (n, width), elements=_FLOATS))
        tmp = tmp_path_factory.mktemp("block")
        saved = cli._CSV_BLOCK
        cli._CSV_BLOCK = block  # rows streamed across several blocks
        try:
            cli._write_csv(tmp / "block.csv", header, columns, values)
        finally:
            cli._CSV_BLOCK = saved
        _csv_writer_rendering(tmp / "writer.csv", header, columns, values)
        assert ((tmp / "block.csv").read_bytes()
                == (tmp / "writer.csv").read_bytes())

    def test_signed_zeros_and_nans_stay_apart(self, tmp_path):
        values = np.array([[0.0, -0.0, math.nan], [-0.0, 0.0, -math.nan]])
        cli._write_csv(tmp_path / "t.csv", ["w", "a", "b", "c"],
                       [["", "x,y"]], values)
        assert (tmp_path / "t.csv").read_bytes() == (
            b'w,a,b,c\r\n,0.0,-0.0,nan\r\n"x,y",-0.0,0.0,nan\r\n')

    def test_both_signs_of_each_magnitude(self, tmp_path, monkeypatch):
        # each magnitude is formatted once and written with both signs, in
        # rows spread over several blocks; the last column holds the edge
        # cases of the sign rule: zeros, infinities, the least subnormals
        # and NaNs, each with and without its sign bit
        monkeypatch.setattr(cli, "_CSV_BLOCK", 4)
        rng = np.random.default_rng(23)
        magnitudes = np.concatenate([rng.lognormal(0, 30, 40), [1e308, 0.1]])
        signed = np.concatenate([magnitudes, -magnitudes])
        special = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                   math.nan, -math.nan]
        values = np.empty((21, 5))
        values[:, :4] = rng.permutation(signed).reshape(21, 4)
        values[:, 4] = [special[k % len(special)] for k in range(21)]
        assert math.isnan(values[7, 4]) and np.signbit(values[7, 4])
        columns = [[f"w{k}" for k in range(21)], np.arange(21)]
        header = ["word", "length", "a", "b", "c", "d", "e"]
        cli._write_csv(tmp_path / "block.csv", header, columns, values)
        _csv_writer_rendering(tmp_path / "writer.csv", header, columns,
                              values)
        assert ((tmp_path / "block.csv").read_bytes()
                == (tmp_path / "writer.csv").read_bytes())

    def test_spectra_csv_is_the_csv_writer_rendering(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        out = tmp_path / "out"
        assert main(["run", str(config_path("fuchsian_tau3")), "--radius",
                     "5", "--out", str(out)]) == 0
        ball = enumerate_ball(
            build_representation(cfg["representation"]).generators, 5)
        _csv_writer_rendering(tmp_path / "writer.csv",
                              *spectral_table(ball, m=2))
        assert ((out / "spectra.csv").read_bytes()
                == (tmp_path / "writer.csv").read_bytes())

    @pytest.mark.parametrize("kind, fields", [
        ("certify", {"ks": [1, 2]}), ("alpha", {}), ("limitset", {}),
        ("hyperconvex", {}), ("hoelder", {"window": [1e-3, 0.5]}),
        ("gelfand", {})])
    def test_driver_tables_are_the_csv_writer_rendering(
            self, tmp_path, monkeypatch, kind, fields):
        # every table of a run against the cells its driver returned
        driver, defaults = cli._KINDS[kind]
        returned = []

        def recorded(*args):
            returned.append(driver(*args))
            return returned[-1]

        monkeypatch.setitem(cli._KINDS, kind, (recorded, defaults))
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg.update(radius=5, experiment={"kind": kind, **fields})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        tables = {name: table for name, table in returned[0][2].items()
                  if not isinstance(table, str)}
        assert any(len(table) == 3 for table in tables.values())
        for name, table in tables.items():
            _csv_writer_rendering(tmp_path / name, *table)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("name, radius, m", [("fuchsian_tau3", 5, 2),
                                                 ("su21_9dim", 3, 4),
                                                 ("tau_d_plus_tau_d2", 3,
                                                  None)])
    def test_spectra_csv_matches_dict_rows(self, tmp_path, name, radius, m):
        cfg = load_config(config_path(name))
        assert cfg["experiment"].get("m") == m
        out = tmp_path / "out"
        assert main(["run", str(config_path(name)), "--radius", str(radius),
                     "--out", str(out)]) != 1
        ball = enumerate_ball(
            build_representation(cfg["representation"]).generators, radius)
        _dict_rows_spectra_csv(tmp_path / "oracle.csv", ball, m)
        assert ((out / "spectra.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())

    def test_reruns_byte_identical(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "limitset", "m": 2}
        path = write_config(tmp_path, cfg)
        outs = []
        for i in (1, 2):
            out = tmp_path / f"run{i}"
            assert main(["run", str(path), "--radius", "4",
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("limit_cloud.csv", "limit_set.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        s1 = json.loads((outs[0] / "summary.json").read_text())
        s2 = json.loads((outs[1] / "summary.json").read_text())
        s1.pop("wall_clock_s"), s2.pop("wall_clock_s")
        assert s1 == s2

    def test_summary_records_required_fields(self, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path("schottky_sl2")), "--radius", "3",
              "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        for field in ("version", "config_hash", "tolerances", "wall_clock_s"):
            assert field in summary


# every shipped config through the CLI, then the boundary pipeline of the
# boundary benchmark workload, its coverage, every kind, and the Hilbert
# distance
RUN_PATH = """
import json, pathlib, sys
from importlib import resources
import numpy as np
import anosovlab
from anosovlab import boundary, cli, functors, geometry

out = pathlib.Path(sys.argv[1])
for config in sorted(resources.files("anosovlab").joinpath("configs")
                     .iterdir()):
    status = cli.main(["run", str(config), "--out", str(out / config.name)])
    assert status == (2 if config.name == "tau_d_plus_tau_d2.json" else 0)
configs = resources.files("anosovlab").joinpath("configs")
cfg = json.loads(configs.joinpath("fuchsian_tau3.json").read_text())
base = json.loads(configs.joinpath("schottky_sl2.json").read_text())
tau4 = {"kind": "tau", "d": 4, "base": base["representation"]}
cloud = boundary.limit_samples(functors.build_representation(tau4), 2, 5)
boundary.transversality_scan(cloud)
boundary.controlled_set_check(cloud)
boundary.hyperconvexity_scan(cloud, seed=0)
anchor = next(s for s in cloud.samples if s.witness.word == "a")
geometry.hoelder_regression(cloud, anchor)
cloud.coverage_stats()
for kind in cli.KINDS:
    path = out / f"{kind}.json"
    experiment = {"kind": kind, **({} if kind == "gelfand" else
                                   {"ks": [1, 2]} if kind == "certify" else
                                   {"m": 2})}
    path.write_text(json.dumps(dict(cfg, representation=tau4, radius=5,
                                    experiment=experiment)))
    assert cli.main(["run", str(path), "--out", str(out / kind)]) == 0
geometry.hilbert_distance_psd(np.eye(3), np.diag([3.0, 2.0, 1.0]))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_path_imports_no_scipy(tmp_path):
    # a fresh interpreter: of the package, only
    # linalg.top_invariant_subspace, a test oracle, imports it
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", RUN_PATH, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
