import csv
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from anosovlab.cli import ConfigError, list_examples, load_config, main


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
    "certify": {"ks", "slope_min", "r2_min"},
    "alpha": {"m", "tol"},
    "limitset": {"m", "dedup_tol", "anchor_index"},
    "hyperconvex": {"m", "dedup_tol", "n_triples", "sep_tol", "margin_min"},
    "hoelder": {"m", "dedup_tol", "window", "n_anchors"},
    "cones": {"n_min"},
    "gelfand": {"word", "i", "K"},
    "perturb-sweep": {"eps_list", "k", "slope_min", "r2_min"},
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

    def test_singular_generator_build_error(self, tmp_path, capsys):
        cfg = {"representation": {"kind": "matrices", "dim": 2,
                                  "generators": {"a": [[1.0, 1.0],
                                                       [1.0, 1.0]]}},
               "radius": 2, "seed": 0, "experiment": {"kind": "certify"}}
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert "non-invertible" in capsys.readouterr().err

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
        ("perturb-sweep", "k", "1", "k"),
        ("alpha", "m", "2", "m"),
        ("gelfand", "i", 0, "i"),
        ("gelfand", "K", 2.5, "K"),
        ("hoelder", "window", [1e-1, 1e-4], "window"),
        ("perturb-sweep", "eps_list", [0.0, 1e308], "eps_list[1]"),
        ("gelfand", "word", "az", "word"),
        ("hyperconvex", "n_triples", 0, "n_triples"),
        ("hoelder", "n_anchors", True, "n_anchors"),
        ("cones", "n_min", 0, "n_min"),
        ("limitset", "anchor_index", -1, "anchor_index"),
        ("alpha", "tol", -1e-9, "tol"),
        ("limitset", "dedup_tol", "1e-7", "dedup_tol"),
        ("hyperconvex", "sep_tol", float("nan"), "sep_tol"),
        ("certify", "slope_min", None, "slope_min"),
        ("certify", "r2_min", "0.9", "r2_min"),
        ("hyperconvex", "margin_min", [0.0], "margin_min"),
        # ranges that depend on the dimension (2) or the radius (2)
        ("certify", "ks", [1, 2], "ks[1]"),
        ("perturb-sweep", "k", 2, "k"),
        ("alpha", "m", 3, "m"),
        ("limitset", "m", 2, "m"),
        ("hyperconvex", "m", 1, "m"),
        ("gelfand", "i", 3, "i"),
        ("cones", "n_min", 2, "n_min"),
        # a field the kind does not read
        ("certify", "dedup_tol", 0.5, "dedup_tol"),
    ])
    def test_bad_field_exits_one_with_path(self, tmp_path, capsys, kind, key,
                                           value, path):
        cfg = {"representation": BASE_REP, "radius": 2, "seed": 0,
               "experiment": {"kind": kind, key: value}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        assert f"error: config.experiment.{path}: " in capsys.readouterr().err

    def test_cones_default_n_min_needs_radius_two(self, tmp_path, capsys):
        # without n_min, cones defaults it to max(1, radius - 3) = 1
        cfg = {"representation": BASE_REP, "radius": 1, "seed": 0,
               "experiment": {"kind": "cones"}}
        assert main(["run", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert "error: config.radius: expected an integer >= 2" in err

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
        valid = {"ks": [1], "k": 1, "m": 1, "i": 1, "K": 5,
                 "window": [1e-4, 1e-1], "eps_list": [0.0], "word": "a",
                 "n_triples": 5, "n_anchors": 1, "n_min": 1,
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

    def test_word_over_inverse_labels_accepted(self, tmp_path):
        cfg = {"representation": {"kind": "tau", "d": 3, "base": BASE_REP},
               "radius": 2, "seed": 0,
               "experiment": {"kind": "gelfand", "word": "aB"}}
        assert load_config(write_config(tmp_path, cfg))["experiment"]["word"]


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
        ({"kind": "certify", "slope_min": 0.01},
         {"slope_min": 0.01, "r2_min": 0.9}),
        ({"kind": "alpha", "tol": 1e-8}, {"tol": 1e-8}),
        ({"kind": "limitset"}, {"dedup_tol": 1e-7}),
        ({"kind": "hyperconvex", "n_triples": 20, "sep_tol": 1e-2},
         {"dedup_tol": 1e-7, "sep_tol": 1e-2, "margin_min": 0.0}),
        ({"kind": "hoelder", "window": [1e-3, 0.5], "n_anchors": 1,
          "dedup_tol": 1e-6}, {"dedup_tol": 1e-6}),
        ({"kind": "cones"}, {}),
        ({"kind": "gelfand", "K": 10}, {}),
        ({"kind": "perturb-sweep", "eps_list": [0.0], "r2_min": 0.5},
         {"slope_min": 0.05, "r2_min": 0.5}),
    ], ids=list(READS))
    def test_summary_reports_tolerances_read(self, tmp_path, experiment,
                                             tolerances):
        # the config's value where it sets one, the kind's default otherwise
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = experiment
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--radius", "4",
                     "--out", str(out)]) in (0, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tolerances"] == tolerances

    def test_perturb_sweep_honours_slope_min(self, tmp_path):
        # the unperturbed Schottky gap grows with slope about 1.4 < 50
        cfg = load_config(config_path("schottky_sl2"))
        cfg["experiment"] = {"kind": "perturb-sweep", "eps_list": [0.0],
                             "slope_min": 50}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--radius", "4",
                     "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["sweep"][0]["slope"] < 50

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

    def test_perturb_sweep_kind(self, tmp_path):
        cfg = load_config(config_path("schottky_sl2"))
        cfg["experiment"] = {"kind": "perturb-sweep",
                             "eps_list": [0.0, 1e-4], "k": 1}
        cfg["radius"] = 4
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        sweep = (out / "perturb_sweep.csv").read_text().splitlines()
        assert len(sweep) == 3

    def test_hoelder_kind(self, tmp_path):
        cfg = load_config(config_path("fuchsian_tau3"))
        cfg["experiment"] = {"kind": "hoelder", "m": 2,
                             "window": [1e-4, 1e-1], "n_anchors": 2}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--radius", "6",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for anchor in summary["results"]["anchors"]:
            assert abs(anchor["slope"] - 2.0) < 0.15

    def test_cones_kind(self, tmp_path):
        cfg = load_config(config_path("schottky_sl2"))
        cfg["experiment"] = {"kind": "cones", "n_min": 3}
        cfg["radius"] = 5
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["mean_distance"] < 0.2


class TestDeterminism:
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
