"""The limit curve of the 3-dimensional irreducible image is a conic.

Attracting lines of ball elements sample the limit set in RP^2.  For the
irreducible 3-dimensional image of a Fuchsian group the limit curve is
the image of the degree-2 embedding of RP^1, so every sampled point must
satisfy one common quadratic form.  The script checks this through the
moment matrix, verifies the boundary axioms on the sampled cloud, and
renders the cloud in an adapted affine chart via the command line tool.
"""

import json
from importlib import resources
from pathlib import Path

import numpy as np

from anosovlab import (build_representation, controlled_set_check,
                       limit_samples, tau_representation, transversality_scan)
from anosovlab.cli import main as anosov_lab


def main():
    cfg = json.loads(resources.files("anosovlab")
                     .joinpath("configs", "schottky_sl2.json").read_text())
    rep = tau_representation(build_representation(cfg["representation"]), 3)

    cloud = limit_samples(rep, 2, 6)
    pts = cloud.lines[0]
    print(f"sampled {len(cloud)} distinct limit points at radius 6")

    monomials = np.column_stack([
        pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2,
        pts[:, 0] * pts[:, 1], pts[:, 0] * pts[:, 2], pts[:, 1] * pts[:, 2]])
    svals = np.linalg.svd(monomials, compute_uv=False)
    print(f"moment-matrix singular values: top {svals[0]:.3f}, "
          f"smallest {svals[-1]:.2e}")
    print("  -> a single quadratic relation holds to near machine precision")

    trans = transversality_scan(cloud, sep_tol=1e-3)
    ctrl = controlled_set_check(cloud, sep_tol=1e-3)
    print(f"\nboundary axioms on all {trans.n_pairs:,} ordered pairs of "
          "points at least 1e-3 apart:")
    print(f"  transversality margin  {trans.min_margin_m:.2e} "
          f"(worst pair {trans.worst_pair_m})")
    print(f"  controlled-set margin  {ctrl.min_margin:.2e}, "
          f"{len(ctrl.violations)} violations")

    # under the checkout's git-ignored out/ directory
    out = Path(__file__).resolve().parents[1] / "out" / "veronese_demo"
    out.mkdir(parents=True, exist_ok=True)
    run_cfg = dict(cfg)
    run_cfg["name"] = "veronese_demo"
    run_cfg["representation"] = rep.recipe
    run_cfg["experiment"] = {"kind": "limitset", "m": 2}
    cfg_path = out / "veronese_demo.json"
    cfg_path.write_text(json.dumps(run_cfg))
    anosov_lab(["run", str(cfg_path), "--radius", "6", "--out", str(out)])
    print(f"\nchart scatter written to {out / 'limit_set.svg'}")


if __name__ == "__main__":
    main()
