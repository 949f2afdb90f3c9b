"""Closed-form regularity ratios across representation constructions.

For any hyperbolic element of the base group, the d-dimensional
irreducible image has eigenvalue moduli lam^(d-1), lam^(d-3), ...; the
ratio log(lam_1/lam_3) / log(lam_1/lam_2) is therefore constant on each
of these families:

    3-dimensional image          -> 2          (conic limit curve)
    4-dimensional image          -> 2
    sum of 5- and 2-dimensional  -> 3/2        (reducible: limit curve is
                                                smooth yet the infimum
                                                drops below 2)

The infimum over a word ball reproduces the constants to ~1e-11, and the
per-radius column shows the estimate is flat from radius 1 on.
"""

import json
from importlib import resources

import numpy as np

from anosovlab import (alpha_m_estimate, build_representation,
                       direct_sum_rep, eigen_gap_inequality_check,
                       enumerate_ball, irreducibility_proxy,
                       tau_representation)


def main():
    cfg = json.loads(resources.files("anosovlab")
                     .joinpath("configs", "schottky_sl2.json").read_text())
    base = build_representation(cfg["representation"])

    reps = {
        "tau_3": tau_representation(base, 3),
        "tau_4": tau_representation(base, 4),
        "tau_5 + tau_2": direct_sum_rep(tau_representation(base, 5),
                                        tau_representation(base, 2)),
    }
    for name, rep in reps.items():
        est = alpha_m_estimate(enumerate_ball(rep.generators, 5), 2)
        irr = irreducibility_proxy(enumerate_ball(rep.generators, 3))
        flag = "irreducible" if irr.irreducible else \
            f"reducible (invariant dim {irr.min_invariant_dim})"
        print(f"{name:14s} alpha_2 = {est.value:.12f}   [{flag}]")
        radii = [f"r{int(r)}={v:.6f}" for r, v in est.per_radius
                 if not np.isnan(v)]
        print(f"{'':14s} per radius: {', '.join(radii)}")

    print("\neigenvalue-gap inequality audit, m = 2:")
    print("  a claimed exponent alpha forces "
          "lam_3/lam_2 <= (lam_2/lam_1)^(alpha-1) for every element")
    for name, rep, alpha in [("tau_3", reps["tau_3"], 2.0),
                             ("tau_5 + tau_2", reps["tau_5 + tau_2"], 2.0),
                             ("tau_5 + tau_2", reps["tau_5 + tau_2"], 1.5)]:
        check = eigen_gap_inequality_check(
            enumerate_ball(rep.generators, 4), 2, alpha)
        verdict = "holds" if check.passed else \
            f"fails (witness {check.worst_witness!r})"
        print(f"  {name:14s} alpha = {alpha}: {verdict}, "
              f"worst margin {check.worst_margin:+.2e}")


if __name__ == "__main__":
    main()
