"""A 9-dimensional representation whose fourth gap never opens.

SU(2,1) embeds in SL(6,R) through the complex structure; the exterior
square of that embedding preserves a 9-dimensional subspace, giving an
irreducible representation.  Every loxodromic element with complex
eigenvalue moduli (w, 1, 1/w) acts with moduli

    w^2, w, w, 1, 1, 1, 1/w, 1/w, 1/w^2

so the first gap grows but the fourth is identically trivial: the
representation is proximal without being 4-proximal, and the regularity
ratio at index 4 is exactly 1.
"""

import json
from importlib import resources

import numpy as np

from anosovlab import (alpha_m_estimate, build_representation,
                       build_su21_rep, eigen_moduli, enumerate_ball,
                       gap_profile)


def main():
    g = np.diag([2.0, 1.0, 0.5])
    T = build_su21_rep(g)
    print("moduli of the image of diag(2, 1, 1/2):")
    print(" ", np.round(eigen_moduli(T), 10))

    cfg = json.loads(resources.files("anosovlab")
                     .joinpath("configs", "su21_9dim.json").read_text())
    rep = build_representation(cfg["representation"])
    print(f"\ntwo-generator subgroup, dim {rep.dim}, ball radius 3")
    ball = enumerate_ball(rep.generators, 3)

    for k in (1, 4):
        prof = gap_profile(ball, k)
        print(f"  k = {k}: per-length min gaps "
              f"{np.round(prof.min_gap, 4)}")

    est = alpha_m_estimate(ball, 4)
    print(f"\nindex-4 regularity ratio: {est.value:.12f} "
          f"(exactly 1: the fourth gap never opens)")
    est2 = alpha_m_estimate(ball, 2)
    print(f"index-2 regularity ratio: {est2.value:.12f} "
          f"(= 1 as well: lam_2 = lam_3 = w)")


if __name__ == "__main__":
    main()
