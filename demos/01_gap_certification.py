"""Singular-value gap certification on a free two-generator group.

A representation is k-proximal in the Anosov sense exactly when the k-th
singular-value gap log(mu_k / mu_(k+1)) grows linearly in word length.
This script certifies the k = 1 gap for a Schottky pair in SL(2,R),
then shows the diagnostic failing where it must: the block sum of the
4- and 6-dimensional irreducible images has lam_2 = lam_3 identically,
so its k = 2 gap stays flat while k = 1 keeps growing.
"""

import json
from importlib import resources

import numpy as np

from anosovlab import (build_representation, direct_sum_rep, enumerate_ball,
                       gap_profile, tau_representation)


def load_example_config(name):
    path = resources.files("anosovlab").joinpath("configs", f"{name}.json")
    return json.loads(path.read_text())


def show_profile(rep, k, radius):
    prof = gap_profile(enumerate_ball(rep.generators, radius), k)
    print(f"\n  k = {k}: per-length minima of log(mu_{k}/mu_{k+1})")
    for n, lo, hi in zip(prof.lengths, prof.min_gap, prof.max_gap):
        bar = "#" * int(4 * lo)
        print(f"    n={n}:  min {lo:7.3f}  max {hi:7.3f}  {bar}")
    print(f"    fit: slope {prof.slope:.3f}, R^2 {prof.r_squared:.5f}"
          f"  ->  {prof.verdict}")
    return prof


def main():
    rep = build_representation(load_example_config("schottky_sl2")["representation"])

    print("Schottky pair in SL(2,R), ball radius 6")
    show_profile(rep, 1, 6)

    print("\nBlock sum of the 4- and 6-dimensional images, radius 5")
    rep46 = direct_sum_rep(tau_representation(rep, 4),
                           tau_representation(rep, 6))
    show_profile(rep46, 1, 5)
    prof2 = show_profile(rep46, 2, 5)
    assert not prof2.linear, "the second gap of the 4+6 sum must collapse"

    print("\nEigenvalue view of the collapse (lam_2 = lam_3 exactly):")
    from anosovlab import cartan_jordan
    for word in ("ab", "aB", "abab"):
        lam = np.exp(cartan_jordan(rep46.generators.element(word)).lam)
        print(f"    {word!r}: lam_2/lam_3 - 1 = {lam[1] / lam[2] - 1:.2e}")


if __name__ == "__main__":
    main()
