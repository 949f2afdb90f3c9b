"""Acceptance suite: closed-form identities and property bounds, one
criterion per test, each printing a PASS/FAIL line with its measurement.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np
import pytest

from anosovlab.boundary import hyperconvexity_scan, limit_samples
from anosovlab.functors import (build_su21_rep, direct_sum_rep, flag_wedge,
                                tau_d, tau_representation, wedge_power)
from anosovlab.geometry import hilbert_distance_psd, hoelder_regression
from anosovlab.groups import enumerate_ball
from anosovlab.linalg import (eigen_moduli, normalize_lift, proj_distance,
                              singular_values, top_invariant_subspace)
from anosovlab.spectra import alpha_m_estimate, cartan_jordan, gap_profile
from tests.test_geometry import synthetic_graph_cloud


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def timed(budget):
    """Context recording wall time against the stated runtime budget."""
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, \
                f"runtime {self.elapsed:.1f}s exceeds budget {budget}s"
    return _Timer()


@pytest.fixture(scope="module")
def tau5_plus_tau2(schottky_rep):
    return direct_sum_rep(tau_representation(schottky_rep, 5),
                          tau_representation(schottky_rep, 2))


@pytest.fixture(scope="module")
def tau4_plus_tau6(schottky_rep):
    return direct_sum_rep(tau_representation(schottky_rep, 4),
                          tau_representation(schottky_rep, 6))


def random_hyperbolic_sl2(rng):
    # random translation length and random axis direction; stiff shear
    # conjugators would push the small end of high ladders below what
    # doubles can represent in the image matrix at all
    lam = rng.uniform(1.1, 5.0)
    th = rng.uniform(0.0, np.pi)
    c, s = np.cos(th), np.sin(th)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag([lam, 1 / lam]) @ R.T, lam


def test_criterion_01_tau_ladder():
    from anosovlab.functors import representation_from_matrices
    rng = np.random.default_rng(101)
    worst = 0.0
    with timed(5):
        for trial in range(100):
            g, lam = random_hyperbolic_sl2(rng)
            d = 2 + trial % 7
            rep = tau_representation(representation_from_matrices({"a": g}), d)
            got = np.exp(cartan_jordan(rep.generators.element("a")).lam)
            expected = np.array(sorted((lam ** (d - 1 - 2 * i)
                                        for i in range(d)), reverse=True))
            worst = max(worst, np.abs(got / expected - 1.0).max())
    report(1, "standard-representation eigenvalue ladder", worst < 1e-8,
           f"max relative error {worst:.2e} over 100 draws, d in 2..8")


def test_criterion_02_wedge_ratio_identities():
    rng = np.random.default_rng(102)
    worst = 0.0
    with timed(5):
        done = 0
        while done < 100:
            M = normalize_lift(rng.normal(size=(6, 6)))
            mu = singular_values(M)
            lam = eigen_moduli(M)
            if min(mu[:-1] / mu[1:]) < 1.02 or min(lam[:-1] / lam[1:]) < 1.02:
                continue
            m = 2 + done % 2
            W = wedge_power(M, m)
            wmu = singular_values(W)
            wlam = eigen_moduli(W)
            worst = max(worst,
                        abs(np.log(wmu[0] / wmu[1]) - np.log(mu[m - 1] / mu[m])),
                        abs(np.log(wlam[0] / wlam[1])
                            - np.log(lam[m - 1] / lam[m])))
            done += 1
    report(2, "exterior-power gap identities", worst < 1e-8,
           f"max |log deviation| {worst:.2e} over 100 draws, m in {{2,3}}")


def test_criterion_03_three_halves_ratio(tau5_plus_tau2):
    with timed(60):
        ball = enumerate_ball(tau5_plus_tau2.generators, 6)
        est = alpha_m_estimate(ball, 2)
        per_radius = {int(r): v for r, v in est.per_radius if not np.isnan(v)}
        devs = [abs(est.value - 1.5)]
        devs += [abs(per_radius[r] - 1.5) for r in range(2, 7)]
    report(3, "reducible 5+2 sum has ratio 3/2", max(devs) < 1e-9,
           f"max deviation {max(devs):.2e} across radii 2..6 "
           f"(witness {est.witness.word!r})")


def test_criterion_04_su21_ladder():
    with timed(1):
        T = build_su21_rep(np.diag([2.0, 1.0, 0.5]))
        got = eigen_moduli(T)
        expected = np.array([4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.25])
        worst = np.abs(got - expected).max()
    report(4, "SU(2,1) nine-dimensional ladder", worst < 1e-8,
           f"max |deviation| {worst:.2e}")


def test_criterion_05_gap_collapse(tau4_plus_tau6):
    with timed(60):
        ball = enumerate_ball(tau4_plus_tau6.generators, 5)
        worst = 0.0
        for g in ball:
            if not g.length:
                continue
            lam = np.exp(cartan_jordan(g).lam)
            worst = max(worst, abs(lam[1] / lam[2] - 1.0))
        prof = gap_profile(ball, 1)
        ok = worst < 1e-9 and prof.slope > 0.05 and prof.r_squared > 0.99
    report(5, "4+6 sum collapses the second gap but stays 1-proximal", ok,
           f"max |lam2/lam3 - 1| = {worst:.2e}; k=1 fit slope "
           f"{prof.slope:.3f}, R^2 {prof.r_squared:.5f}")


def test_criterion_06_veronese_conic(tau3_rep):
    with timed(120):
        cloud = limit_samples(tau3_rep, 2, 7)
        pts = cloud.lines[0]
        moments = np.column_stack([
            pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2,
            pts[:, 0] * pts[:, 1], pts[:, 0] * pts[:, 2],
            pts[:, 1] * pts[:, 2]])
        residual = np.linalg.svd(moments, compute_uv=False)[-1]

        window = (1e-4, 1e-1)
        counts = []
        for s in cloud.samples:
            v = s.xi1_plus.vector()
            dist = np.sqrt(1.0 - np.clip(np.abs(pts @ v), 0, 1) ** 2)
            counts.append(((dist > window[0]) & (dist < window[1])).sum())
        slopes = []
        for i in sorted(range(len(counts)), key=lambda i: (-counts[i], i))[:3]:
            reg = hoelder_regression(cloud, cloud.samples[i], window=window)
            slopes.append(reg.slope)

        est = alpha_m_estimate(enumerate_ball(tau3_rep.generators, 6), 2)
        alpha_dev = abs(est.value - 2.0)
        ok = (residual < 1e-7
              and all(1.9 <= s <= 2.1 for s in slopes)
              and alpha_dev < 1e-9)
    report(6, "limit points fill a common conic of regularity 2", ok,
           f"moment residual {residual:.2e}; slopes "
           f"{[round(s, 4) for s in slopes]}; alpha deviation {alpha_dev:.2e} "
           f"({len(cloud)} points)")


def test_criterion_07_hyperconvexity(tau3_rep):
    with timed(60):
        # cloud at net resolution 0.05: the scan needs well-separated
        # boundary points, and triple margins scale with the separations
        cloud = limit_samples(tau3_rep, 2, 6, dedup_tol=0.05)
        scan = hyperconvexity_scan(cloud, n_triples=500, seed=0, sep_tol=1e-3)
    report(7, "hyperconvexity margins stay positive", scan.min_margin > 1e-4,
           f"min margin {scan.min_margin:.2e} over 500 seeded triples "
           f"(worst triple {scan.worst_triple})")


def test_criterion_08_regression_calibration():
    with timed(5):
        devs = {}
        for beta in (1.2, 1.5, 1.9):
            cloud, anchor = synthetic_graph_cloud(beta, n_points=1000)
            reg = hoelder_regression(cloud, anchor, window=(1e-5, 1.5e-1))
            devs[beta] = abs(reg.slope - beta)
        worst = max(devs.values())
    report(8, "synthetic-graph exponent calibration", worst < 0.05,
           f"max |slope - beta| = {worst:.3f} over beta in {list(devs)}")


def test_criterion_09_gelfand_convergence():
    from anosovlab.spectra import gelfand_check
    rng = np.random.default_rng(109)
    worst = 0.0
    with timed(10):
        for _ in range(20):
            logs = np.sort(rng.uniform(-1.2, 1.2, size=4))[::-1]
            while np.diff(-logs).min() < 0.3:
                logs = np.sort(rng.uniform(-1.2, 1.2, size=4))[::-1]
            D = np.diag(np.exp(logs)) + 0.05 * np.triu(rng.normal(size=(4, 4)), 1)
            Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            M = normalize_lift(Q @ D @ Q.T)
            lam1 = eigen_moduli(M)[0]
            err_log = gelfand_check(M, 1, 500)[-1]
            worst = max(worst, lam1 * (np.exp(err_log) - 1.0))
    report(9, "Gelfand limit of renormalized powers", worst < 1e-3,
           f"max |sigma_1(g^k)^(1/k) - lam_1| = {worst:.2e} at k=500")


def test_criterion_10_hilbert_cross_ratio():
    rng = np.random.default_rng(110)

    def cross_ratio_oracle(X, Y):
        # boundary parameters of the pencil from the determinant
        # polynomial, then the cross ratio in the trace-affine chart
        d = X.shape[0]
        scale = np.trace(X) / np.trace(Y)
        ts = -np.linspace(0.05, 2.5, d + 1) * scale
        vals = [np.linalg.det(X + t * Y) for t in ts]
        coeffs = np.polynomial.polynomial.polyfit(ts, vals, d)
        roots = np.polynomial.polynomial.polyroots(coeffs)
        roots = np.real(roots[np.abs(roots.imag) < 1e-8 * scale])
        t_a = roots[np.argmin(np.abs(roots))]   # boundary behind X
        t_b = roots[np.argmax(np.abs(roots))]   # boundary beyond Y

        def chart(M):
            return (M / np.trace(M)).ravel()

        a, b, x, y = (chart(X + t_a * Y), chart(X + t_b * Y),
                      chart(X), chart(Y))
        return np.log(np.linalg.norm(a - y) * np.linalg.norm(b - x)
                      / (np.linalg.norm(a - x) * np.linalg.norm(b - y)))

    worst = 0.0
    with timed(5):
        closed = abs(hilbert_distance_psd(np.eye(2), np.diag([2.0, 1.0]))
                     - np.log(2.0))
        for trial in range(100):
            d = 2 + trial % 4
            A = rng.normal(size=(d, d))
            X = A @ A.T + 0.3 * np.eye(d)
            B = rng.normal(size=(d, d))
            Y = B @ B.T + 0.3 * np.eye(d)
            worst = max(worst, abs(hilbert_distance_psd(X, Y)
                                   - cross_ratio_oracle(X, Y)))
    ok = worst < 1e-9 and closed < 1e-12
    report(10, "Hilbert metric matches the cross-ratio oracle", ok,
           f"max |deviation| {worst:.2e} over 100 pairs in dims 2..5; "
           f"closed case deviation {closed:.2e}")


def test_criterion_11_flag_wedge_compatibility(tau4_rep):
    with timed(30):
        ball = enumerate_ball(tau4_rep.generators, 3)
        worst = 0.0
        checked = 0
        for g in ball:
            if checked >= 50 or not g.length:
                continue
            lam = eigen_moduli(g.matrix)
            if lam[0] / lam[1] < 1.001 or lam[1] / lam[2] < 1.001:
                continue
            line = flag_wedge(top_invariant_subspace(g.matrix, 2))
            attract = top_invariant_subspace(wedge_power(g.matrix, 2), 1)
            worst = max(worst, proj_distance(line, attract))
            checked += 1
    report(11, "flag wedge matches the exterior-square attracting line",
           worst < 1e-7 and checked == 50,
           f"max distance {worst:.2e} over {checked} elements")
