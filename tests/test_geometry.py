import math
import warnings

import numpy as np
import pytest

from anosovlab.boundary import LimitCloud, limit_samples
from anosovlab.functors import representation_from_matrices
from anosovlab.groups import enumerate_ball
from anosovlab.geometry import (ChartFrame, build_chart, chart_coords,
                                eigen_gap_inequality_check,
                                hilbert_distance_psd, hoelder_regression,
                                tangency_check)
from anosovlab.linalg import _sines, proj_distance
from tests.test_boundary import make_sample


@pytest.fixture(scope="module")
def tau3_cloud(tau3_rep):
    return limit_samples(tau3_rep, 2, 6)


def coordinate_samples():
    e = np.eye(3)
    gens = representation_from_matrices(
        {"a": np.diag([2.0, 1.0, 0.5])}).generators
    sx = make_sample(gens, "a", e[0], e[:, :2], e[:, 2:], e[:, 1:], e[2])
    sy = make_sample(gens, "A", e[2], np.column_stack([e[:, 2], e[:, 1]]),
                     e[:, 2:], e[:, 1:], e[2])
    return sx, sy


def synthetic_graph_cloud(beta, n_points=1000, seed=0):
    """Limit cloud on the graph w = |u|^beta through the chart point e1
    with tangent plane span{e1, e2}; bypasses all group machinery."""
    e = np.eye(3)
    gens = representation_from_matrices(
        {"a": np.diag([2.0, 1.0, 0.5])}).generators
    rng = np.random.default_rng(seed)
    us = np.exp(rng.uniform(np.log(1e-4), np.log(1e-1), n_points))
    us *= rng.choice([-1.0, 1.0], size=n_points)
    samples = [make_sample(gens, "a", e[0], e[:, :2], e[:, 2:], e[:, 1:], e[2])]
    for u in us:
        p = np.array([1.0, u, np.abs(u) ** beta])
        samples.append(make_sample(gens, "a", p / np.linalg.norm(p),
                                   e[:, :2], e[:, 2:], e[:, 1:], e[2]))
    return LimitCloud(samples=tuple(samples), m=2, rep_recipe={}), samples[0]


class TestBuildChart:
    def test_coordinate_flags_identity(self):
        sx, sy = coordinate_samples()
        frame = build_chart(sx, sy)
        assert np.allclose(frame.basis_change, np.eye(3), atol=1e-12)

    def test_permuted_flags(self):
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        # x-line along e2, tangent plane span{e2, e1}, y-flags unchanged
        sx = make_sample(gens, "a", e[1],
                         np.column_stack([e[:, 1], e[:, 0]]),
                         e[:, 2:], np.column_stack([e[:, 0], e[:, 2]]), e[2])
        sy = make_sample(gens, "A", e[2], e[:, 1:], e[:, 2:],
                         np.column_stack([e[:, 0], e[:, 2]]), e[2])
        frame = build_chart(sx, sy)
        P = np.abs(frame.basis_change)
        assert np.allclose(P @ P.T, np.eye(3), atol=1e-12)  # permutation
        assert np.allclose(np.abs(frame.basis_change[:, 0]), e[1], atol=1e-12)

    def test_transversality_failure_named(self):
        e = np.eye(3)
        gens = representation_from_matrices(
            {"a": np.diag([2.0, 1.0, 0.5])}).generators
        sx = make_sample(gens, "a", e[0], e[:, :2], e[:, 2:], e[:, 1:], e[2])
        # y-hyperplane contains the x-line: transversality fails
        sy = make_sample(gens, "A", e[2], np.column_stack([e[:, 2], e[:, 1]]),
                         e[:, :1], e[:, :2], e[2])
        with pytest.raises(ValueError, match="xi1\\(x\\) \\+ xi_d1\\(y\\)"):
            build_chart(sx, sy)

    def test_conic_anchor_chart(self, tau3_cloud):
        anchor = tau3_cloud.samples[0]
        far = max(tau3_cloud.samples,
                  key=lambda s: proj_distance(anchor.xi1_plus, s.xi1_minus))
        frame = build_chart(anchor, far)
        rows, u, w = chart_coords(frame, tau3_cloud.lines[0])
        assert rows[0] == 0
        assert np.abs(u[0]).max() < 1e-10 and np.abs(w[0]).max() < 1e-10
        # near the anchor the cloud is a graph w ~ c u^2: transverse
        # coordinates vanish to second order
        for t, s in enumerate(tau3_cloud.samples):
            if proj_distance(s.xi1_plus, anchor.xi1_plus) > 1e-2:
                continue
            a = int(np.searchsorted(rows, t))
            assert rows[a] == t
            if 1e-12 < np.abs(u[a]).max() < 1e-3:
                assert np.abs(w[a]).max() < 50 * np.abs(u[a]).max() ** 2

    def test_stacked_coords_equal_the_per_point_loop(self, tau3_cloud):
        # the chart of the limitset kind: the first sample and the first
        # whose minus point is farthest from it
        def reference(frame, p):
            v = p.vector()
            c = frame.inverse @ (v / np.linalg.norm(v))
            if abs(c[0]) < 1e-12 * np.linalg.norm(c):
                return None  # in the hyperplane at infinity
            c = c / c[0]
            return c[1:frame.m], c[frame.m:]

        plus, minus = tau3_cloud.lines
        far = int(np.argmax(_sines(minus, plus[0])))
        frame = build_chart(tau3_cloud.samples[0], tau3_cloud.samples[far])
        ref = [reference(frame, s.xi1_plus) for s in tau3_cloud.samples]
        rows, u, w = chart_coords(frame, plus)
        assert rows.tolist() == [t for t, c in enumerate(ref) if c is not None]
        # one of the 1,288 points lies in the hyperplane at infinity
        assert (len(tau3_cloud), len(rows)) == (1288, 1287)
        assert u.tobytes() == np.array([ref[t][0] for t in rows]).tobytes()
        assert w.tobytes() == np.array([ref[t][1] for t in rows]).tobytes()


class TestChartCoords:
    def test_anchor_maps_to_origin(self):
        sx, sy = coordinate_samples()
        frame = build_chart(sx, sy)
        rows, u, w = chart_coords(frame, sx.xi1_plus.frame.T)
        assert rows.tolist() == [0] and (u.shape, w.shape) == ((1, 1), (1, 1))
        assert np.abs(u).max() == 0 and np.abs(w).max() == 0

    def test_affine_division(self):
        frame = ChartFrame(basis_change=np.eye(3), inverse=np.eye(3), m=2)
        p = np.array([2.0, 1.0, 3.0])
        for scale in (1 / np.linalg.norm(p), 1.0, -7.0):
            _, u, w = chart_coords(frame, scale * p[None])
            assert u[0, 0] == pytest.approx(0.5)
            assert w[0, 0] == pytest.approx(1.5)

    def test_row_at_infinity_skipped_without_warning(self):
        frame = ChartFrame(basis_change=np.eye(3), inverse=np.eye(3), m=2)
        points = np.array([[0.0, 1.0, 0.0], [2.0, 1.0, 3.0],
                           [1e-13, 0.6, 0.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, u, w = chart_coords(frame, points)
        assert rows.tolist() == [1]
        assert u.tolist() == [[0.5]] and w.tolist() == [[1.5]]


class TestHoelderRegression:
    def test_synthetic_graph_recovery(self):
        for beta in (1.2, 1.5, 1.9):
            cloud, anchor = synthetic_graph_cloud(beta)
            report = hoelder_regression(cloud, anchor, window=(1e-5, 1.5e-1))
            assert abs(report.slope - beta) < 0.05

    def test_conic_slope_two(self, tau3_cloud):
        scores = []
        pts = tau3_cloud.lines[0]
        for s in tau3_cloud.samples:
            v = s.xi1_plus.vector()
            dots = np.clip(np.abs(pts @ v), 0, 1)
            dist = np.sqrt(1 - dots ** 2)
            scores.append(((dist > 1e-4) & (dist < 1e-1)).sum())
        anchor = tau3_cloud.samples[int(np.argmax(scores))]
        report = hoelder_regression(tau3_cloud, anchor, window=(1e-4, 1e-1))
        assert abs(report.slope - 2.0) < 0.1

    def test_anchor_scores_from_point_distances(self, tau3_cloud):
        # the hoelder kind scores each anchor by the points inside the
        # window, from the sines of the cloud's lines to the anchor's line:
        # the proj_distance of each sample to the anchor sample
        plus = tau3_cloud.lines[0]
        for a in (0, 1, 2, 3, 100, 1000):
            anchor = tau3_cloud.samples[a]
            ref = np.array([proj_distance(s.xi1_plus, anchor.xi1_plus)
                            for s in tau3_cloud.samples])
            assert np.abs(_sines(plus, plus[a]) - ref).max() <= 1e-15

    def test_floored_points_reported(self):
        cloud, anchor = synthetic_graph_cloud(1.5, n_points=200)
        e = np.eye(3)
        gens = anchor.witness.gens
        flat = []
        for u in np.linspace(1e-3, 5e-2, 30):
            p = np.array([1.0, u, 0.0])  # exactly on the tangent plane
            flat.append(make_sample(gens, "a", p / np.linalg.norm(p),
                                    e[:, :2], e[:, 2:], e[:, 1:], e[2]))
        bigger = LimitCloud(samples=cloud.samples + tuple(flat), m=2,
                            rep_recipe={})
        report = hoelder_regression(bigger, anchor, window=(1e-5, 1.5e-1))
        assert report.n_floored == 30

    def test_too_few_points(self):
        cloud, anchor = synthetic_graph_cloud(1.5, n_points=10)
        with pytest.raises(ValueError, match="too few"):
            hoelder_regression(cloud, anchor, window=(1e-5, 1.5e-1))



def reference_tangency(cloud, anchor):
    """The per-sample tangency check with ``proj_distance``: (n, 2) rows
    of distances and angles, nearest first."""
    x1 = anchor.xi1_plus.vector()
    xm = anchor.xim_plus.frame
    rows = []
    for s in cloud.samples:
        p = s.xi1_plus.vector()
        dp = proj_distance(anchor.xi1_plus, s.xi1_plus)
        if dp < 1e-13 or dp > 0.5:
            continue
        sec = p - x1 * (x1 @ p)
        sec = sec / np.linalg.norm(sec)
        resid = sec - xm @ (xm.T @ sec)
        rows.append((dp, math.asin(min(1.0, float(np.linalg.norm(resid))))))
    return np.array(sorted(rows)[:20])


class TestTangency:
    def test_equals_per_sample_loop(self, tau3_cloud):
        synthetic, anchor = synthetic_graph_cloud(1.5, n_points=300)
        cases = [(synthetic, anchor)] + [
            (tau3_cloud, tau3_cloud.samples[t])
            for t in range(0, len(tau3_cloud), 61)]
        for cloud, anchor in cases:
            report = tangency_check(cloud, anchor)
            ref = reference_tangency(cloud, anchor)
            assert report.distances.shape == (len(ref),)
            assert np.abs(report.distances - ref[:, 0]).max() <= 1e-15
            # a secant at distance dp is a difference of unit vectors: its
            # direction, and so its angle, is rounded to about eps / dp
            assert np.all(np.abs(report.angles - ref[:, 1])
                          <= 1e-15 / ref[:, 0])

    def test_points_on_tangent_plane(self):
        cloud, anchor = synthetic_graph_cloud(1.9, n_points=100)
        e = np.eye(3)
        gens = anchor.witness.gens
        on_plane = [make_sample(gens, "a",
                                np.array([1.0, u, 0.0]) / np.hypot(1, u),
                                e[:, :2], e[:, 2:], e[:, 1:], e[2])
                    for u in np.linspace(1e-3, 1e-1, 20)]
        flat_cloud = LimitCloud(samples=tuple(on_plane) + (anchor,), m=2,
                                rep_recipe={})
        report = tangency_check(flat_cloud, anchor)
        assert report.angles.max() < 1e-10

    def test_conic_secants_flatten(self, tau3_cloud):
        anchor = tau3_cloud.samples[0]
        report = tangency_check(tau3_cloud, anchor)
        assert report.max_angle_nearest(5) < 0.05
        # angles shrink with distance: nearest quartile flatter than farthest
        q = len(report.angles) // 4
        assert report.angles[:q].mean() < report.angles[-q:].mean()

    def test_wrong_tangent_detected(self, tau3_cloud):
        base = tau3_cloud.samples[0]
        rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        wrong = make_sample(base.witness.gens, base.witness.word,
                            base.xi1_plus.vector(),
                            rot @ base.xim_plus.frame,
                            base.xi_dm_minus.frame, base.xi_d1_minus.frame,
                            base.xi1_minus.vector())
        report = tangency_check(tau3_cloud, wrong)
        assert report.angles.min() > 0.05

    def test_needs_nearby_points(self):
        cloud, anchor = synthetic_graph_cloud(1.5, n_points=2)
        with pytest.raises(ValueError, match="at least 5"):
            tangency_check(cloud, anchor)


class TestHilbertMetric:
    def test_identity_distance_zero(self):
        assert hilbert_distance_psd(np.eye(3), np.eye(3)) == pytest.approx(0.0)

    def test_closed_form_log_two(self):
        assert hilbert_distance_psd(np.eye(2), np.diag([2.0, 1.0])) == \
            pytest.approx(np.log(2.0), abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(40)
        for _ in range(500):
            mats = []
            for _ in range(3):
                A = rng.normal(size=(3, 3))
                mats.append(A @ A.T + 0.1 * np.eye(3))
            X, Y, Z = mats
            dxy = hilbert_distance_psd(X, Y)
            assert dxy == pytest.approx(hilbert_distance_psd(Y, X), abs=1e-9)
            assert dxy <= (hilbert_distance_psd(X, Z)
                           + hilbert_distance_psd(Z, Y) + 1e-9)

    def test_projective_invariance(self):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(4, 4))
        X = A @ A.T + 0.2 * np.eye(4)
        B = rng.normal(size=(4, 4))
        Y = B @ B.T + 0.2 * np.eye(4)
        assert hilbert_distance_psd(3.7 * X, Y) == pytest.approx(
            hilbert_distance_psd(X, Y), abs=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(3, 3))
        X = A @ A.T + 0.2 * np.eye(3)
        B = rng.normal(size=(3, 3))
        Y = B @ B.T + 0.2 * np.eye(3)
        C = rng.normal(size=(3, 3))
        while abs(np.linalg.det(C)) < 0.3:
            C = rng.normal(size=(3, 3))
        d1 = hilbert_distance_psd(X, Y)
        d2 = hilbert_distance_psd(C.T @ X @ C, C.T @ Y @ C)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            hilbert_distance_psd(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            hilbert_distance_psd(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


class TestGapInequality:
    def test_tau3_equality_at_alpha_two(self, tau3_rep):
        report = eigen_gap_inequality_check(
            enumerate_ball(tau3_rep.generators, 4), 2, 2.0)
        assert report.passed
        assert abs(report.worst_margin) < 1e-9  # exact equality on the ladder

    def test_alpha_near_one_trivial(self, tau3_rep):
        report = eigen_gap_inequality_check(
            enumerate_ball(tau3_rep.generators, 3), 2, 1.01)
        assert report.passed
        assert report.worst_margin > 0

    def test_reducible_sum_fails_at_1p6(self, tau5_plus_tau2_rep):
        report = eigen_gap_inequality_check(
            enumerate_ball(tau5_plus_tau2_rep.generators, 3), 2, 1.6)
        assert not report.passed
        assert report.worst_margin < -1e-3
        assert report.worst_witness

    def test_alpha_validation(self, tau3_rep):
        with pytest.raises(ValueError, match="alpha"):
            eigen_gap_inequality_check(
                enumerate_ball(tau3_rep.generators, 3), 2, 1.0)
