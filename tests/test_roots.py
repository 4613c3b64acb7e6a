import math

import numpy as np
import pytest

from condmoments import bwspace, randgeom, roots
from condmoments.randgeom import RngStream, complex_gaussian_vector, gaussian_system
from condmoments.roots import BinaryForm


def projective_match(points, expected, tol=1e-6):
    """Greedy matching of projective points up to phase and permutation.

    The chordal distance sqrt(1 - |<p, q>|^2) cannot resolve angles below
    ~1e-8 in double precision, so tolerances sit well above that floor.
    """
    remaining = list(expected)
    for p in points:
        dists = [math.sqrt(max(0.0, 1.0 - abs(np.vdot(p, q)) ** 2)) for q in remaining]
        best = int(np.argmin(dists))
        if dists[best] > tol:
            return False
        remaining.pop(best)
    return not remaining


def reconstruct_from_roots(points, degree, reference):
    """Binary form with the given projective roots, matched in scale to reference."""
    coeffs = np.array([1.0 + 0.0j])
    for s, t in points:
        # linear factor (t z_s - s z_t) vanishes at [s : t]
        coeffs = np.convolve(coeffs, np.array([t, -s]))
    pivot = int(np.argmax(np.abs(reference)))
    return coeffs * (reference[pivot] / coeffs[pivot])


class TestRestrictToLine:
    def test_linear_form(self):
        rng = RngStream(61, 0)
        c = complex_gaussian_vector(rng, 3)
        h = bwspace.make_system(2, (1,), [c])
        e0 = np.eye(3, dtype=complex)[0]
        e1 = np.eye(3, dtype=complex)[1]
        g = roots.restrict_to_line(h, e0, e1)
        assert g.coeffs[0] == pytest.approx(bwspace.evaluate(h, e0)[0])
        assert g.coeffs[1] == pytest.approx(bwspace.evaluate(h, e1)[0])

    def test_pure_power_restricts_to_pure_power(self):
        d = 4
        c = np.zeros(bwspace.dim_space(2, (d,)), dtype=complex)
        c[0] = 1.0  # x_0^d
        h = bwspace.make_system(2, (d,), [c])
        e0 = np.eye(3, dtype=complex)[0]
        e1 = np.eye(3, dtype=complex)[1]
        g = roots.restrict_to_line(h, e0, e1)
        expected = np.zeros(d + 1, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(g.coeffs, expected, atol=1e-12)

    def test_pointwise_residual_random(self):
        rng = RngStream(62, 0)
        h = gaussian_system(rng, 2, (3,))
        u, v = randgeom.orthonormal_pair(complex_gaussian_vector(rng, 3),
                                         complex_gaussian_vector(rng, 3))
        g = roots.restrict_to_line(h, u, v)
        for _ in range(10):
            st = complex_gaussian_vector(rng, 2)
            st = st / np.linalg.norm(st)
            direct = bwspace.evaluate(h, st[0] * u + st[1] * v)[0]
            value = roots.binary_form_value(g, st[0], st[1])
            assert abs(value - direct) <= 1e-9 * bwspace.bw_norm(h)

    def test_rejects_non_orthonormal(self):
        h = gaussian_system(RngStream(63, 0), 2, (2,))
        u = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            roots.restrict_to_line(h, u, 2.0 * u)

    def test_rejects_multi_equation(self):
        h = gaussian_system(RngStream(64, 0), 2, (1, 1))
        e = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="single-equation"):
            roots.restrict_to_line(h, e[0], e[1])


class TestBinaryFormRoots:
    def test_product_form(self):
        # g = s t has roots [1:0] and [0:1]
        g = BinaryForm(2, np.array([0.0, 1.0, 0.0], dtype=complex))
        pts = roots.binary_form_roots(g, RngStream(65, 0))
        expected = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert projective_match(pts, expected)

    def test_roots_of_unity(self):
        for d in (2, 3, 5):
            coeffs = np.zeros(d + 1, dtype=complex)
            coeffs[0], coeffs[d] = -1.0, 1.0  # t^d - s^d
            g = BinaryForm(d, coeffs)
            pts = roots.binary_form_roots(g, RngStream(66, d))
            expected = [
                np.array([1.0, np.exp(2j * np.pi * k / d)]) / math.sqrt(2.0)
                for k in range(d)
            ]
            assert projective_match(pts, expected)

    def test_vieta_on_random_quintic(self):
        rng = RngStream(67, 0)
        b = complex_gaussian_vector(rng, 6)
        g = BinaryForm(5, b)
        pts = roots.binary_form_roots(g, rng)
        w = pts[:, 1] / pts[:, 0]  # dehomogenized roots
        assert np.sum(w) == pytest.approx(-b[4] / b[5], rel=1e-8)
        assert np.prod(w) == pytest.approx(-b[0] / b[5], rel=1e-8)

    def test_residuals_at_returned_points(self):
        rng = RngStream(68, 0)
        for d in (1, 2, 4, 6):
            b = complex_gaussian_vector(rng, d + 1)
            g = BinaryForm(d, b)
            pts = roots.binary_form_roots(g, rng)
            assert len(pts) == d
            for s, t in pts:
                assert abs(roots.binary_form_value(g, s, t)) < 1e-9 * np.max(np.abs(b))

    def test_reconstruction_from_roots(self):
        rng = RngStream(69, 0)
        for d in (2, 3, 6):
            b = complex_gaussian_vector(rng, d + 1)
            g = BinaryForm(d, b)
            pts = roots.binary_form_roots(g, rng)
            rebuilt = reconstruct_from_roots(pts, d, b)
            assert np.linalg.norm(rebuilt - b) <= 1e-8 * np.linalg.norm(b)

    def test_multiple_root_at_origin(self):
        # s^2 t^2: double roots at both chart points
        g = BinaryForm(4, np.array([0.0, 0.0, 1.0, 0.0, 0.0], dtype=complex))
        pts = roots.binary_form_roots(g, RngStream(70, 0))
        expected = [np.array([1.0, 0.0])] * 2 + [np.array([0.0, 1.0])] * 2
        assert projective_match(pts, expected, tol=1e-5)

    def test_rejects_zero_form(self):
        g = BinaryForm(2, np.zeros(3, dtype=complex))
        with pytest.raises(ValueError, match="zero form"):
            roots.binary_form_roots(g, RngStream(71, 0))


class TestSampleVarietyPoints:
    def test_n1_returns_exactly_the_roots(self):
        rng = RngStream(72, 0)
        h = gaussian_system(rng, 1, (3,))
        pts = roots.sample_variety_points(h, rng, 5)
        assert pts.shape == (3, 2)
        # cross-check against direct restriction to the standard chart
        g = roots.restrict_to_line(
            h, np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[1]
        )
        expected = roots.binary_form_roots(g, RngStream(73, 0))
        assert projective_match(pts, list(expected))

    def test_hyperplane_membership(self):
        # h = x_1 (d = 1, n = 2): every sampled point has x_1 = 0
        c = np.zeros(3, dtype=complex)
        c[1] = 1.0
        h = bwspace.make_system(2, (1,), [c])
        rng = RngStream(74, 0)
        pts = roots.sample_variety_points(h, rng, 10)
        assert pts.shape == (10, 3)
        assert np.all(np.abs(pts[:, 1]) < 1e-9)

    def test_point_count_is_degree_times_lines(self):
        rng = RngStream(75, 0)
        for d in (1, 2, 3, 5):
            for n in (2, 3):
                h = gaussian_system(rng, n, (d,))
                pts = roots.sample_variety_points(h, rng, 4)
                assert pts.shape == (4 * d, n + 1)

    def test_membership_and_unit_norm(self):
        rng = RngStream(76, 0)
        for _ in range(100):
            d = int(rng.uniforms(()) * 5) + 1
            n = int(rng.uniforms(()) * 2) + 2
            h = gaussian_system(rng, n, (d,))
            pts = roots.sample_variety_points(h, rng, 2)
            values = bwspace.evaluate_at(h, pts)[:, 0]
            assert np.all(np.abs(values) < 1e-8 * bwspace.bw_norm(h))
            assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-10)

    def test_replay_deterministic(self):
        h = gaussian_system(RngStream(77, 0), 2, (2,))
        a = roots.sample_variety_points(h, RngStream(78, 5), 3)
        b = roots.sample_variety_points(h, RngStream(78, 5), 3)
        assert np.array_equal(a, b)

    def test_rejects_multi_equation_and_zero(self):
        h2 = gaussian_system(RngStream(79, 0), 2, (1, 1))
        with pytest.raises(ValueError, match="r = 1"):
            roots.sample_variety_points(h2, RngStream(80, 0), 1)
        z = bwspace.make_system(1, (2,), [np.zeros(3, dtype=complex)])
        with pytest.raises(ValueError, match="zero system"):
            roots.sample_variety_points(z, RngStream(81, 0), 1)


class TestRowSubstreams:
    # a row's nudges and retry charts come from the substream of its
    # (system, line), so the row solves the same way at any batch position
    RADIUS = 9.0 ** 0.5 * (1.0 + 1e-3)  # the Aberth start radius of the stall form
    ROWS = {
        # w^2 - 2 RADIUS w + 9: the start point at phase 0 is the critical
        # point, so the first Newton step divides by zero and is nudged
        "stall": (np.array([9.0, -2.0 * RADIUS, 1.0]), np.eye(2), np.array([0.0, 0.5])),
        # s t in the identity chart has its leading coefficient at zero, so
        # the first chart fails and the row is retried
        "retry": (np.array([0.0, 1.0, 0.0]), np.eye(2), np.array([0.1, 0.6])),
    }

    def solve_at(self, kind, position, size, lines=2, system=10):
        rng = RngStream(90, position)  # filler rows
        forms = randgeom.complex_gaussian_array(rng, (size, 3))
        ginibre = randgeom.complex_gaussian_array(rng, (size, 2, 2))
        phases = rng.uniforms((size, 2))
        forms[position], ginibre[position], phases[position] = self.ROWS[kind]
        first = system - position // lines  # keeps the row at (system, position % lines)
        streams = roots._row_streams(91, first, lines)
        used = []
        pts, failed = roots._solve(forms, ginibre, phases,
                                   lambda row: used.append(row) or streams(row))
        assert not failed.any()
        assert used and set(used) == {position}
        return pts[position]

    @pytest.mark.parametrize("kind", ["stall", "retry"])
    def test_same_roots_at_any_batch_position(self, kind):
        alone = self.solve_at(kind, 1, 2)
        for position, size in ((3, 4), (5, 12), (11, 12)):
            assert np.allclose(self.solve_at(kind, position, size), alone, rtol=0, atol=1e-14)
        form = BinaryForm(2, self.ROWS[kind][0])
        for s, t in alone:
            assert abs(roots.binary_form_value(form, s, t)) < 1e-9 * np.max(np.abs(form.coeffs))
