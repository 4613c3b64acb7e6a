import math
import types

import numpy as np
import pytest

from condmoments import bwspace, conditioning, randgeom, roots
from condmoments.conditioning import NumericError
from condmoments.randgeom import RngStream, complex_gaussian_vector, gaussian_system


def chordal(p, q):
    """sqrt(1 - |<p, q>|^2), which cannot resolve angles below ~1e-8 in
    double precision, so its tolerances sit well above that floor."""
    return math.sqrt(max(0.0, 1.0 - abs(np.vdot(p, q)) ** 2))


def up_to_phase(p, q):
    """|p - c q| for the unit c that turns q onto p, which resolves down to rounding."""
    ip = np.vdot(q, p)
    return np.linalg.norm(p - ip / abs(ip) * q) if ip else math.inf


def projective_match(points, expected, tol=1e-6, distance=chordal):
    """Greedy matching of unit vectors up to phase and permutation."""
    remaining = list(expected)
    for p in points:
        dists = [distance(p, q) for q in remaining]
        best = int(np.argmin(dists))
        if dists[best] > tol:
            return False
        remaining.pop(best)
    return not remaining


def binary_form(b):
    """The n = 1 system whose monomial coefficients of s^(d-k) t^k are b."""
    d = len(b) - 1
    return bwspace.make_system(1, (d,), [np.asarray(b) / bwspace.monomial_basis(1, d)[1]])


def monomial_coeffs(g):
    """The monomial coefficients of s^(d-k) t^k of an n = 1 system g."""
    return g.coords[0] * bwspace.monomial_basis(1, g.degrees[0])[1]


def form_value(coeffs, s, t):
    """g(s, t) = sum_k coeffs[k] s^(d-k) t^k."""
    d = len(coeffs) - 1
    return sum(c * s ** (d - k) * t ** k for k, c in enumerate(coeffs))


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
        assert monomial_coeffs(g)[0] == pytest.approx(bwspace.evaluate(h, e0)[0])
        assert monomial_coeffs(g)[1] == pytest.approx(bwspace.evaluate(h, e1)[0])

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
        assert np.allclose(monomial_coeffs(g), expected, atol=1e-12)

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
            value = form_value(monomial_coeffs(g), *st)
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

    def test_rejects_a_nan_frame(self):
        # the orthonormality check itself refuses a NaN frame, before any
        # coefficient is computed from it
        h = gaussian_system(RngStream(64, 1), 2, (2,))
        e = np.eye(3, dtype=complex)
        for u, v in (([np.nan] * 3, e[1]), (e[0], [0.0, np.nan, 0.0])):
            with pytest.raises(ValueError, match="orthonormal"):
                roots.restrict_to_line(h, u, v)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_restriction_is_the_n1_system_of_the_line(self, n, d):
        # the restriction is an n = 1 system in BW coordinates, so bwspace
        # evaluates it like any system: g(s, t) = h(s u + t v)
        rng = RngStream(60, 10 * n + d)
        h = gaussian_system(rng, n, (d,))
        u, v = randgeom.orthonormal_pair(complex_gaussian_vector(rng, n + 1),
                                         complex_gaussian_vector(rng, n + 1))
        g = roots.restrict_to_line(h, u, v)
        assert (g.n, g.degrees) == (1, (d,))
        for _ in range(20):
            s, t = complex_gaussian_vector(rng, 2)
            direct = bwspace.evaluate(h, s * u + t * v)[0]
            assert bwspace.evaluate(g, [s, t])[0] == pytest.approx(direct, rel=1e-12)


class TestBinaryFormRoots:
    def test_product_form(self):
        # g = s t has roots [1:0] and [0:1]
        g = binary_form(np.array([0.0, 1.0, 0.0], dtype=complex))
        pts = roots.binary_form_roots(g, RngStream(65, 0))
        expected = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert projective_match(pts, expected)

    def test_roots_of_unity(self):
        for d in (2, 3, 5):
            coeffs = np.zeros(d + 1, dtype=complex)
            coeffs[0], coeffs[d] = -1.0, 1.0  # t^d - s^d
            g = binary_form(coeffs)
            pts = roots.binary_form_roots(g, RngStream(66, d))
            expected = [
                np.array([1.0, np.exp(2j * np.pi * k / d)]) / math.sqrt(2.0)
                for k in range(d)
            ]
            assert projective_match(pts, expected)

    def test_vieta_on_random_quintic(self):
        rng = RngStream(67, 0)
        b = complex_gaussian_vector(rng, 6)
        g = binary_form(b)
        pts = roots.binary_form_roots(g, rng)
        w = pts[:, 1] / pts[:, 0]  # dehomogenized roots
        assert np.sum(w) == pytest.approx(-b[4] / b[5], rel=1e-8)
        assert np.prod(w) == pytest.approx(-b[0] / b[5], rel=1e-8)

    def test_residuals_at_returned_points(self):
        rng = RngStream(68, 0)
        for d in (1, 2, 4, 6):
            b = complex_gaussian_vector(rng, d + 1)
            g = binary_form(b)
            pts = roots.binary_form_roots(g, rng)
            assert len(pts) == d
            for s, t in pts:
                assert abs(form_value(monomial_coeffs(g), s, t)) < 1e-9 * np.max(np.abs(b))

    def test_reconstruction_from_roots(self):
        rng = RngStream(69, 0)
        for d in (2, 3, 6):
            b = complex_gaussian_vector(rng, d + 1)
            g = binary_form(b)
            pts = roots.binary_form_roots(g, rng)
            rebuilt = reconstruct_from_roots(pts, d, b)
            assert np.linalg.norm(rebuilt - b) <= 1e-8 * np.linalg.norm(b)

    def test_multiple_root_at_origin(self):
        # s^2 t^2: double roots at both chart points
        g = binary_form(np.array([0.0, 0.0, 1.0, 0.0, 0.0], dtype=complex))
        pts = roots.binary_form_roots(g, RngStream(70, 0))
        expected = [np.array([1.0, 0.0])] * 2 + [np.array([0.0, 1.0])] * 2
        assert projective_match(pts, expected, tol=1e-5)


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

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lines", [2.5, True, 2.0])
    def test_rejects_a_count_of_lines_that_is_not_an_integer(self, n, lines):
        h = gaussian_system(RngStream(80, n), n, (2,))
        with pytest.raises(ValueError, match="lines must be an integer"):
            roots.sample_variety_points(h, RngStream(80, 0), lines)

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
        with pytest.raises(ValueError, match="zero system"):
            roots.binary_form_roots(z, RngStream(71, 0))


class TestRestrictionFailure:
    # a wrong restriction gives wrong points, and the zero check of their
    # consumer, here conditioning.mu, rejects every one of them
    @pytest.fixture(autouse=True)
    def corrupt_restriction(self, monkeypatch):
        real = bwspace.substitute_forms
        corrupt = types.SimpleNamespace(**vars(bwspace))
        corrupt.substitute_forms = lambda n, d, coeffs, maps: real(n, d, coeffs, maps) + 1.0
        monkeypatch.setattr(roots, "bwspace", corrupt)

    @staticmethod
    def assert_no_point_is_a_zero(h, pts):
        for x in pts:
            with pytest.raises(ValueError, match="not a zero"):
                conditioning.mu(h, x)

    def test_restrict_to_line_raises(self):
        h = gaussian_system(RngStream(82, 0), 2, (2,))
        e = np.eye(3, dtype=complex)
        g = roots.restrict_to_line(h, e[0], e[1])
        w = np.roots(monomial_coeffs(g)[::-1])  # g(1, w) = sum_k coeffs[k] w^k
        self.assert_no_point_is_a_zero(h, [(e[0] + z * e[1]) / math.hypot(1.0, abs(z))
                                           for z in w])

    def test_sample_variety_points_raises(self):
        h = gaussian_system(RngStream(83, 0), 2, (2,))
        self.assert_no_point_is_a_zero(h, roots.sample_variety_points(h, RngStream(83, 1), 2))

    def test_binary_form_roots_raises(self):
        g = binary_form(complex_gaussian_vector(RngStream(84, 0), 4))
        self.assert_no_point_is_a_zero(g, roots.binary_form_roots(g, RngStream(84, 1)))


class TestRowFailure:
    # a row that _row_roots fails leaves its system without points, and the
    # single-system wrappers raise instead of returning NaN points
    @pytest.fixture(autouse=True)
    def fail_every_row(self, monkeypatch):
        def failing(coeffs_asc):
            shape = (coeffs_asc.shape[0], coeffs_asc.shape[1] - 1)
            return np.full(shape, np.nan, dtype=complex), np.ones(shape[0], dtype=bool)

        monkeypatch.setattr(roots, "_row_roots", failing)

    def test_sample_variety_points_raises(self):
        h = gaussian_system(RngStream(85, 0), 2, (2,))
        with pytest.raises(NumericError, match="on a line"):
            roots.sample_variety_points(h, RngStream(85, 1), 2)

    def test_binary_form_roots_raises(self):
        g = binary_form(complex_gaussian_vector(RngStream(86, 0), 4))
        with pytest.raises(NumericError, match="on a line"):
            roots.binary_form_roots(g, RngStream(86, 1))


@pytest.mark.parametrize("n, d, lines", [(1, 2, 1), (2, 2, 8), (3, 3, 1)])
def test_sample_zero_sets_reads_each_systems_own_stream(n, d, lines):
    # a chunk that starts away from system 0 still gives system j the
    # coordinates that gaussian_system draws from RngStream(seed, j)
    seed = 20260809
    coeffs, _, _ = roots.sample_zero_sets(seed, range(7, 19), n, d, lines)
    assert coeffs.shape[0] == 12
    for row, j in zip(coeffs, range(7, 19)):
        assert np.array_equal(row, gaussian_system(RngStream(seed, j), n, (d,)).coords[0])


@pytest.mark.parametrize("n, d, lines", [(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 2, 8),
                                         (2, 3, 4), (3, 4, 2)])
def test_each_system_draws_only_what_it_reads(n, d, lines, monkeypatch):
    # its coordinates and nothing else: at n >= 2 every system is cut by the
    # same lines, drawn once per (n, lines) from their own stream, and at
    # n = 1 the form is solved in (e_0, e_1)
    calls = []
    real = randgeom.uniforms_for_streams

    def record(seed, indices, count):
        calls.append((seed, count))
        return real(seed, indices, count)

    monkeypatch.setattr(roots.randgeom, "uniforms_for_streams", record)
    for cached in (roots._fixed_frames, roots._restriction):
        cached.cache_clear()
    roots.sample_zero_sets(94, range(5), n, d, lines)
    roots.sample_zero_sets(94, range(5, 9), n, d, lines)
    k = math.comb(n + d, n)
    frames = [(roots._FRAME_SEED, 4 * lines * (n + 1))] if n >= 2 else []
    assert calls == [(94, 2 * k), *frames, (94, 2 * k)]
    if (n, d, lines) == (2, 2, 8):
        assert calls[0] == (94, 12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_n1_points_are_the_roots_of_the_form_in_its_chart(d, monkeypatch):
    # at n = 1 the estimator solves each form in the fixed frame (e_0, e_1),
    # with no chart and no restriction; its points are, projectively, the
    # roots binary_form_roots finds for the same h in a Haar chart
    for owner, name in ((roots, "_sections"), (bwspace, "substitute_forms")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: pytest.fail(name))
    coeffs, points, failed = roots.sample_zero_sets(95, range(40), 1, d, 1)
    assert not failed.any() and points.shape == (40, d, 2)
    monkeypatch.undo()
    for j, (c, pts) in enumerate(zip(coeffs, points)):
        h = bwspace.make_system(1, (d,), [c])
        expected = roots.binary_form_roots(h, RngStream(95, 1000 + j))
        assert projective_match(pts, expected, tol=1e-12, distance=up_to_phase)


ROOT_TOL = 1e-12


def scaled_residuals(coeffs, w):
    """|p(w)| / (max|c| (1 + |w|^2)^(d/2)) at the roots w (R, d) of the rows coeffs (R, d+1)."""
    d = coeffs.shape[1] - 1
    p = sum(coeffs[:, k, None] * w ** k for k in range(d + 1))
    scale = np.max(np.abs(coeffs), axis=1)[:, None] * (1.0 + np.abs(w) ** 2) ** (d / 2)
    return np.abs(p) / scale


def assert_roots_match(w, expected, tol):
    """Each expected root, with multiplicity, has its own root in w within
    tol * max(1, |root|)."""
    remaining = list(w)
    for e in expected:
        dist = [abs(x - e) / max(1.0, abs(e)) for x in remaining]
        best = int(np.argmin(dist))
        assert dist[best] <= tol, (e, remaining)
        remaining.pop(best)


class TestClosedFormStarts:
    # rows of degree d <= 3 take their closed-form roots as they are; from
    # d = 4 the roots are the eigenvalues of the companion matrices
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_random_forms_match_numpy_roots(self, d):
        rng = RngStream(95, d)
        coeffs = randgeom.complex_gaussian_array(rng, (500, d + 1))
        w, failed = roots._row_roots(coeffs)
        assert not failed.any()
        if d <= 3:
            assert np.array_equal(w, roots._start_roots(coeffs))
        assert np.all(scaled_residuals(coeffs, w) <= ROOT_TOL)
        for row, z in zip(coeffs, w):
            expected = np.roots(row[::-1])
            for root in z:
                assert np.min(np.abs(expected - root)) <= 1e-13 * max(1.0, abs(root))

    @pytest.mark.parametrize("coeffs, expected", [
        ([0.0, 2.0 - 1.0j, 1.0 + 1.0j], [0.0, -(2.0 - 1.0j) / (1.0 + 1.0j)]),  # c0 = 0
        ([-4.0j, 0.0, 1.0], [2.0 ** 0.5 * (1.0 + 1.0j), -(2.0 ** 0.5) * (1.0 + 1.0j)]),  # c1 = 0
        ([0.0, 0.0, 3.0 - 2.0j], [0.0, 0.0]),  # double root at 0
        ([0.0, 1.5j], [0.0]),  # d = 1, root at 0
    ])
    def test_edge_cases(self, coeffs, expected):
        c = np.array([coeffs], dtype=complex)
        start = roots._start_roots(c)
        assert np.all(np.isfinite(start))
        np.testing.assert_allclose(np.sort_complex(start[0]), np.sort_complex(expected),
                                   rtol=0, atol=1e-15)
        w, failed = roots._row_roots(c)
        assert not failed[0]
        assert np.array_equal(w, start)
        assert np.all(scaled_residuals(c, w) <= ROOT_TOL)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 0.0])
    def test_near_double_root_still_converges(self, eps):
        a = 0.7 - 1.3j
        c = np.array([[a * (a + eps), -(2 * a + eps), 1.0]])
        w, failed = roots._row_roots(c)
        assert not failed[0]
        assert np.all(scaled_residuals(c, w) <= ROOT_TOL)
        np.testing.assert_allclose(np.sort_complex(w[0]), np.sort_complex([a, a + eps]),
                                   rtol=0, atol=1e-7)

    @pytest.mark.parametrize("coeffs, expected", [
        ([0.0, 2.0j, -1.0 - 2.0j, 1.0], [0.0, 1.0, 2.0j]),  # c0 = 0
        ([0.0, 0.0, 0.0, 3.0 - 2.0j], [0.0, 0.0, 0.0]),  # triple root at 0: C = 0
        ([-1.0, 0.0, 0.0, 1.0], np.exp(2j * np.pi * np.arange(3) / 3)),  # w^3 = 1: Q = 0
        # roots of very different sizes: one Newton step leaves 1e-10
        (np.poly([1e6, 1.0, 1e-6])[::-1], [1e6, 1.0, 1e-6]),
    ])
    def test_cubic_edge_cases(self, coeffs, expected):
        c = np.array([coeffs], dtype=complex)
        with np.errstate(all="raise"):
            w, failed = roots._row_roots(c)
        assert not failed[0]
        assert np.all(scaled_residuals(c, w) <= ROOT_TOL)
        assert_roots_match(w[0], expected, 1e-14)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 0.0])
    @pytest.mark.parametrize("cluster, tol", [("double", 1e-7), ("triple", 1e-4)])
    def test_cubic_near_multiple_roots(self, cluster, tol, eps):
        # a cluster of m roots, eps apart, resolves to about eps_mach^(1/m)
        a = 0.7 - 1.3j
        expected = [a, a + eps, -0.4 + 0.9j] if cluster == "double" else [a - eps, a, a + eps]
        c = np.poly(expected)[::-1][None].astype(complex)
        with np.errstate(all="raise"):
            w, failed = roots._row_roots(c)
        assert not failed[0]
        assert np.all(scaled_residuals(c, w) <= ROOT_TOL)
        assert_roots_match(w[0], expected, tol)

    @pytest.mark.parametrize("lead", [0.0, 1e-15])
    def test_vanishing_leading_coefficient_fails_the_row(self, lead):
        # no path (the quadratic, the cubic, the companion matrices) divides
        # by the vanishing coefficient, nor by the zero row's, and a failed
        # row has NaN roots
        for c in ([[1.0, 2.0 - 1.0j, lead], [1.0, 2.0, 1.0], [0.0] * 3],
                  [[1.0, 2.0 - 1.0j, 0.5, lead], [1.0, 2.0, 1.0, 1.0j], [0.0] * 4],
                  [[1.0, 2.0 - 1.0j, 0.5, 3.0, lead], [1.0, 2.0, 1.0, 1.0j, 2.0], [0.0] * 5]):
            with np.errstate(all="raise"):
                w, failed = roots._row_roots(np.array(c, dtype=complex))
            assert failed.tolist() == [True, False, True]
            assert np.all(np.isnan(w[[0, 2]])) and np.all(np.isfinite(w[1]))


def test_a_row_that_lapack_rejects_fails_alone(monkeypatch):
    # eigvals raises for the whole stack when one matrix does not converge;
    # the rows are then solved one at a time, and only that row fails
    coeffs = randgeom.complex_gaussian_array(RngStream(99, 0), (6, 5))
    expected, _ = roots._row_roots(coeffs)
    marked = -coeffs[2, -2::-1] / coeffs[2, -1]  # first row of row 2's companion matrix
    real = np.linalg.eigvals
    calls = []

    def eigvals(a):
        calls.append(a.shape)
        if a.ndim == 3 or np.array_equal(a[0], marked):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    w, failed = roots._row_roots(coeffs)
    assert calls == [(6, 4, 4)] + [(4, 4)] * 6
    assert failed.tolist() == [False, False, True, False, False, False]
    assert np.all(np.isnan(w[2]))
    assert np.array_equal(np.delete(w, 2, axis=0), np.delete(expected, 2, axis=0))


def test_n1_sections_are_the_unitaries_of_qr():
    # an n = 1 frame (u, v), stacked as columns, is the Haar unitary of QR on
    # the transposed draw (the pair as columns); both sides, and q* q - I,
    # round at the condition number kappa of the draw (up to ~100 here)
    x = RngStream(98, 0).uniforms((1000, roots._section_size(1, 1)))
    u, v = roots._sections(x, 1, 1)
    q = np.stack([u[:, 0], v[:, 0]], axis=-1)
    a, b = np.split(x, 2, axis=1)
    g = randgeom.complex_gaussians(a, b).reshape(1000, 2, 2)
    s = np.linalg.svd(g, compute_uv=False)
    bound = 8 * np.finfo(float).eps * s[:, 0] / s[:, 1]
    drift = np.max(np.abs(q.conj().transpose(0, 2, 1) @ q - np.eye(2)), axis=(1, 2))
    gap = np.max(np.abs(q - randgeom.unitary_from_ginibre(g.transpose(0, 2, 1))), axis=(1, 2))
    assert np.all(drift <= bound)
    assert np.all(gap <= bound)
    assert np.median(gap) < 1e-15


class TestRowSubstreams:
    # a row is solved from its own coordinates and frame alone, so it gives
    # the same points at any batch position, and its failure fails its own
    # system and no other.
    # NORMAL is a Gaussian n = 1 equation in a Haar frame.  RETRY is the
    # equation whose form on (e_0, e_1) is s t: in the identity frame its
    # leading coefficient is at zero, so _row_roots fails the row
    NORMAL = (randgeom.complex_gaussian_array(RngStream(91, 0), (3,)),
              randgeom.complex_gaussian_array(RngStream(91, 1), (2, 2)))
    RETRY = (np.array([0.0, 2.0 ** -0.5, 0.0]), np.eye(2))
    POSITIONS = ((1, 2), (3, 4), (5, 12), (11, 12))

    def solve_at(self, row, position, size):
        """_solve on size filler rows of degree 2, one line each, with row
        (coordinates, Gaussian pair) at position."""
        rng = RngStream(90, position)
        coeffs = randgeom.complex_gaussian_array(rng, (size, 3))
        ginibre = randgeom.complex_gaussian_array(rng, (size, 2, 2))
        coeffs[position], ginibre[position] = row
        # each row's n = 1 frame, (size, 1, 2) each, as _sections draws it
        u, v = randgeom.orthonormal_pair(ginibre[:, None, 0], ginibre[:, None, 1])
        return roots._solve(coeffs, 2, u, v)

    @pytest.mark.parametrize("failing_row", [RETRY], ids=["retry"])
    def test_same_roots_at_any_batch_position(self, failing_row):
        points = []
        for position, size in self.POSITIONS:
            pts, failed = self.solve_at(self.NORMAL, position, size)
            assert not failed.any()
            points.append(pts[position])
            pts, failed = self.solve_at(failing_row, position, size)
            assert failed.tolist() == [row == position for row in range(size)]
        for pts in points[1:]:
            assert np.array_equal(pts, points[0])
        form = self.NORMAL[0] * np.sqrt([1, 2, 1])  # the equation on (e_0, e_1)
        for s, t in points[0]:
            assert abs(form_value(form, s, t)) < 1e-9 * np.max(np.abs(form))


@pytest.mark.parametrize("n, d, lines", [(2, 3, 4), (3, 2, 3)])
def test_line_points_are_the_roots_of_each_lines_restriction(n, d, lines):
    # each line's d points lie in span(u, v) of the fixed frame and are,
    # projectively, the roots of h restricted to (u, v): a point in the span
    # that is not a root would pass membership alone
    seed, systems = 92, range(6)
    coeffs, points, failed = roots.sample_zero_sets(seed, systems, n, d, lines)
    assert not failed.any()
    u, v = roots._fixed_frames(n, lines)
    for j in systems:
        h = bwspace.make_system(n, (d,), [coeffs[j]])
        for line in range(lines):
            pts = points[j, line * d:(line + 1) * d]
            frame = np.stack([u[line], v[line]])
            st = pts @ frame.conj().T
            np.testing.assert_allclose(st @ frame, pts, rtol=0, atol=1e-12)
            g = roots.restrict_to_line(h, u[line], v[line])
            w = np.roots(monomial_coeffs(g)[::-1])  # g(1, w) = sum_k coeffs[k] w^k
            expected = [np.array([1.0, z]) / math.hypot(1.0, abs(z)) for z in w]
            assert projective_match(st, expected)


class TestFixedLines:
    """The estimator's lines at n >= 2 and the cached matrix that restricts
    a chunk to them."""

    @pytest.mark.parametrize("n, lines", [(2, 8), (2, 1), (3, 4)])
    def test_frames_are_orthonormal_fixed_and_seed_free(self, n, lines):
        u, v = roots._fixed_frames(n, lines)
        assert u.shape == v.shape == (lines, n + 1)
        for a, b in zip(u, v):
            frame = np.stack([a, b])
            assert np.linalg.norm(frame.conj() @ frame.T - np.eye(2)) < 1e-14
        for cached in (roots._fixed_frames, roots._restriction):
            cached.cache_clear()
        again = roots._fixed_frames(n, lines)
        assert all(np.array_equal(a, b) for a, b in zip((u, v), again))
        assert not u.flags.writeable and not v.flags.writeable
        # every seed's systems are cut by the same lines
        for seed in (1, 2**64 - 1):
            coeffs, pts, failed = roots.sample_zero_sets(seed, range(3), n, 2, lines)
            assert not failed.any()
            st = pts.reshape(3, lines, 2, n + 1) @ np.stack([u, v], -1).conj()
            np.testing.assert_allclose(st @ np.stack([u, v], -2), pts.reshape(3, lines, 2, n + 1),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 4)])
    def test_product_is_the_restriction_on_the_frames(self, n, d):
        lines = 4
        coeffs = randgeom.complex_gaussian_array(RngStream(96, 10 * n + d),
                                                 (50, math.comb(n + d, n)))
        u, v = roots._fixed_frames(n, lines)
        maps = np.broadcast_to(np.stack([u, v], -1), (50, lines, n + 1, 2))
        expected = bwspace.substitute_forms(n, d, coeffs, maps)
        product = coeffs @ roots._restriction(n, d, lines)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(product.reshape(expected.shape) - expected)) <= 1e-13 * scale
        assert not roots._restriction(n, d, lines).flags.writeable

    @pytest.mark.parametrize("n, d, lines", [(2, 2, 8), (2, 3, 4)])
    def test_a_chunk_builds_no_frame_and_no_dft(self, n, d, lines, monkeypatch):
        # once the lines and R are cached, a chunk only draws, multiplies and
        # solves: no Gram-Schmidt and no per-chunk substitution
        roots._fixed_frames(n, lines)
        roots._restriction(n, d, lines)
        for owner, name in ((roots, "_sections"), (randgeom, "orthonormal_pair"),
                            (bwspace, "substitute_forms")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: pytest.fail(name))
        for systems in (range(3), range(3, 400)):
            _, points, failed = roots.sample_zero_sets(98, systems, n, d, lines)
            assert points.shape == (len(systems), lines * d, n + 1) and not failed.any()

    @pytest.mark.parametrize("n, d, lines", [(2, 2, 8), (3, 4, 2)])
    def test_no_stream_object_is_built(self, n, d, lines, monkeypatch):
        # the frames come from uniforms_for_streams, as the coordinates do: an
        # RngStream would build numpy's Philox and load numpy.random, which
        # the estimator's caller otherwise never imports
        for cached in (roots._fixed_frames, roots._restriction):
            cached.cache_clear()
        monkeypatch.setattr(randgeom.RngStream, "__post_init__",
                            lambda self: pytest.fail("RngStream built"))
        _, _, failed = roots.sample_zero_sets(93, range(4), n, d, lines)
        assert not failed.any()


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_a_turned_frame_gives_each_line_the_same_points(n, d):
    # a line's points depend on the line alone, not on the orthonormal frame
    # it is solved in, so a Haar chart turning the drawn frame is not needed
    rng = RngStream(97, 10 * n + d)
    n_sys, lines = 8, 4
    coeffs = randgeom.complex_gaussian_array(rng, (n_sys, math.comb(n + d, n)))
    g = randgeom.complex_gaussian_array(rng, (n_sys, lines, 2, n + 1))
    u, v = randgeom.orthonormal_pair(g[:, :, 0], g[:, :, 1])
    q = randgeom.unitary_from_ginibre(
        randgeom.complex_gaussian_array(rng, (n_sys, lines, 2, 2)))
    turned_u = q[..., 0, 0, None] * u + q[..., 1, 0, None] * v
    turned_v = q[..., 0, 1, None] * u + q[..., 1, 1, None] * v
    pts, failed = roots._solve(coeffs, d, u, v)
    again, failed_again = roots._solve(coeffs, d, turned_u, turned_v)
    assert not failed.any() and not failed_again.any()
    for a, b in zip(pts.reshape(-1, d, n + 1), again.reshape(-1, d, n + 1)):
        assert projective_match(a, b, tol=1e-12, distance=up_to_phase)
