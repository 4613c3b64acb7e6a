import math

import numpy as np
import pytest

from condmoments import bwspace
from condmoments.randgeom import RngStream, complex_gaussian_vector, gaussian_system


def brute_force_monomial_count(n, d):
    """Count degree-d monomials in n+1 variables by direct enumeration."""

    def count(total, parts):
        if parts == 1:
            return 1
        return sum(count(total - first, parts - 1) for first in range(total + 1))

    return count(d, n + 1)


class TestDimensionsAndCounting:
    def test_univariate(self):
        for d in (1, 2, 5, 9):
            assert bwspace.dim_space(1, (d,)) == d + 1

    def test_n2_cubic(self):
        assert bwspace.dim_space(2, (3,)) == 10

    def test_mixed_degrees(self):
        assert bwspace.dim_space(2, (1, 2)) == 3 + 6

    def test_against_brute_force(self):
        for n, d in [(1, 3), (2, 4), (3, 2)]:
            assert bwspace.dim_space(n, (d,)) == brute_force_monomial_count(n, d)

    def test_bezout(self):
        assert bwspace.bezout((1, 1, 1)) == 1
        assert bwspace.bezout((2, 3)) == 6
        assert bwspace.bezout((5,)) == 5

    def test_scale_cap(self):
        with pytest.raises(ValueError, match="limit"):
            bwspace.dim_space(10, (35,))

    def test_r_bounded_by_n(self):
        with pytest.raises(ValueError):
            bwspace.check_degrees(1, (2, 2))


class TestCanonicalOrder:
    def test_descending_lex(self):
        idx = bwspace.monomial_indices(2, 2)
        assert idx[0] == (2, 0, 0)
        assert idx[-1] == (0, 0, 2)
        assert list(idx) == sorted(idx, reverse=True)

    def test_weights_are_sqrt_multinomials(self):
        _, w = bwspace.monomial_basis(2, 3)
        idx = bwspace.monomial_indices(2, 3)
        for j, wi in zip(idx, w):
            assert wi == pytest.approx(math.sqrt(bwspace.multinomial(3, j)))


class TestEvaluate:
    def test_pure_monomial_at_e0(self):
        # h = x_0^d: unit coordinate in the first canonical slot
        d = 4
        coords = np.zeros(bwspace.dim_space(1, (d,)), dtype=complex)
        coords[0] = 1.0
        h = bwspace.make_system(1, (d,), [coords])
        e0 = np.array([1.0, 0.0])
        assert bwspace.evaluate(h, e0)[0] == pytest.approx(1.0)

    def test_linear_system_is_matrix_product(self):
        rng = RngStream(21, 0)
        m = np.array([complex_gaussian_vector(rng, 3) for _ in range(2)])
        h = bwspace.make_system(2, (1, 1), [m[0], m[1]])
        x = complex_gaussian_vector(rng, 3)
        assert bwspace.evaluate(h, x) == pytest.approx(m @ x)

    def test_kernel_poly_evaluates_to_inner_power(self):
        rng = RngStream(22, 0)
        d = 3
        x = complex_gaussian_vector(rng, 3)
        y = complex_gaussian_vector(rng, 3)
        k = bwspace.kernel_poly(x, d)
        expected = np.vdot(x, y) ** d  # <y, x>^d
        assert bwspace.evaluate(k, y)[0] == pytest.approx(expected, rel=1e-10)

    def test_homogeneity(self):
        rng = RngStream(23, 0)
        h = gaussian_system(rng, 2, (2, 3))
        x = complex_gaussian_vector(rng, 3)
        for lam in (0.5, 1.7, -0.9 + 0.8j):
            lhs = bwspace.evaluate(h, lam * x)
            rhs = np.array([lam**d for d in h.degrees]) * bwspace.evaluate(h, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_evaluate_at_matches_single(self):
        rng = RngStream(24, 0)
        h = gaussian_system(rng, 2, (3,))
        pts = np.array([complex_gaussian_vector(rng, 3) for _ in range(5)])
        batch = bwspace.evaluate_at(h, pts)
        for i in range(5):
            assert batch[i] == pytest.approx(bwspace.evaluate(h, pts[i]))


class TestJacobian:
    def test_coordinate_functions(self):
        # h_i = x_i for i = 1..r with degrees all 1 -> rows of (0 | I)
        n, r = 3, 2
        coords = []
        for i in range(1, r + 1):
            c = np.zeros(n + 1, dtype=complex)
            # canonical order for d=1 is e_0, e_1, ..., e_n
            c[i] = 1.0
            coords.append(c)
        h = bwspace.make_system(n, (1,) * r, coords)
        x = complex_gaussian_vector(RngStream(25, 0), n + 1)
        jac = bwspace.jacobian(h, x)
        assert np.linalg.norm(jac - np.eye(n + 1)[1 : r + 1]) < 1e-12

    def test_against_finite_differences(self):
        rng = RngStream(26, 0)
        h = gaussian_system(rng, 2, (2, 3))
        x = complex_gaussian_vector(rng, 3)
        jac = bwspace.jacobian(h, x)
        step = 1e-5
        for k in range(3):
            e = np.zeros(3, dtype=complex)
            e[k] = step
            fd = (bwspace.evaluate(h, x + e) - bwspace.evaluate(h, x - e)) / (2 * step)
            assert np.linalg.norm(jac[:, k] - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_euler_identity(self):
        rng = RngStream(27, 0)
        for _ in range(100):
            h = gaussian_system(rng, 2, (2, 3))
            x = complex_gaussian_vector(rng, 3)
            lhs = bwspace.jacobian(h, x) @ x
            rhs = np.array(h.degrees) * bwspace.evaluate(h, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_jacobian_at_matches_single(self):
        rng = RngStream(28, 0)
        h = gaussian_system(rng, 2, (3,))
        pts = np.array([complex_gaussian_vector(rng, 3) for _ in range(4)])
        batch = bwspace.jacobian_at(h, pts)
        for i in range(4):
            assert batch[i] == pytest.approx(bwspace.jacobian(h, pts[i]))


class TestInnerProduct:
    def test_pure_power_normalized(self):
        d = 5
        coords = np.zeros(d + 1, dtype=complex)
        coords[0] = 1.0  # x_0^d
        h = bwspace.make_system(1, (d,), [coords])
        assert bwspace.bw_inner(h, h) == pytest.approx(1.0)

    def test_distinct_monomials_orthogonal(self):
        c1 = np.zeros(6, dtype=complex)
        c2 = np.zeros(6, dtype=complex)
        c1[1], c2[3] = 1.0, 1.0
        h = bwspace.make_system(2, (2,), [c1])
        g = bwspace.make_system(2, (2,), [c2])
        assert bwspace.bw_inner(h, g) == 0.0

    def test_kernel_poly_norm(self):
        # ||<., x>^d|| = ||x||^d by the multinomial theorem
        rng = RngStream(29, 0)
        for d in (1, 2, 4):
            x = complex_gaussian_vector(rng, 4)
            k = bwspace.kernel_poly(x, d)
            assert bwspace.bw_norm(k) == pytest.approx(
                np.linalg.norm(x) ** d, rel=1e-10
            )

    def test_norm_against_monomial_basis_sum(self):
        rng = RngStream(30, 0)
        h = gaussian_system(rng, 2, (3,))
        expo, w = bwspace.monomial_basis(2, 3)
        monomial_coeffs = w * h.coords[0]
        direct = sum(
            abs(a) ** 2 / bwspace.multinomial(3, j)
            for a, j in zip(monomial_coeffs, bwspace.monomial_indices(2, 3))
        )
        assert bwspace.bw_inner(h, h).real == pytest.approx(direct, rel=1e-12)
        flat = sum(float(np.vdot(c, c).real) for c in h.coords)
        assert bwspace.bw_inner(h, h).real == flat  # same floating sum

    def test_conjugate_symmetry_and_shape_check(self):
        rng = RngStream(31, 0)
        h = gaussian_system(rng, 2, (2,))
        g = gaussian_system(rng, 2, (2,))
        assert bwspace.bw_inner(h, g) == pytest.approx(np.conj(bwspace.bw_inner(g, h)))
        other = gaussian_system(rng, 2, (3,))
        with pytest.raises(ValueError, match="share"):
            bwspace.bw_inner(h, other)


class TestKernelPoly:
    def test_e0_gives_pure_monomial(self):
        e0 = np.array([1.0, 0.0, 0.0])
        k = bwspace.kernel_poly(e0, 3)
        expected = np.zeros(10, dtype=complex)
        expected[0] = 1.0
        assert k.coords[0] == pytest.approx(expected)

    def test_reproducing_property(self):
        rng = RngStream(32, 0)
        d = 3
        for _ in range(50):
            h = gaussian_system(rng, 2, (d,))
            x = complex_gaussian_vector(rng, 3)
            k = bwspace.kernel_poly(x, d)
            lhs = bwspace.bw_inner(h, k)
            rhs = bwspace.evaluate(h, x)[0]
            bound = 1e-10 * bwspace.bw_norm(h) * np.linalg.norm(x) ** d
            assert abs(lhs - rhs) <= bound


class TestL0Matrix:
    def test_single_mixed_monomials(self):
        # h_i = sqrt(d_i) x_0^(d_i - 1) x_k has unit coordinate and maps to
        # the matrix unit at (i, k)
        n = 3
        degrees = (2, 3)
        ks = (1, 3)
        coords = []
        for d, k in zip(degrees, ks):
            idx = bwspace.monomial_indices(n, d)
            c = np.zeros(len(idx), dtype=complex)
            j = tuple(
                (d - 1 if p == 0 else 0) + (1 if p == k else 0) for p in range(n + 1)
            )
            c[idx.index(j)] = 1.0
            coords.append(c)
        h = bwspace.make_system(n, degrees, coords)
        l0 = bwspace.l0_matrix(h)
        expected = np.zeros((2, 3))
        expected[0, 0] = 1.0  # k=1 -> column 0 after dropping x_0
        expected[1, 2] = 1.0
        assert np.linalg.norm(l0 - expected) < 1e-12

    def test_pure_power_maps_to_zero(self):
        d = 3
        c = np.zeros(bwspace.dim_space(2, (d,)), dtype=complex)
        c[0] = 1.0  # x_0^d
        h = bwspace.make_system(2, (d,), [c])
        assert np.linalg.norm(bwspace.l0_matrix(h)) == 0.0

    def test_isometry_on_mixed_monomial_span(self):
        # systems supported on x_0^(d-1) x_k: ||h|| = ||L_0(h)||_F
        rng = RngStream(33, 0)
        n, d = 2, 3
        idx = bwspace.monomial_indices(n, d)
        c = np.zeros(len(idx), dtype=complex)
        for k in range(1, n + 1):
            j = tuple((d - 1 if p == 0 else 0) + (1 if p == k else 0) for p in range(n + 1))
            c[idx.index(j)] = complex_gaussian_vector(rng, 1)[0]
        h = bwspace.make_system(n, (d,), [c])
        assert np.linalg.norm(bwspace.l0_matrix(h)) == pytest.approx(
            bwspace.bw_norm(h), rel=1e-12
        )


class TestValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coordinates"):
            bwspace.make_system(1, (2,), [np.zeros(2, dtype=complex)])

    def test_rejects_nonfinite(self):
        c = np.array([np.inf, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            bwspace.make_system(1, (2,), [c])
