import math
import re

import numpy as np
import pytest

from condmoments import bwspace, formulas, randgeom, roots
from condmoments.montecarlo import EstimatorConfig
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

    @pytest.mark.parametrize("n, degrees, message", [
        (2, [2.9], "degrees must be an integer"),
        (2, [2.0], "degrees must be an integer"),
        (2, [2, 2.5], "degrees must be an integer"),
        (2, [True], "degrees must be an integer"),
        (2, [1, True], "degrees must be an integer"),
        (2, np.array([2.0]), "degrees must be an integer"),
        (2.0, [2], "n must be an integer"),
        (True, [1], "n must be an integer"),
    ])
    def test_non_integer_dimension_or_degree_rejected(self, n, degrees, message):
        with pytest.raises(ValueError, match=message):
            bwspace.check_degrees(n, degrees)

    def test_fractional_degree_not_truncated(self):
        # each of these used to run as degree 2
        with pytest.raises(ValueError, match="degrees must be an integer"):
            bwspace.dim_space(2, [2.9])
        with pytest.raises(ValueError, match="degrees must be an integer"):
            bwspace.bezout([2.5])
        with pytest.raises(ValueError, match="degrees must be an integer"):
            gaussian_system(RngStream(1), 2, [2.5])

    @pytest.mark.parametrize("name, site", [
        ("n", lambda v: formulas.espnorm_value(v, 2.0)),
        ("r", lambda v: formulas.invnor2mdet_value(v, 1.0)),
        ("r", lambda v: formulas.pinv_moment_value(v, 3)),
        ("m", lambda v: formulas.pinv_moment_value(1, v)),
        ("n", lambda v: complex_gaussian_vector(RngStream(1), v)),
        ("dim", lambda v: randgeom.haar_unitary(RngStream(1), v)),
        ("lines", lambda v: roots.sample_variety_points(
            gaussian_system(RngStream(1), 2, (2,)), RngStream(2), v)),
        ("samples", lambda v: EstimatorConfig(samples=v, seed=1)),
        ("lines_per_system", lambda v: EstimatorConfig(samples=1, seed=1, lines_per_system=v)),
        ("n", lambda v: bwspace.check_degrees(v, (1,))),
        ("degrees", lambda v: bwspace.check_degrees(2, (v,))),
        ("degrees", lambda v: bwspace.bezout((2, v))),
    ], ids=["espnorm_value", "invnor2mdet_value", "pinv_moment_value-r", "pinv_moment_value-m",
            "complex_gaussian_vector", "haar_unitary", "sample_variety_points",
            "EstimatorConfig-samples", "EstimatorConfig-lines", "check_degrees-n",
            "check_degrees-degrees", "bezout"])
    @pytest.mark.parametrize("value, rule", [(0, "must be >= 1"), (2.5, "must be an integer"),
                                             (True, "must be an integer")])
    def test_every_count_site_takes_the_one_rule(self, name, site, value, rule):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} {rule}, got "):
            site(value)

    def test_numpy_integer_degrees_accepted(self):
        assert bwspace.check_degrees(np.int64(2), np.array([2, 3])) == (2, 3)
        assert type(bwspace.check_degrees(2, np.array([2]))[0]) is int


class TestCanonicalOrder:
    def test_descending_lex(self):
        idx = bwspace.monomial_indices(2, 2)
        assert idx[0] == (2, 0, 0)
        assert idx[-1] == (0, 0, 2)
        assert list(idx) == sorted(idx, reverse=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6])
    def test_every_index_once_in_strictly_descending_order(self, n, d):
        idx = bwspace.monomial_indices(n, d)
        assert len(idx) == math.comb(n + d, n)
        assert all(len(j) == n + 1 and min(j) >= 0 and sum(j) == d for j in idx)
        assert all(a > b for a, b in zip(idx, idx[1:]))

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


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_power_table_matches_numpy_power(d):
    x = np.stack([complex_gaussian_vector(RngStream(45, k), 3) for k in range(40)])
    x[0, 1] = 0.0
    table = bwspace._power_table(x, d)
    # variable-major: table[k, t] = x[:, k] ** t, one contiguous array per (k, t)
    expected = x.T[:, None, :] ** np.arange(d + 1)[None, :, None]
    assert table.shape == (3, d + 1, 40)
    assert table.flags.c_contiguous
    assert np.all(table[:, 0] == 1.0)  # 0 ** 0 = 1
    assert table[1, 0, 0] == 1.0 and np.all(table[1, 1:, 0] == 0.0)
    np.testing.assert_allclose(table, expected, rtol=4 * np.finfo(float).eps, atol=0)


def reference_forms(n, d, coeffs, points):
    """Plain-Python sum_j a_j prod_k x_k^(j_k) and its partials, a_j the
    coordinates c_j scaled by sqrt(d! / prod_k j_k!), with 0 ** 0 = 1.

    Returns the values (S, m), the partials (S, m, n+1), and the sums of the
    moduli of the terms of each, which scale their rounding errors.
    """
    monomials = bwspace.monomial_indices(n, d)
    values = np.zeros(points.shape[:2], dtype=complex)
    partials = np.zeros(points.shape, dtype=complex)
    value_scale = np.zeros(values.shape)
    partial_scale = np.zeros(partials.shape)
    for s, (row, pts) in enumerate(zip(coeffs.tolist(), points.tolist())):
        for p, x in enumerate(pts):
            for j, c in zip(monomials, row):
                a = c * math.sqrt(math.factorial(d) / math.prod(math.factorial(e) for e in j))
                term = a * math.prod(xk**e for xk, e in zip(x, j))
                values[s, p] += term
                value_scale[s, p] += abs(term)
                for k, e in enumerate(j):
                    if e:
                        lowered = [xv**(ev - (v == k)) for v, (xv, ev) in enumerate(zip(x, j))]
                        term = a * e * math.prod(lowered)
                        partials[s, p, k] += term
                        partial_scale[s, p, k] += abs(term)
    return values, partials, value_scale, partial_scale


@pytest.mark.parametrize("n,d", [(1, 1), (1, 3), (2, 2), (3, 4), (4, 2)])
def test_forms_match_plain_python_reference(n, d):
    """evaluate_forms and gradient_forms against reference_forms, at points
    with exact zeros and on coordinate rows with zero entries; the gradient
    also satisfies Euler's identity sum_k x_k d_k h = d h."""
    rng = RngStream(46, 10 * n + d)
    k = math.comb(n + d, n)
    coeffs = np.stack([complex_gaussian_vector(rng, k) for _ in range(3)])
    coeffs[1, ::2] = 0.0  # zero coefficients
    coeffs[2, :-1] = 0.0  # only x_n^d
    points = np.stack([[complex_gaussian_vector(rng, n + 1) for _ in range(5)] for _ in range(3)])
    points[:, 0, 0] = 0.0  # x_0 = 0: every x_0^0 factor must read 1
    points[:, 1, :] = np.eye(n + 1)[-1]  # a coordinate point e_n
    points[:, 2, 1:] = 0.0  # only x_0 nonzero
    values, partials, value_scale, partial_scale = reference_forms(n, d, coeffs, points)
    tol = 8 * (k + d) * np.finfo(float).eps
    got = bwspace.evaluate_forms(n, d, coeffs, points)
    assert got.shape == values.shape
    assert np.all(np.abs(got - values) <= tol * value_scale)
    grad = bwspace.gradient_forms(n, d, coeffs, points)
    assert grad.shape == partials.shape
    assert np.all(np.abs(grad - partials) <= tol * partial_scale)
    euler = np.sum(points * grad, axis=2)
    assert np.all(np.abs(euler - d * got) <= tol * d * (n + 2) * value_scale)


class TestSubstituteForms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_coefficients_give_the_substituted_values(self, n, d):
        # h(A y) = sum_j c'_j y^j at Gaussian y in C^(m+1), not only on the
        # torus the coefficients are read from (at d = 1 the points +-1),
        # within 1e-12 of ||h|| ||A y||^d, which bounds |h(A y)|
        for m in sorted({1, 2, n}):
            rng = RngStream(47, 100 * n + 10 * d + m)
            k = math.comb(n + d, n)
            coeffs = randgeom.complex_gaussian_array(rng, (2, k))
            maps = randgeom.complex_gaussian_array(rng, (2, 3, n + 1, m + 1))
            got = bwspace.substitute_forms(n, d, coeffs, maps)
            assert got.shape == (2, 3, math.comb(m + d, m))
            y = randgeom.complex_gaussian_array(rng, (2, 3, 4, m + 1))
            x = np.einsum("slij,slpj->slpi", maps, y)
            lhs = bwspace.evaluate_forms(n, d, coeffs, x.reshape(2, 12, n + 1)).reshape(2, 3, 4)
            expo, _ = bwspace.monomial_basis(m, d)
            rhs = np.einsum("slpj,slj->slp", np.prod(y[..., None, :] ** expo, axis=-1), got)
            scale = np.linalg.norm(coeffs, axis=1)[:, None, None] * np.linalg.norm(x, axis=-1) ** d
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale), m

    @pytest.mark.parametrize("n,d,m", [(2, 3, 1), (3, 2, 2), (2, 4, 2), (3, 3, 3)])
    def test_batch_equals_single_calls_bit_for_bit(self, n, d, m):
        rng = RngStream(48, 100 * n + 10 * d + m)
        coeffs = randgeom.complex_gaussian_array(rng, (3, math.comb(n + d, n)))
        maps = randgeom.complex_gaussian_array(rng, (3, 4, n + 1, m + 1))
        batch = bwspace.substitute_forms(n, d, coeffs, maps)
        for s in range(3):
            for line in range(4):
                single = bwspace.substitute_forms(n, d, coeffs[s:s + 1], maps[s:s + 1, line:line + 1])
                assert np.array_equal(batch[s, line], single[0, 0]), (s, line)


def isometry(rng, rows, cols):
    """The first cols columns of a Haar unitary of size rows."""
    return randgeom.haar_unitary(rng, rows)[:, :cols]


class TestCompose:
    @pytest.mark.parametrize("n,degrees,m", [(2, (3,), 1), (3, (2, 4), 2), (3, (1, 3), 3)])
    def test_values_are_the_composed_values(self, n, degrees, m):
        # g(y) = h(a y) at Gaussian y, within 1e-12 of ||h|| ||a y||^d
        rng = RngStream(49, 10 * n + m)
        h = gaussian_system(rng, n, degrees)
        a = isometry(rng, n + 1, m + 1)
        g = bwspace.compose(h, a)
        assert (g.n, g.degrees) == (m, h.degrees)
        y = randgeom.complex_gaussian_array(rng, (5, m + 1))
        x = y @ a.T
        scale = bwspace.bw_norm(h) * np.linalg.norm(x, axis=1)[:, None] ** np.array(degrees)
        assert np.all(np.abs(bwspace.evaluate_at(g, y) - bwspace.evaluate_at(h, x)) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [2, 4])
    def test_composition_law(self, n, d):
        # compose(compose(h, a), b) = compose(h, a b) for isometries a
        # (n+1) x (m+1) and b (m+1) x 2, m = n (a rotation) and m = n - 1
        for m in (n, n - 1):
            rng = RngStream(50, 100 * n + 10 * d + m)
            h = gaussian_system(rng, n, (d,))
            a, b = isometry(rng, n + 1, m + 1), isometry(rng, m + 1, 2)
            lhs = bwspace.compose(bwspace.compose(h, a), b).coords[0]
            rhs = bwspace.compose(h, a @ b).coords[0]
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs), m

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [2, 4])
    def test_restriction_of_a_rotation_is_the_rotated_restriction(self, n, d):
        # h o u* cut by the line (p, q) is h cut by the line (u* p, u* q)
        rng = RngStream(51, 10 * n + d)
        h = gaussian_system(rng, n, (d,))
        u = randgeom.haar_unitary(rng, n + 1)
        p, q = isometry(rng, n + 1, 2).T
        lhs = roots.restrict_to_line(randgeom.rotate_system(h, u), p, q).coords[0]
        rhs = roots.restrict_to_line(h, u.conj().T @ p, u.conj().T @ q).coords[0]
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("call,fault,match", [
        ("compose", "not isometric", "orthonormal"),
        ("compose", "nan", "orthonormal"),
        ("compose", "rows", "must have 3 rows"),
        ("restrict_to_line", "not isometric", "orthonormal"),
        ("restrict_to_line", "nan", "orthonormal"),
        ("restrict_to_line", "rows", r"C\^\(n\+1\)"),
        ("rotate_system", "not isometric", "not unitary"),
        ("rotate_system", "nan", "not unitary"),
        ("rotate_system", "rows", "must be 3 x 3"),
    ])
    def test_rejects_a_bad_map_through_each_caller(self, call, fault, match):
        # a map that is not an isometry, has a NaN entry or the wrong row
        # count is refused, with the message of the function called
        h = gaussian_system(RngStream(52, 0), 2, (2,))
        a = np.eye(4 if fault == "rows" else 3, dtype=complex)
        if fault == "not isometric":
            a[0, 1] = 0.5
        elif fault == "nan":
            a[1, 1] = np.nan
        with pytest.raises(ValueError, match=match):
            if call == "compose":
                bwspace.compose(h, a[:, :2])
            elif call == "restrict_to_line":
                roots.restrict_to_line(h, a[:, 0], a[:, 1])
            else:
                randgeom.rotate_system(h, a)


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
