import math

import numpy as np
import pytest

from condmoments import bwspace, conditioning, cxla, randgeom, roots
from condmoments.randgeom import (
    RngStream,
    complex_gaussian_array,
    complex_gaussian_vector,
    gaussian_system,
)


def make_linear_system(m):
    """Degrees-all-one system whose coefficient matrix is m."""
    r, cols = m.shape
    return bwspace.make_system(cols - 1, (1,) * r, [m[i] for i in range(r)])


def unit(v):
    return v / np.linalg.norm(v)


class TestMuFrobenius:
    def test_hand_computed_linear_case(self):
        # h = x_1 (n = r = 1, d = 1), zero at e_0: Dh = (0, 1), mu = 1
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        x = np.array([1.0, 0.0], dtype=complex)
        assert conditioning.mu(h, x) == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = RngStream(41, 0)
        h = gaussian_system(rng, 2, (2,))
        x = roots.sample_variety_points(h, rng, 1)[0]
        base = conditioning.mu(h, x)
        for lam in (0.1, 3.0, 10.0, 0.5 - 2.0j):
            scaled = bwspace.make_system(h.n, h.degrees, [lam * c for c in h.coords])
            assert conditioning.mu(scaled, x) == pytest.approx(
                base, rel=1e-12
            )

    def test_orthonormal_rows_linear_system(self):
        # degrees all 1, coefficient matrix with orthonormal rows: mu = r
        rng = RngStream(42, 0)
        for r, n in ((2, 3), (3, 4)):
            u = randgeom.haar_unitary(rng, n + 1)
            m = u[:r, :]
            h = make_linear_system(m)
            x = cxla.kernel_basis(m)[:, 0]
            assert conditioning.mu(h, x) == pytest.approx(float(r), rel=1e-10)

    def test_rejects_non_zero_point(self):
        h = bwspace.make_system(1, (2,), [np.array([1.0, 0.0, 0.0], dtype=complex)])
        x = np.array([1.0, 0.0], dtype=complex)  # h(e_0) = 1 != 0
        with pytest.raises(ValueError, match="not a zero"):
            conditioning.mu(h, x)

    def test_rejects_non_unit_point(self):
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        with pytest.raises(ValueError, match="unit"):
            conditioning.mu(h, np.array([2.0, 0.0], dtype=complex))

    def test_rejects_a_nan_point(self):
        # the unit-norm check refuses a NaN point before h is evaluated at it
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        for x in ([np.nan, np.nan], [1.0, np.nan]):
            with pytest.raises(ValueError, match="unit norm"):
                conditioning.mu(h, np.array(x, dtype=complex))

    def test_phase_change_of_representative(self):
        rng = RngStream(43, 0)
        h = gaussian_system(rng, 2, (3,))
        x = roots.sample_variety_points(h, rng, 1)[0]
        base = conditioning.mu(h, x)
        for theta in (0.3, 1.2, 2.9):
            y = np.exp(1j * theta) * x
            assert conditioning.mu(h, y) == pytest.approx(
                base, rel=1e-10
            )

    def test_restricted_jacobian_equivalence(self):
        # at a zero, x lies in ker Dh(x) (Euler), so restricting the Jacobian
        # to the orthogonal complement of x leaves the scaled pseudoinverse
        # norm unchanged
        rng = RngStream(44, 0)
        for _ in range(10):
            h = gaussian_system(rng, 2, (2,))
            x = roots.sample_variety_points(h, rng, 1)[0]
            jac = bwspace.jacobian(h, x)
            # Hermitian complement of x is the kernel of the row vector x*
            basis = cxla.kernel_basis(np.conj(x)[None, :])
            restricted = jac @ basis
            full_norm = np.linalg.norm(
                np.linalg.pinv(jac) * np.sqrt(np.array(h.degrees))
            )
            restricted_norm = np.linalg.norm(
                np.linalg.pinv(restricted) * np.sqrt(np.array(h.degrees))
            )
            assert restricted_norm == pytest.approx(full_norm, rel=1e-10)


class TestMuOperator:
    def test_rank_one_coincides_with_frobenius(self):
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        x = np.array([1.0, 0.0], dtype=complex)
        assert conditioning.mu(h, x, "operator") == pytest.approx(1.0, rel=1e-12)

    def test_sandwich_inequality(self):
        rng = RngStream(45, 0)
        for r, n in ((2, 3), (3, 4)):
            m = complex_gaussian_array(rng, (r, n + 1))
            h = make_linear_system(m)
            x = cxla.kernel_basis(m)[:, 0]
            mf = conditioning.mu(h, x)
            mo = conditioning.mu(h, x, "operator")
            assert mo <= mf * (1 + 1e-12)
            assert mf <= math.sqrt(r) * mo * (1 + 1e-12)

    def test_rank_deficient_duplicate_equations(self):
        rng = RngStream(46, 0)
        row = complex_gaussian_vector(rng, 4)
        x = unit(cxla.kernel_basis(row[None, :])[:, 0])
        h = make_linear_system(np.array([row, row]))
        assert math.isinf(conditioning.mu(h, x, "operator"))
        assert math.isinf(conditioning.mu(h, x))


def system_through(rng, x, n, degrees):
    """Gaussian system with each equation's component along the kernel at x removed."""
    h = gaussian_system(rng, n, degrees)
    values = bwspace.evaluate(h, x)
    coords = [c - v * bwspace.kernel_poly(x, d).coords[0]
              for c, v, d in zip(h.coords, values, h.degrees)]
    return bwspace.make_system(n, h.degrees, coords)


def pinv_reference(h, x, norm):
    """||h|| * ||Dh(x)^+ diag(sqrt(d_i))|| straight from the definition."""
    scaled = np.linalg.pinv(bwspace.jacobian(h, x)) * np.sqrt(np.array(h.degrees))
    return bwspace.bw_norm(h) * np.linalg.norm(scaled, "fro" if norm == "frobenius" else 2)


class TestRankRule:
    @pytest.mark.parametrize("norm", ["frobenius", "operator"])
    def test_singular_value_ratio_threshold(self, norm):
        # linear systems (degree scaling is the identity) whose Jacobian has
        # singular values 1 and ratio: finite at 1e-10, rank deficient at 1e-14
        rng = RngStream(50, 0)
        for ratio, finite in ((1e-10, True), (1e-14, False)):
            u = randgeom.haar_unitary(rng, 2)
            v = randgeom.haar_unitary(rng, 4)
            m = u @ np.diag([1.0, ratio]) @ v[:2]
            h = make_linear_system(m)
            x = v[3].conj()  # orthogonal to both rows of v[:2]
            value = conditioning.mu(h, x, norm)
            if finite:
                expected = 1.0 / ratio if norm == "operator" else math.hypot(1.0, 1.0 / ratio)
                assert value == pytest.approx(bwspace.bw_norm(h) * expected, rel=1e-4)
            else:
                assert math.isinf(value)

    @pytest.mark.parametrize("norm", ["frobenius", "operator"])
    @pytest.mark.parametrize("n, degrees", [(2, (1, 2)), (3, (3, 1)), (3, (1, 2, 3)),
                                            (4, (2, 3, 1))])
    def test_matches_pinv_definition_on_mixed_degrees(self, norm, n, degrees):
        rng = RngStream(51, len(degrees))
        for _ in range(10):
            x = unit(complex_gaussian_vector(rng, n + 1))
            h = system_through(rng, x, n, degrees)
            assert conditioning.mu(h, x, norm) == pytest.approx(
                pinv_reference(h, x, norm), rel=1e-12
            )

    def test_rejects_unknown_norm(self):
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        with pytest.raises(ValueError, match="unknown norm"):
            conditioning.mu(h, np.array([1.0, 0.0], dtype=complex), "spectral")


class TestZeroSetMu:
    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("n, d, lines", [(1, 3, 1), (2, 2, 4), (3, 4, 2)])
    def test_matches_per_point_mu(self, n, d, lines, relative):
        coeffs, pts, failed = roots.sample_zero_sets(52, range(5), n, d, lines)
        values, off_zero = conditioning.zero_set_mu(n, d, coeffs, pts, relative)
        assert values.shape == (5, lines * d)
        assert not failed.any() and not off_zero.any()
        for j in range(5):
            h = bwspace.make_system(n, (d,), [coeffs[j]])
            scale = bwspace.bw_norm(h) if relative else 1.0
            for norm in conditioning.NORMS:
                expected = [conditioning.mu(h, x, norm) / scale for x in pts[j]]
                np.testing.assert_allclose(values[j], expected, rtol=1e-12)

    def test_point_off_the_zero_set_flags_only_its_system(self):
        coeffs, pts, _ = roots.sample_zero_sets(53, range(4), 2, 2, 2)
        pts[2, 1] = np.eye(3)[0]
        _, off_zero = conditioning.zero_set_mu(2, 2, coeffs, pts, False)
        assert off_zero.tolist() == [False, False, True, False]

    def test_nan_point_gives_nan_mu_without_a_flag_or_warning(self):
        # a root-failed line's points are NaN; sample_zero_sets flags that
        # system, and the stage leaves it alone (RuntimeWarnings are errors)
        coeffs, pts, _ = roots.sample_zero_sets(54, range(3), 2, 2, 2)
        pts[1, 0] = complex(math.nan, math.nan)
        values, off_zero = conditioning.zero_set_mu(2, 2, coeffs, pts, True)
        assert np.isnan(values[1, 0])
        assert np.isnan(values).sum() == 1
        assert not off_zero.any()


class TestUnitaryInvariance:
    def test_mu_invariant_under_rotation(self):
        rng = RngStream(47, 0)
        for _ in range(100):
            h = gaussian_system(rng, 2, (2,))
            x = roots.sample_variety_points(h, rng, 1)[0]
            mu = conditioning.mu(h, x)
            u = randgeom.haar_unitary(rng, 3)
            rotated = randgeom.rotate_system(h, u)
            mu_rot = conditioning.mu(rotated, u @ x)
            assert mu_rot == pytest.approx(mu, rel=1e-8)


class TestEmpiricalMoment:
    def test_single_zero(self):
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        x = np.array([1.0, 0.0], dtype=complex)
        assert conditioning.empirical_moment(h, [x], 2.0) == pytest.approx(1.0)

    def test_relative_equals_absolute_at_unit_norm(self):
        rng = RngStream(48, 0)
        h = gaussian_system(rng, 2, (2,))
        scale = 1.0 / bwspace.bw_norm(h)
        h1 = bwspace.make_system(h.n, h.degrees, [scale * c for c in h.coords])
        pts = roots.sample_variety_points(h1, rng, 2)
        a = conditioning.empirical_moment(h1, pts, 2.0, relative=False)
        b = conditioning.empirical_moment(h1, pts, 2.0, relative=True)
        assert a == pytest.approx(b, rel=1e-10)

    def test_hand_evaluated_binary_quadratic(self):
        # h = x_0 x_1: coordinate 1/sqrt(2) at (1,1), ||h|| = 1/sqrt(2);
        # both roots e_0, e_1 give ||Dh^+ sqrt(2)||_F = sqrt(2), so mu = 1
        # at each root and the second-moment average is exactly 1
        c = np.zeros(3, dtype=complex)
        c[1] = 1.0 / math.sqrt(2.0)
        h = bwspace.make_system(1, (2,), [c])
        zeros = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
        assert conditioning.empirical_moment(h, zeros, 2.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_empty_list_rejected(self):
        h = bwspace.make_system(1, (1,), [np.array([0.0, 1.0], dtype=complex)])
        with pytest.raises(ValueError, match="at least one"):
            conditioning.empirical_moment(h, [], 2.0)
        # nor does a zero list take an alpha that is not a finite positive number
        x = np.array([1.0, 0.0], dtype=complex)
        for alpha in (0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="alpha must be"):
                conditioning.empirical_moment(h, [x], alpha)

    def test_infinite_mu_propagates(self):
        rng = RngStream(49, 0)
        row = complex_gaussian_vector(rng, 3)
        x = unit(cxla.kernel_basis(row[None, :])[:, 0])
        h = make_linear_system(np.array([row, row]))
        assert math.isinf(conditioning.empirical_moment(h, [x], 2.0))
