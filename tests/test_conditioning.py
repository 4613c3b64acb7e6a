import math
import warnings

import numpy as np
import pytest

from condmoments import bwspace, conditioning, randgeom, roots
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

    def test_hand_evaluated_binary_quadratic(self):
        # h = x_0 x_1: coordinate 1/sqrt(2) at (1,1), ||h|| = 1/sqrt(2);
        # both roots e_0, e_1 give ||Dh^+ sqrt(2)||_F = sqrt(2), so mu = 1
        # at each root
        c = np.zeros(3, dtype=complex)
        c[1] = 1.0 / math.sqrt(2.0)
        h = bwspace.make_system(1, (2,), [c])
        for x in ([1.0, 0.0], [0.0, 1.0]):
            assert conditioning.mu(h, np.array(x, dtype=complex)) == pytest.approx(1.0, rel=1e-12)

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
            x = conditioning.kernel_basis(m)[:, 0]
            assert conditioning.mu(h, x) == pytest.approx(float(r), rel=1e-10)

    def test_rejects_non_zero_point(self):
        h = bwspace.make_system(1, (2,), [np.array([1.0, 0.0, 0.0], dtype=complex)])
        x = np.array([1.0, 0.0], dtype=complex)  # h(e_0) = 1 != 0
        with pytest.raises(ValueError, match="not a zero"):
            conditioning.mu(h, x)

    def test_rejects_a_system_whose_norm_overflows(self):
        # ||h|| and |h(e_0)| = 1e300 both overflow to inf, and inf > 1e-8 * inf
        # is False: e_0, not a zero, once passed and mu was nan
        h = bwspace.make_system(1, (1,), [[1e300, 1e300]])
        with pytest.raises(ValueError, match="norm must be finite"):
            conditioning.mu(h, np.array([1.0, 0.0], dtype=complex))

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
            basis = conditioning.kernel_basis(np.conj(x)[None, :])
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
            x = conditioning.kernel_basis(m)[:, 0]
            mf = conditioning.mu(h, x)
            mo = conditioning.mu(h, x, "operator")
            assert mo <= mf * (1 + 1e-12)
            assert mf <= math.sqrt(r) * mo * (1 + 1e-12)

    def test_rank_deficient_duplicate_equations(self):
        rng = RngStream(46, 0)
        row = complex_gaussian_vector(rng, 4)
        x = unit(conditioning.kernel_basis(row[None, :])[:, 0])
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
        for norm in conditioning.NORMS:
            values, off_zero = conditioning.zero_set_mu(n, (d,), [coeffs], pts, relative, norm)
            assert values.shape == (5, lines * d)
            assert not failed.any() and not off_zero.any()
            for j in range(5):
                h = bwspace.make_system(n, (d,), [coeffs[j]])
                scale = bwspace.bw_norm(h) if relative else 1.0
                expected = [pinv_reference(h, x, norm) / scale for x in pts[j]]
                np.testing.assert_allclose(values[j], expected, rtol=1e-12)

    def test_point_off_the_zero_set_flags_only_its_system(self):
        coeffs, pts, _ = roots.sample_zero_sets(53, range(4), 2, 2, 2)
        pts[2, 1] = np.eye(3)[0]
        _, off_zero = conditioning.zero_set_mu(2, (2,), [coeffs], pts, False)
        assert off_zero.tolist() == [False, False, True, False]

    def test_nan_point_gives_nan_mu_without_a_flag_or_warning(self):
        # a root-failed line's points are NaN; sample_zero_sets flags that
        # system, and the stage leaves it alone (RuntimeWarnings are errors)
        coeffs, pts, _ = roots.sample_zero_sets(54, range(3), 2, 2, 2)
        pts[1, 0] = complex(math.nan, math.nan)
        values, off_zero = conditioning.zero_set_mu(2, (2,), [coeffs], pts, True)
        assert np.isnan(values[1, 0])
        assert np.isnan(values).sum() == 1
        assert not off_zero.any()

    def test_nan_point_at_r_two_gives_nan_mu_without_a_flag_or_warning(self):
        # r = 2 with a quadratic, whose Jacobian row is NaN at a NaN point
        rng = RngStream(56, 0)
        x = unit(complex_gaussian_vector(rng, 4))
        h = system_through(rng, x, 3, (1, 2))
        pts = np.array([[x, np.full(4, complex(math.nan, math.nan))]])
        for norm in conditioning.NORMS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values, flagged = conditioning.zero_set_mu(
                    3, h.degrees, [c[None] for c in h.coords], pts, False, norm)
            assert np.isfinite(values[0, 0]) and np.isnan(values[0, 1])
            assert not flagged.any()

    def test_system_whose_norm_overflows_is_flagged_without_a_warning(self):
        # ||h|| overflows to inf, and |h(e_0)| = 1e300 > 1e-8 * inf is False:
        # only the finite-norm rule flags e_0, which is not a zero
        coeffs = [np.array([[1e300, 1e300]], dtype=complex)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, flagged = conditioning.zero_set_mu(1, (1,), coeffs, np.array([[[1.0, 0.0]]]),
                                                  False)
        assert flagged.tolist() == [True]


class TestKernelFindingIdentity:
    """A linear system is its coefficient matrix A, and at a point of ker A
    mu is ||A||_F ||A^+||, the condition number of finding the kernel."""

    @pytest.mark.parametrize("r, m", [(1, 3), (2, 3), (2, 4), (3, 5)])
    def test_mu_is_the_kernel_condition_number(self, r, m):
        rng = RngStream(55, 10 * r + m)
        mats = [complex_gaussian_array(rng, (r, m)) for _ in range(8)]
        xs = np.array([conditioning.kernel_basis(a)[:, 0] for a in mats])
        coeffs = [np.array([a[i] for a in mats]) for i in range(r)]
        for norm, order in (("frobenius", "fro"), ("operator", 2)):
            expected = [np.linalg.norm(a) * np.linalg.norm(np.linalg.pinv(a), order)
                        for a in mats]
            values, flagged = conditioning.zero_set_mu(m - 1, (1,) * r, coeffs, xs[:, None],
                                                       False, norm)
            assert not flagged.any()
            np.testing.assert_allclose(values[:, 0], expected, rtol=1e-12)
            for a, x, value in zip(mats, xs, expected):
                assert conditioning.mu(make_linear_system(a), x, norm) == pytest.approx(
                    value, rel=1e-12)


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


def random_matrix(seed, r, m):
    return complex_gaussian_array(RngStream(seed, 0), (r, m))


class TestKernelBasis:
    def test_explicit_kernel_of_zero_block(self):
        b = random_matrix(16, 3, 3)
        m = np.hstack([np.zeros((3, 1)), b])
        k = conditioning.kernel_basis(m)
        assert k.shape == (4, 1)
        # kernel is spanned by e_0 up to phase
        assert abs(abs(k[0, 0]) - 1.0) < 1e-10
        assert np.linalg.norm(k[1:]) < 1e-10

    def test_full_rank_random(self):
        m = random_matrix(17, 2, 4)
        k = conditioning.kernel_basis(m)
        assert k.shape == (4, 2)
        assert np.linalg.norm(m @ k) < 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(k.conj().T @ k - np.eye(2)) < 1e-10

    def test_zero_matrix(self):
        k = conditioning.kernel_basis(np.zeros((2, 4)))
        assert k.shape == (4, 4)
        assert np.linalg.norm(k - np.eye(4)) < 1e-12

    def test_rank_tolerance_drops_tiny_singular_values(self):
        # rows with singular values 1 and 1e-14: the second counts as zero;
        # at 1e-11, above RANK_TOL, it does not
        u = np.linalg.qr(random_matrix(18, 2, 2))[0]
        v = np.linalg.qr(random_matrix(19, 4, 4))[0]
        m = u @ np.diag([1.0, 1e-14]) @ v[:, :2].conj().T
        assert conditioning.kernel_basis(m).shape == (4, 3)
        m = u @ np.diag([1.0, 1e-11]) @ v[:, :2].conj().T
        assert conditioning.kernel_basis(m).shape == (4, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            conditioning.kernel_basis(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="2-D"):
            conditioning.kernel_basis(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="rows <= cols"):
            conditioning.kernel_basis(np.zeros((3, 2)))

    def test_svd_failure_is_a_numeric_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(conditioning.NumericError, match="did not converge"):
            conditioning.kernel_basis(np.eye(2))
