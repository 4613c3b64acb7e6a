import math

import pytest

from condmoments import bwspace, formulas


def exact_gamma_ratio(num_args, den_args):
    """Gamma-ratio via exact integer factorials; all arguments must be
    positive integers."""
    num = 1
    for a in num_args:
        num *= math.factorial(a - 1)
    den = 1
    for a in den_args:
        den *= math.factorial(a - 1)
    return num / den


class TestEspnorm:
    def test_alpha_two_gives_dimension(self):
        for n in (1, 3, 7):
            assert formulas.espnorm_value(n, 2.0).value == pytest.approx(float(n))

    def test_alpha_zero(self):
        assert formulas.espnorm_value(5, 0.0).value == pytest.approx(1.0)

    def test_integer_case(self):
        assert formulas.espnorm_value(3, 4.0).value == pytest.approx(12.0, rel=1e-13)

    def test_negative_alpha(self):
        assert formulas.espnorm_value(2, -2.0).value == pytest.approx(1.0, rel=1e-13)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            formulas.espnorm_value(2, -4.0)


class TestEspnormrest:
    def test_beta_two_agreement(self):
        forms = formulas.espnormrest_value(3, 1, 2.0)
        assert forms.closed_form.value == pytest.approx(8.0, rel=1e-13)
        assert forms.sum_form.value == pytest.approx(8.0, rel=1e-13)
        assert forms.forms_agree

    def test_alpha_zero_beta_two(self):
        forms = formulas.espnormrest_value(4, 0, 2.0)
        assert forms.closed_form.value == pytest.approx(3.0, rel=1e-13)
        assert forms.sum_form.value == pytest.approx(3.0, rel=1e-13)

    def test_beta_zero_disagreement(self):
        # sum form recovers E||v||^2 = n; the closed form does not
        forms = formulas.espnormrest_value(3, 1, 0.0)
        assert forms.sum_form.value == pytest.approx(3.0, rel=1e-13)
        assert forms.closed_form.value == pytest.approx(2.0, rel=1e-13)
        assert not forms.forms_agree

    def test_agreement_sweep_at_beta_two(self):
        for n in range(2, 11):
            for alpha in range(0, 7):
                forms = formulas.espnormrest_value(n, alpha, 2.0)
                assert forms.closed_form.value == pytest.approx(
                    forms.sum_form.value, rel=1e-12
                )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            formulas.espnormrest_value(1, 1, 2.0)
        with pytest.raises(ValueError):
            formulas.espnormrest_value(3, -1, 2.0)
        with pytest.raises(ValueError):
            formulas.espnormrest_value(2, 0, -4.0)

    @pytest.mark.parametrize("n, alpha, beta",
                             [(2, 0, -2.5), (2, 0, -2.0), (2, 3, -2.0), (4, 1, -6.0)])
    def test_rejects_beta_outside_the_finite_range(self, n, alpha, beta):
        # ||P v||^beta, P v Gaussian in C^(n-1), has a finite mean only for beta > 2 - 2n
        with pytest.raises(ValueError, match=f"beta > {2 - 2 * n} for a finite mean"):
            formulas.espnormrest_value(n, alpha, beta)

    def test_accepts_beta_just_inside_the_range(self):
        assert formulas.espnormrest_value(3, 0, -3.9).sum_form.value > 0


class TestInvnor2mdet:
    def test_small_cases(self):
        assert formulas.invnor2mdet_value(1, 1.0).value == pytest.approx(1.0, rel=1e-13)
        assert formulas.invnor2mdet_value(2, 1.0).value == pytest.approx(4.0, rel=1e-13)
        assert formulas.invnor2mdet_value(2, 2.0).value == pytest.approx(12.0, rel=1e-13)
        assert formulas.invnor2mdet_value(3, 1.0).value == pytest.approx(18.0, rel=1e-13)

    def test_exact_integer_cross_check(self):
        for r in range(1, 5):
            for k in range(1, 5):
                expected = (r / k) * exact_gamma_ratio(
                    [k + i for i in range(1, r + 1)], list(range(1, r + 1))
                )
                assert formulas.invnor2mdet_value(r, float(k)).value == pytest.approx(
                    expected, rel=1e-13
                )

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            formulas.invnor2mdet_value(2, 0.0)


class TestMainTheorem:
    def test_examples(self):
        assert formulas.main_theorem_value(1, (2,)).value == pytest.approx(2.0)
        assert formulas.main_theorem_value(2, (2,)).value == pytest.approx(2.5)

    def test_fractional_degree_rejected(self):
        # used to return the degree-2 value
        with pytest.raises(ValueError, match="degrees must be an integer"):
            formulas.main_theorem_value(2, [2.5])

    def test_determined_case(self):
        # n = r: (N - 1) r
        for r, degrees in ((1, (3,)), (2, (2, 2))):
            n_dim = bwspace.dim_space(r, degrees)
            expected = (n_dim - 1) * r
            assert formulas.main_theorem_value(r, degrees).value == pytest.approx(expected)

    def test_ratio_to_determined_case(self):
        # underdetermined value = (N-1) / ((N_det - 1)(n-r+1)) * determined
        # value for the same degree list
        for n, degrees in ((3, (2,)), (4, (2, 3)), (5, (1, 2, 2))):
            r = len(degrees)
            n_dim = bwspace.dim_space(n, degrees)
            n_det = bwspace.dim_space(r, degrees)
            under = formulas.main_theorem_value(n, degrees).value
            det = formulas.main_theorem_value(r, degrees).value
            ratio = (n_dim - 1) / ((n_det - 1) * (n - r + 1))
            assert under == pytest.approx(ratio * det, rel=1e-12)


class TestExmualphaConstant:
    def test_alpha_two_times_weighted_moment_telescopes(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                degrees = [2] * r
                c = formulas.exmualpha_constant(n, r, degrees, 2.0)
                w = formulas.invnor2mdet_value(r, float(n - r + 1))
                target = formulas.main_theorem_value(n, degrees)
                assert c.value * w.value == pytest.approx(target.value, rel=1e-12)

    def test_determined_univariate(self):
        # n = r = 1: the matrix factor is trivial and the constant is N - 1
        n_dim = bwspace.dim_space(1, (3,))
        c = formulas.exmualpha_constant(1, 1, (3,), 2.0)
        assert c.value == pytest.approx(float(n_dim - 1), rel=1e-13)

    def test_stored_factors(self):
        c = formulas.exmualpha_constant(2, 1, (2,), 2.0)
        assert c.params["N"] == 6
        assert c.value == pytest.approx(5.0 * 0.5, rel=1e-13)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="alpha < 6 for a finite mean"):
            formulas.exmualpha_constant(2, 1, (2,), 6.0)
        with pytest.raises(ValueError):
            formulas.exmualpha_constant(2, 2, (2,), 2.0)  # r mismatch


class TestIdentityConstants:
    def test_rect_fibration_exact(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                expected = exact_gamma_ratio([n - r + 1], [n + 1])
                c = formulas.rect_fibration_constant(r, n)
                assert c.value == pytest.approx(expected, rel=1e-13)
                # the value the rectangular fibration pair was scaled by
                assert c.value == math.exp(math.lgamma(n - r + 1) - math.lgamma(n + 1))

    def test_kernel_exact(self):
        for r in range(1, 5):
            for k in range(0, 5):
                expected = exact_gamma_ratio(
                    list(range(1, k + 1)), [r + i for i in range(1, k + 1)]
                )
                c = formulas.kernel_constant(r, k)
                assert c.value == pytest.approx(expected, rel=1e-13)
                assert c.value == math.exp(
                    sum(math.lgamma(i) - math.lgamma(r + i) for i in range(1, k + 1))
                )

    def test_scaling_exact(self):
        for n, degrees in ((1, (2,)), (2, (2,)), (3, (1, 2))):
            n_dim = bwspace.dim_space(n, degrees)
            for alpha in (2.0, 4.0):
                expected = exact_gamma_ratio([n_dim], [n_dim - int(alpha) // 2])
                c = formulas.scaling_constant(n, degrees, alpha)
                assert c.value == pytest.approx(expected, rel=1e-13)
                assert c.value == math.exp(
                    math.lgamma(n_dim) - math.lgamma(n_dim - alpha / 2.0)
                )

    def test_scaling_rejects_pole(self):
        # N = 2 at n = 1, d = 1: the pole of Gamma(N - alpha/2) at alpha = 4,
        # and the non-finite alphas the tail rule cannot order
        for alpha, match in ((4.0, "alpha < 4 for a finite mean"),
                             (math.nan, "alpha must be finite"),
                             (math.inf, "alpha must be finite"),
                             (-math.inf, "alpha must be finite")):
            with pytest.raises(ValueError, match=match):
                formulas.scaling_constant(1, (1,), alpha)

    def test_exmualpha_is_scaling_times_kernel(self):
        for n in range(1, 5):
            for r in range(1, n + 1):
                degrees = [2] * r
                c = formulas.exmualpha_constant(n, r, degrees, 2.0)
                parts = (formulas.scaling_constant(n, degrees, 2.0).value
                         * formulas.kernel_constant(r, n - r + 1).value)
                assert c.value == pytest.approx(parts, rel=1e-13)


class TestPinvMomentValue:
    def test_values(self):
        assert formulas.pinv_moment_value(1, 2).value == pytest.approx(1.0)
        assert formulas.pinv_moment_value(2, 4).value == pytest.approx(1.0)
        assert formulas.pinv_moment_value(3, 4).value == pytest.approx(3.0)
        assert formulas.pinv_moment_value(1, 3).value == pytest.approx(0.5)

    def test_rejects_square(self):
        with pytest.raises(ValueError, match="m > r"):
            formulas.pinv_moment_value(2, 2)


class TestVolumes:
    def test_fractional_l_rejected(self):
        with pytest.raises(ValueError, match="l must be an integer"):
            formulas.volumes(2, 1, 2.5, (1,))

    def test_bool_k_rejected(self):
        with pytest.raises(ValueError, match="k must be a number, got True"):
            formulas.volumes(2, True, 2, (1,))

    def test_projective_line_is_smallest_grassmannian(self):
        v = formulas.volumes(1, 1, 2, (1,))
        assert v.vol_grassmann.value == pytest.approx(math.pi, rel=1e-13)
        assert v.vol_projective.value == pytest.approx(math.pi, rel=1e-13)

    def test_projective_plane(self):
        v = formulas.volumes(2, 1, 2, (1,))
        assert v.vol_projective.value == pytest.approx(math.pi**2 / 2.0, rel=1e-13)

    def test_cubic_curve_volume(self):
        v = formulas.volumes(2, 1, 3, (3,))
        assert v.vol_vh.value == pytest.approx(3.0 * math.pi, rel=1e-13)

    def test_grassmannian_exact_integers(self):
        for k, l in ((1, 3), (2, 4), (2, 5)):
            expected = math.pi ** (k * (l - k)) * exact_gamma_ratio(
                list(range(1, k + 1)), [k + i for i in range(1, k + 1)]
            )
            v = formulas.volumes(3, k, l, (2,))
            assert v.vol_grassmann.value == pytest.approx(expected, rel=1e-13)


class TestLogSpace:
    def test_log_value_consistent(self):
        v = formulas.invnor2mdet_value(4, 3.0)
        assert v.value == pytest.approx(math.exp(v.log_value), rel=1e-13)

    def test_large_arguments_stay_finite_in_log(self):
        # products of many Gammas overflow the linear scale but not the log
        v = formulas.invnor2mdet_value(60, 40.0)
        assert math.isinf(v.value)
        assert math.isfinite(v.log_value)
