import math

import numpy as np
import pytest

from condmoments import conditioning, formulas, montecarlo, roots
from condmoments.montecarlo import EstimatorConfig
from condmoments.randgeom import RngStream, complex_gaussian_array, gaussian_system


def cfg(samples, seed, **kw):
    return EstimatorConfig(samples=samples, seed=seed, **kw)


def z_against(est, value):
    return (est.mean - value) / est.stderr


class TestPinvMoment:
    def test_one_by_two_heavy_tail_uses_median_of_means(self):
        est = montecarlo.estimate_pinv_moment(1, 2, 2.0, "frobenius", cfg(20_000, 1))
        assert est.method.startswith("median-of-means")
        assert abs(est.mean - 1.0) < 6 * est.stderr

    def test_two_by_four(self):
        est = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(50_000, 2))
        assert est.method == "plain-mean"
        assert abs(z_against(est, 1.0)) < 4.0

    def test_one_by_three(self):
        est = montecarlo.estimate_pinv_moment(1, 3, 2.0, "frobenius", cfg(50_000, 3))
        assert abs(z_against(est, 0.5)) < 4.0

    def test_operator_norm_below_frobenius(self):
        frob = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(20_000, 4))
        op = montecarlo.estimate_pinv_moment(2, 4, 2.0, "operator", cfg(20_000, 4))
        assert op.mean < frob.mean

    def test_rejects_infinite_mean_range(self):
        with pytest.raises(ValueError, match="2\\(m-r\\+1\\)"):
            montecarlo.estimate_pinv_moment(2, 2, 2.0, "frobenius", cfg(10, 5))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            montecarlo.estimate_pinv_moment(1, 3, 2.0, "nuclear", cfg(10, 6))


class TestDetweightedRect:
    def test_integrand_identically_one(self):
        # r=1, n=2, alpha=2: ||A^+||^2 |det AA*| = 1 for every draw
        est = montecarlo.estimate_detweighted_rect(1, 2, 2.0, "frobenius", cfg(5_000, 7))
        assert est.mean == pytest.approx(1.0, abs=1e-12)
        assert est.stderr < 1e-12

    def test_integrand_identically_one_square(self):
        est = montecarlo.estimate_detweighted_rect(1, 1, 2.0, "frobenius", cfg(5_000, 8))
        assert est.mean == pytest.approx(1.0, abs=1e-12)

    def test_rect_identity_r2_n3(self):
        # Gamma(n-r+1)/Gamma(n+1) * E(||A^+||^a |det AA*|) = E(||M^+||^a)
        # over r x (n+1); closed form r/(m-r) = 1 fixes both sides
        lhs = montecarlo.estimate_detweighted_rect(2, 3, 2.0, "frobenius", cfg(100_000, 9))
        scale = math.exp(math.lgamma(2) - math.lgamma(4))
        assert abs(scale * lhs.mean - 1.0) <= 4 * scale * lhs.stderr


class TestDetweightedSquare:
    def test_trivial_r1_k1(self):
        est = montecarlo.estimate_detweighted_square(1, 1.0, 2.0, "frobenius", cfg(5_000, 10))
        assert est.mean == pytest.approx(1.0, abs=1e-12)

    def test_r2_k2(self):
        est = montecarlo.estimate_detweighted_square(2, 2.0, 2.0, "frobenius", cfg(100_000, 11))
        assert abs(z_against(est, 12.0)) < 4.0

    def test_r3_k1(self):
        est = montecarlo.estimate_detweighted_square(3, 1.0, 2.0, "frobenius", cfg(100_000, 12))
        assert abs(z_against(est, 18.0)) < 4.0


class TestGramEigenvalues:
    # the matrix estimators take s^2 as the eigenvalues of A A*; the batched
    # SVD of the same draws is the reference

    @pytest.mark.parametrize("r, m", [(1, 3), (2, 3), (2, 4), (3, 5), (2, 5),
                                      (1, 1), (2, 2), (3, 3), (4, 6)])
    def test_log_values_match_svd(self, r, m):
        a = complex_gaussian_array(RngStream(70, 10 * r + m), (4096, r, m))
        s = np.linalg.svd(a, compute_uv=False)
        lam = montecarlo._squared_singular_values(a)
        assert np.all(np.diff(lam, axis=1) >= 0)
        expected = {
            "frobenius": 0.5 * np.log(np.sum(s**-2.0, axis=1)),
            "operator": -np.log(s[:, -1]),
        }
        for norm, log_norm in expected.items():
            np.testing.assert_allclose(montecarlo._log_pinv_norm(lam, norm), log_norm,
                                       rtol=0, atol=1e-9)
        np.testing.assert_allclose(montecarlo._log_det_gram(lam),
                                   2.0 * np.sum(np.log(s), axis=1), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("r, m", [(2, 2), (2, 3), (3, 3), (3, 5), (4, 6)])
    def test_singular_draws_give_no_nan(self, r, m):
        # from r = 3 on, rounding makes about half of the repeated-row Gram
        # matrices' smallest eigenvalue negative
        a = complex_gaussian_array(RngStream(71, 10 * r + m), (4096, r, m))
        zero_row, repeated_row = a.copy(), a.copy()
        zero_row[:, 0] = 0
        repeated_row[:, -1] = a[:, 0]
        for singular in (zero_row, repeated_row):
            lam = montecarlo._squared_singular_values(singular)
            for norm in ("frobenius", "operator"):
                log_norm = montecarlo._log_pinv_norm(lam, norm)
                assert np.all(np.isfinite(log_norm) | (log_norm == math.inf))
            log_det = montecarlo._log_det_gram(lam)
            assert np.all(np.isfinite(log_det) | (log_det == -math.inf))


class TestEspnorm:
    def test_examples(self):
        est = montecarlo.estimate_espnorm(3, 4.0, cfg(100_000, 13))
        assert abs(z_against(est, 12.0)) < 4.0
        est = montecarlo.estimate_espnorm(4, 2.0, cfg(100_000, 14))
        assert abs(z_against(est, 4.0)) < 4.0

    def test_borderline_variance_switches_to_median_of_means(self):
        est = montecarlo.estimate_espnorm(2, -2.0, cfg(50_000, 15))
        assert est.method.startswith("median-of-means")
        assert abs(est.mean - 1.0) < 6 * est.stderr

    def test_rejects_pole(self):
        with pytest.raises(ValueError, match="-2n"):
            montecarlo.estimate_espnorm(2, -4.0, cfg(10, 16))


class TestEspnormrest:
    def test_beta_two(self):
        est = montecarlo.estimate_espnormrest(3, 1, 2.0, cfg(100_000, 17))
        assert abs(z_against(est, 8.0)) < 4.0

    def test_alpha_zero_beta_two(self):
        est = montecarlo.estimate_espnormrest(3, 0, 2.0, cfg(100_000, 18))
        assert abs(z_against(est, 2.0)) < 4.0

    def test_beta_zero_probe_refutes_closed_form(self):
        # the Monte Carlo mean sides with the binomial-sum form (3), not the
        # closed form (2)
        est = montecarlo.estimate_espnormrest(3, 1, 0.0, cfg(100_000, 19))
        forms = formulas.espnormrest_value(3, 1, 0.0)
        assert abs(z_against(est, forms.sum_form.value)) < 4.0
        assert abs(z_against(est, forms.closed_form.value)) > 5.0


class TestPolyMoment:
    def test_determined_d1_is_exactly_one(self):
        # mu is identically 1 for linear univariate systems
        est = montecarlo.estimate_poly_moment(
            1, (1,), 2.0, False, "frobenius", cfg(500, 20)
        )
        assert est.mean == pytest.approx(1.0, abs=1e-10)
        assert est.method.startswith("median-of-means")

    def test_determined_d2(self):
        est = montecarlo.estimate_poly_moment(
            1, (2,), 2.0, False, "frobenius", cfg(4_000, 21)
        )
        assert abs(est.mean - 2.0) < 5 * est.stderr

    def test_underdetermined_absolute(self):
        est = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "frobenius", cfg(1_500, 22, lines_per_system=8)
        )
        assert est.method == "plain-mean"
        assert abs(z_against(est, 2.5)) < 4.0

    def test_underdetermined_relative(self):
        est = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, True, "frobenius", cfg(1_500, 23, lines_per_system=8)
        )
        assert abs(z_against(est, 0.5)) < 4.0

    def test_operator_norm_coincides_at_single_equation(self):
        # a 1-row Jacobian has one singular value, so both norms of the
        # scaled pseudoinverse agree and the estimates are identical
        frob = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "frobenius", cfg(300, 27, lines_per_system=4)
        )
        op = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "operator", cfg(300, 27, lines_per_system=4)
        )
        assert frob.mean == op.mean

    def test_alpha_range_named_in_error(self):
        with pytest.raises(ValueError, match="2\\(n-r\\+2\\)"):
            montecarlo.estimate_poly_moment(1, (2,), 5.0, False, "frobenius", cfg(10, 24))

    def test_multi_equation_rejected(self):
        with pytest.raises(ValueError, match="r = 1"):
            montecarlo.estimate_poly_moment(2, (1, 1), 2.0, False, "frobenius", cfg(10, 25))

    def test_root_failure_rate_aborts_with_diagnostic(self, monkeypatch):
        from condmoments.cxla import NumericError

        real = roots.sample_zero_sets

        def always_fail(seed, systems, n, d, lines):
            coeffs, pts, failed = real(seed, systems, n, d, lines)
            return coeffs, pts, np.ones_like(failed)

        monkeypatch.setattr(montecarlo.roots, "sample_zero_sets", always_fail)
        with pytest.raises(NumericError, match="rate exceeds"):
            montecarlo.estimate_poly_moment(2, (2,), 2.0, False, "frobenius", cfg(100, 26))

    def test_failure_rate_counts_systems_not_lines(self, monkeypatch):
        # 4 of 1000 systems (0.4%) fail: over the 0.1% limit, although 4 is
        # under 0.1% of the 8000 lines
        from condmoments.cxla import NumericError

        real = roots.sample_zero_sets

        def fail_every_250th(seed, systems, n, d, lines):
            coeffs, pts, failed = real(seed, systems, n, d, lines)
            return coeffs, pts, failed | (np.asarray(systems) % 250 == 0)

        monkeypatch.setattr(montecarlo.roots, "sample_zero_sets", fail_every_250th)
        with pytest.raises(NumericError, match="4 of 1000 systems"):
            montecarlo.estimate_poly_moment(
                2, (2,), 2.0, False, "frobenius", cfg(1000, 26, lines_per_system=8)
            )


def poly_log_values(monkeypatch, chunk_points, *args):
    """Per-system log-values of estimate_poly_moment(*args) at a chunk size."""
    seen = []
    reduce = montecarlo._reduce_log_values
    monkeypatch.setattr(montecarlo, "CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(montecarlo, "_reduce_log_values",
                        lambda logv, heavy: seen.append(logv) or reduce(logv, heavy))
    montecarlo.estimate_poly_moment(*args)
    return seen[0]


class TestPolyBatching:
    @pytest.mark.parametrize("n, d, lines", [(1, 3, 1), (2, 2, 8), (3, 2, 3)])
    def test_chunk_size_leaves_per_system_values_unchanged(self, monkeypatch, n, d, lines):
        args = (n, (d,), 2.0, False, "frobenius", cfg(60, 40, lines_per_system=lines))
        default = poly_log_values(monkeypatch, montecarlo.CHUNK_POINTS, *args)
        for systems in (1, 7):
            chunked = poly_log_values(monkeypatch, systems * lines * (d + 4), *args)
            np.testing.assert_allclose(chunked, default, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, d, lines, relative", [(1, 2, 1, False), (2, 3, 4, False),
                                                        (3, 2, 2, True)])
    def test_sample_variety_points_reproduces_system_values(self, monkeypatch, n, d, lines,
                                                             relative):
        seed, alpha = 41, 1.5
        for norm in ("frobenius", "operator"):
            logv = poly_log_values(monkeypatch, montecarlo.CHUNK_POINTS, n, (d,), alpha,
                                   relative, norm, cfg(6, seed, lines_per_system=lines))
            for j in range(6):
                rng = RngStream(seed, j)
                h = gaussian_system(rng, n, (d,))
                pts = roots.sample_variety_points(h, rng, lines)
                expected = conditioning.empirical_moment(h, pts, alpha, relative, norm)
                assert math.log(expected) == pytest.approx(logv[j], abs=1e-12)


class TestDeterminism:
    def test_bitwise_replay(self):
        a = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(10_000, 30))
        b = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(10_000, 30))
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_poly_bitwise_replay(self):
        a = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "frobenius", cfg(500, 35, lines_per_system=4))
        b = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "frobenius", cfg(500, 35, lines_per_system=4))
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_seed_changes_results(self):
        a = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(5_000, 33))
        b = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(5_000, 34))
        assert a.mean != b.mean


class TestCompare:
    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_gate_that_is_not_finite_positive(self, tolerance):
        est = montecarlo.EstimateResult(1.0, 0.01, 100, "plain-mean", 0, "x", {})
        cf = formulas.FormulaValue(1.0, 0.0, "unit", {})
        with pytest.raises(ValueError, match="finite and positive"):
            montecarlo.compare(est, cf, tolerance)
        with pytest.raises(ValueError, match="finite and positive"):
            montecarlo.compare_pair(est, est, tolerance)

    def test_zero_z(self):
        est = montecarlo.EstimateResult(1.0, 0.01, 100, "plain-mean", 0, "x", {})
        cf = formulas.FormulaValue(1.0, 0.0, "unit", {})
        comp = montecarlo.compare(est, cf, 3.0)
        assert comp.z_score == pytest.approx(0.0)
        assert comp.passed

    def test_five_sigma_fails_at_three(self):
        est = montecarlo.EstimateResult(1.05, 0.01, 100, "plain-mean", 0, "x", {})
        cf = formulas.FormulaValue(1.0, 0.0, "unit", {})
        comp = montecarlo.compare(est, cf, 3.0)
        assert comp.z_score == pytest.approx(5.0)
        assert not comp.passed

    def test_zero_dispersion_mismatch_is_infinite_z(self):
        est = montecarlo.EstimateResult(1.5, 0.0, 100, "plain-mean", 0, "x", {})
        cf = formulas.FormulaValue(1.0, 0.0, "unit", {})
        comp = montecarlo.compare(est, cf, 3.0)
        assert math.isinf(comp.z_score)
        assert not comp.passed

    def test_zero_dispersion_exact_match_passes(self):
        est = montecarlo.EstimateResult(1.0, 0.0, 100, "plain-mean", 0, "x", {})
        cf = formulas.FormulaValue(1.0, 0.0, "unit", {})
        assert montecarlo.compare(est, cf, 3.0).passed

    def test_pair_combines_dispersion(self):
        lhs = montecarlo.EstimateResult(2.0, 0.03, 100, "plain-mean", 0, "x", {})
        rhs = montecarlo.EstimateResult(0.98, 0.02, 100, "plain-mean", 0, "y", {})
        comp = montecarlo.compare_pair(lhs, rhs, 3.0, rhs_scale=2.0)
        sigma = math.hypot(0.03, 2.0 * 0.02)
        assert comp.z_score == pytest.approx((2.0 - 1.96) / sigma)
        assert comp.reference_value == pytest.approx(1.96)


class TestPairIdentities:
    @pytest.mark.parametrize("norm", ["frobenius", "operator"])
    @pytest.mark.parametrize("r, n", [(1, 2), (2, 3), (2, 4)])
    def test_rect_fibration_property(self, norm, r, n):
        # scaled determinant-weighted rectangular mean equals the plain
        # pseudoinverse moment one column up, for both norms
        seed = 40 + 10 * r + n + (100 if norm == "operator" else 0)
        lhs = montecarlo.estimate_detweighted_rect(r, n, 2.0, norm, cfg(100_000, seed))
        rhs = montecarlo.estimate_pinv_moment(
            r, n + 1, 2.0, norm, cfg(100_000, seed + 1000)
        )
        scale = math.exp(math.lgamma(n - r + 1) - math.lgamma(n + 1))
        comp = montecarlo.compare_pair(lhs, rhs, 3.0, lhs_scale=scale)
        assert comp.passed, (norm, r, n, comp.z_score)

    @pytest.mark.parametrize("r, n", [(1, 2), (2, 3)])
    def test_kernel_fibration_property(self, r, n):
        # E ||M^+||_F^2 over r x n equals the Grassmannian-weighted square
        # moment with determinant exponent 2(n-r)
        seed = 50 + 10 * r + n
        lhs = montecarlo.estimate_pinv_moment(r, n, 2.0, "frobenius", cfg(100_000, seed))
        rhs = montecarlo.estimate_detweighted_square(
            r, float(n - r), 2.0, "frobenius", cfg(100_000, seed + 1000)
        )
        scale = math.exp(
            sum(math.lgamma(i) - math.lgamma(r + i) for i in range(1, n - r + 1))
        )
        comp = montecarlo.compare_pair(lhs, rhs, 3.0, rhs_scale=scale)
        assert comp.passed, (r, n, comp.z_score)

    def test_scaling_identity_determined_quadratic(self):
        # absolute = (N - 1) * relative at n = r = 1, d = 2
        lhs = montecarlo.estimate_poly_moment(1, (2,), 2.0, False, "frobenius", cfg(4_000, 60))
        rhs = montecarlo.estimate_poly_moment(1, (2,), 2.0, True, "frobenius", cfg(4_000, 61))
        comp = montecarlo.compare_pair(lhs, rhs, 4.0, rhs_scale=2.0)
        assert comp.passed, comp.z_score
