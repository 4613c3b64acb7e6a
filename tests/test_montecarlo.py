import decimal
import math
import platform
import re
from fractions import Fraction

import numpy as np
import pytest

from condmoments import bwspace, conditioning, formulas, montecarlo, randgeom, roots
from condmoments.montecarlo import EstimatorConfig
from condmoments.randgeom import (RngStream, complex_gaussian_array, gaussian_gram,
                                  gaussian_system, unitary_from_ginibre)


def cfg(samples, seed, **kw):
    return EstimatorConfig(samples=samples, seed=seed, **kw)


def z_against(est, value):
    return (est.mean - value) / est.stderr


def two_sample_z(x, y):
    return (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)


def svd_log_values(a):
    """log ||A^+||_F, log ||A^+||_op and log det(A A*) of a stack of r x m
    matrices A, from their batched SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore"):
        return {"frobenius": 0.5 * np.log(np.sum(s**-2.0, axis=1)),
                "operator": -np.log(s[:, -1]),
                "det": 2.0 * np.sum(np.log(s), axis=1)}


def factor_log_values(a):
    """The same three log-values as the estimators read them off the
    Bartlett factor of A A*."""
    sq, phased = factor_of(a)
    return {"frobenius": montecarlo._log_pinv_norm(sq, phased, "frobenius"),
            "operator": montecarlo._log_pinv_norm(sq, phased, "operator"),
            "det": montecarlo._log_det(sq)}


def _phase(z):
    """z / |z|, and 1 where z = 0."""
    mod = np.abs(z)
    return np.divide(z, mod, out=np.ones_like(z), where=mod > 0)


def factor_of(a):
    """The Bartlett factor of A A* for a stack of r x m matrices A, as
    randgeom.gaussian_gram returns it (sq, phased).

    L = R* for the QR factorization A* = QR, with the phases of its diagonal
    moved into Q (L -> L D) and those of its column 0 moved out (L -> D L D*),
    as TestBartlettLaw does: A A* keeps its eigenvalues, tr (A A*)^-1 and det.
    """
    _, rr = np.linalg.qr(np.conj(np.swapaxes(a, -1, -2)))
    ell = np.conj(np.swapaxes(rr, -1, -2))
    ell = ell * np.conj(_phase(np.diagonal(ell, axis1=-2, axis2=-1)))[:, None, :]
    d = np.conj(_phase(ell[:, :, 0]))
    ell = d[:, :, None] * ell * np.conj(d)[:, None, :]
    r = a.shape[1]
    sq = {(i, k): np.abs(ell[:, i, k]) ** 2 for i in range(r) for k in range(i + 1)}
    phased = {(i, k): ell[:, i, k] for i in range(r) for k in range(1, i)}
    return sq, phased


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

    def test_operator_norm_two_by_four(self):
        # E ||A^+||_op^2 = E 1/lambda_min(A A*) = 13/16 over 2 x 4 matrices,
        # from the 2 x 2 Laguerre eigenvalue density (quadrature: 0.81248)
        est = montecarlo.estimate_pinv_moment(2, 4, 2.0, "operator", cfg(100_000, 28))
        assert est.method == "plain-mean"
        assert abs(z_against(est, 13 / 16)) < 4.0

    def test_operator_norm_below_frobenius(self):
        frob = montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(20_000, 4))
        op = montecarlo.estimate_pinv_moment(2, 4, 2.0, "operator", cfg(20_000, 4))
        assert op.mean < frob.mean

    def test_rejects_infinite_mean_range(self):
        with pytest.raises(ValueError, match="alpha < 2 for a finite mean"):
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

    @pytest.mark.parametrize("r, k", [(1, 1.0), (2, 1.0), (1, 0.25), (3, 1.5)])
    def test_alpha_bound_is_the_finite_mean_edge(self, r, k):
        # X^(k - alpha/2) with X ~ Exp(1): a finite mean only below 2k + 2
        for alpha in (2 * k + 1.999, math.nextafter(2 * k + 2, 0)):
            assert montecarlo.detweighted_square_domain(r, k, alpha, "frobenius")
        for alpha in (2 * k + 2, 2 * k + 2.5, 4 * k + 1.9):
            edge = re.escape(f"alpha < {2 * k + 2} for a finite mean")
            with pytest.raises(ValueError, match=edge):
                montecarlo.detweighted_square_domain(r, k, alpha, "frobenius")

    def test_r1_k1_alpha_above_the_edge_refused(self):
        # once admitted (alpha < 4k + 2), with an estimate that grew with the draws
        with pytest.raises(ValueError, match="finite mean"):
            montecarlo.estimate_detweighted_square(1, 1.0, 4.5, "frobenius", cfg(1_000, 13))


class TestGramEigenvalues:
    # the integrands depend on A only through the eigenvalues of G = A A*,
    # which the estimators read off its Bartlett factor; the batched SVD of
    # the same draws is the reference

    @pytest.mark.parametrize("r, m", [(1, 3), (2, 3), (2, 4), (3, 5), (2, 5),
                                      (1, 1), (2, 2), (3, 3), (4, 6)])
    def test_log_values_match_svd(self, r, m):
        a = complex_gaussian_array(RngStream(70, 10 * r + m), (4096, r, m))
        log_values, expected = factor_log_values(a), svd_log_values(a)
        for key in ("frobenius", "operator", "det"):
            np.testing.assert_allclose(log_values[key], expected[key], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("r, m", [(2, 2), (2, 3), (3, 3), (3, 5), (4, 6)])
    def test_singular_draws_give_no_nan(self, r, m):
        # a zero row leaves L_00 = 0; a repeated row leaves L's last diagonal
        # entry at rounding level, negative in about half the Gram matrices'
        # eigenvalues from r = 3 on
        a = complex_gaussian_array(RngStream(71, 10 * r + m), (4096, r, m))
        zero_row, repeated_row = a.copy(), a.copy()
        zero_row[:, 0] = 0
        repeated_row[:, -1] = a[:, 0]
        for singular in (zero_row, repeated_row):
            log_values = factor_log_values(singular)
            for norm in ("frobenius", "operator"):
                assert np.all(np.isfinite(log_values[norm]) | (log_values[norm] == math.inf))
            assert np.all(np.isfinite(log_values["det"]) | (log_values["det"] == -math.inf))


class TestClosedFormGramEigenvalues:
    # lambda_min(G) as the operator norm reads it off the factor: a closed
    # form in |L_00|^2, |L_10|^2, |L_11|^2 at r = 2, the SVD of L otherwise.
    # eigvalsh of G and the batched SVD of the same draws are the references

    @staticmethod
    def smallest_eigenvalue(a):
        sq, phased = factor_of(a)
        return np.exp(-2.0 * montecarlo._log_pinv_norm(sq, phased, "operator"))

    @pytest.mark.parametrize("r, m", [(1, 3), (2, 2), (2, 5), (3, 3), (3, 5), (4, 6)])
    def test_matches_eigvalsh_and_svd(self, r, m):
        a = complex_gaussian_array(RngStream(72, 10 * r + m), (4096, r, m))
        lam_min = self.smallest_eigenvalue(a)
        assert lam_min.shape == (4096,)
        gram = np.einsum("nij,nkj->nik", a, a.conj())
        lam = np.linalg.eigvalsh(gram)
        np.testing.assert_allclose(np.log(lam_min), np.log(lam[:, 0]), rtol=0, atol=1e-9)
        np.testing.assert_allclose(montecarlo._log_det(factor_of(a)[0]),
                                   np.sum(np.log(lam), axis=1), rtol=0, atol=1e-9)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(np.log(lam_min), 2.0 * np.log(s[:, -1]), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("r, m", [(2, 2), (2, 4), (3, 3), (3, 5)])
    def test_zero_draw_gives_zero_not_nan(self, r, m):
        a = np.zeros((3, r, m), dtype=complex)
        assert np.all(self.smallest_eigenvalue(a) == 0.0)
        log_values = factor_log_values(a)
        for norm in ("frobenius", "operator"):
            assert np.all(log_values[norm] == math.inf)
        assert np.all(log_values["det"] == -math.inf)

    @pytest.mark.parametrize("r, m", [(2, 2), (2, 4), (3, 3), (3, 5)])
    def test_repeated_eigenvalues(self, r, m):
        # A = c [I | 0]: every eigenvalue is |c|^2, where the r = 2 form's
        # hypot is 0; compared in log space, where 1e+-150 stays normal
        for c in (1.0, 0.1, 3.7, 2.3j, 1e-150, 1e150):
            a = np.zeros((1, r, m), dtype=complex)
            a[0, :, :r] = c * np.eye(r)
            sq, phased = factor_of(a)
            np.testing.assert_allclose(montecarlo._log_pinv_norm(sq, phased, "operator"),
                                       [-math.log(abs(c))], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("m_extra", [0, 2])
    @pytest.mark.parametrize("sv", [(1.0, 1e-6), (1.0, 1e-3, 1e-6), (1.0, 1.0, 1e-6),
                                    (1.0, 1e-6, 1e-6), (1.0, 1e-2, 1.0001e-2)])
    def test_ill_conditioned_draws_match_svd(self, sv, m_extra):
        # kappa(A) = 1e6 with the small singular values spread, paired or
        # alone, and two nearly equal ones; at scales 1e-150 and 1e150 a
        # product of two of G's entries would underflow or overflow
        r = len(sv)
        m = r + m_extra
        rng = RngStream(73, 10 * r + m)
        u = unitary_from_ginibre(complex_gaussian_array(rng, (512, r, r)))
        v = unitary_from_ginibre(complex_gaussian_array(rng, (512, m, m)))[:, :r]
        a = np.einsum("nij,j,njk->nik", u, np.array(sv), v)
        for scale in (1e-150, 1.0, 1e150):
            lam_min = self.smallest_eigenvalue(scale * a)
            # within a few eps * lambda_max, as with eigvalsh ...
            s2 = np.linalg.svd(scale * a, compute_uv=False) ** 2
            assert np.all(np.abs(lam_min - s2[:, -1]) <= 32 * np.finfo(float).eps * s2[:, 0])
            # ... so good to 32 eps kappa^2 = 7e-3 relative
            np.testing.assert_allclose(lam_min, (scale * sv[-1]) ** 2, rtol=1e-2)


def _full_gram_draws(seed, samples, r, m):
    """montecarlo._draws from the full Gaussian draws A of the block's stream:
    the Bartlett factor of A A* by QR."""
    a = complex_gaussian_array(montecarlo._block_rng(seed, samples), (len(samples), r, m))
    return factor_of(a)


def _full_vector_draws(seed, samples, n):
    """montecarlo._vector_draws from the full Gaussian draws of the block's stream."""
    v = complex_gaussian_array(montecarlo._block_rng(seed, samples), (len(samples), n))
    return np.abs(v) ** 2


def _exact_trace_inverse(ell):
    """||L^-1||_F^2 of one lower-triangular complex matrix L, in exact rational
    arithmetic on its float entries (forward substitution, complex numbers as
    pairs of fractions)."""
    r = ell.shape[0]
    entry = [[(Fraction(ell[i, k].real), Fraction(ell[i, k].imag)) for k in range(r)]
             for i in range(r)]

    def div(x, y):
        den = y[0] ** 2 + y[1] ** 2
        return (x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den

    total = Fraction(0)
    for j in range(r):
        x = {j: div((Fraction(1), Fraction(0)), entry[j][j])}
        for i in range(j + 1, r):
            re = -sum(entry[i][k][0] * x[k][0] - entry[i][k][1] * x[k][1] for k in range(j, i))
            im = -sum(entry[i][k][0] * x[k][1] + entry[i][k][1] * x[k][0] for k in range(j, i))
            x[i] = div((re, im), entry[i][i])
        total += sum(re * re + im * im for re, im in x.values())
    return total


def _exact_log(q):
    """log of a positive fraction, without rounding it to a float first."""
    return math.log(q.numerator) - math.log(q.denominator)


class TestFactorPath:
    # the estimators read log tr G^-1 (forward substitution), log det G
    # (sum log |L_ii|^2) and log lambda_min(G) (sigma_min(L)) off the
    # Bartlett factor L of G = A A*, never forming G.  Products of two
    # diagonal entries, (a + b + c) / (a c) at r = 2, would overflow or
    # underflow at scales 1e+-100

    SCALES = (1e-100, 1.0, 1e100)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("r, m", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5),
                                      (4, 4), (4, 6)])
    def test_matches_svd_of_full_draws(self, r, m, scale):
        a = scale * complex_gaussian_array(RngStream(81, 10 * r + m), (1024, r, m))
        s2 = np.linalg.svd(a, compute_uv=False) ** 2
        sq, phased = factor_of(a)
        np.testing.assert_allclose(montecarlo._log_trace_inverse(sq, phased),
                                   np.log(np.sum(1.0 / s2, axis=1)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(montecarlo._log_det(sq), np.sum(np.log(s2), axis=1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(montecarlo._log_pinv_norm(sq, phased, "operator"),
                                   -0.5 * np.log(s2[:, -1]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("sv", [(1.0, 1e-6), (1.0, 1e-3, 1e-6), (1.0, 1.0, 1e-6),
                                    (1.0, 1e-6, 1e-6), (1.0, 1e-2, 1e-4, 1e-6),
                                    (1.0, 1.0, 1.0, 1e-6)])
    def test_ill_conditioned_draws(self, sv, scale):
        # kappa(A) = 1e6.  The full draw's SVD is then itself only good to
        # about eps kappa relative (5e-10 measured), so it is held to that,
        # and the 1e-12 reference is the exact value for the factor read
        r, count = len(sv), 16
        m = r + 1
        rng = RngStream(82, 10 * r + len(set(sv)))
        u = unitary_from_ginibre(complex_gaussian_array(rng, (count, r, r)))
        v = unitary_from_ginibre(complex_gaussian_array(rng, (count, m, m)))[:, :r]
        a = scale * np.einsum("nij,j,njk->nik", u, np.array(sv), v)
        sq, phased = factor_of(a)
        log_tr, log_det = montecarlo._log_trace_inverse(sq, phased), montecarlo._log_det(sq)
        ell = np.zeros((count, r, r), dtype=complex)
        for (i, k), x in sq.items():
            ell[:, i, k] = phased[i, k] if (i, k) in phased else np.sqrt(x)
        exact_tr = [_exact_log(_exact_trace_inverse(ell[n])) for n in range(count)]
        exact_det = [_exact_log(math.prod(Fraction(sq[i, i][n]) for i in range(r)))
                     for n in range(count)]
        np.testing.assert_allclose(log_tr, exact_tr, rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_det, exact_det, rtol=0, atol=1e-12)
        s2 = np.linalg.svd(a, compute_uv=False) ** 2
        svd_accuracy = 64 * np.finfo(float).eps * max(sv) / min(sv)
        assert np.all(np.abs(log_tr - np.log(np.sum(1.0 / s2, axis=1))) <= svd_accuracy)
        assert np.all(np.abs(log_det - np.sum(np.log(s2), axis=1)) <= svd_accuracy)
        # lambda_min within a few eps * lambda_max, as with eigvalsh
        lam_min = np.exp(-2.0 * montecarlo._log_pinv_norm(sq, phased, "operator"))
        assert np.all(np.abs(lam_min - s2[:, -1]) <= 32 * np.finfo(float).eps * s2[:, 0])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_zero_diagonal_gives_inf_not_nan(self, r):
        # the singular-draw rule: tr G^-1 = 1 / lambda_min = +inf and
        # log det G = -inf, never NaN, whichever L_ii is 0, and for the
        # all-zero factor, where the r = 2 forms meet 0/0
        sq, phased = gaussian_gram(RngStream(83, r), 64, r, r + 1)
        even = np.arange(64) % 2 == 0
        factors = [({**sq, (i, i): np.where(even, 0.0, sq[i, i])}, phased) for i in range(r)]
        zero = ({key: np.zeros(64) for key in sq},
                {key: np.zeros(64, dtype=complex) for key in phased})
        cases = [*((factor, even) for factor in factors), (zero, np.full(64, True))]
        for (sq_i, phased_i), singular in cases:
            log_tr = montecarlo._log_trace_inverse(sq_i, phased_i)
            log_op = montecarlo._log_pinv_norm(sq_i, phased_i, "operator")
            log_det = montecarlo._log_det(sq_i)
            for log_inverse in (log_tr, log_op):
                assert np.all(log_inverse[singular] == math.inf)
                assert np.all(np.isfinite(log_inverse[~singular]))
            assert np.all(log_det[singular] == -math.inf)
            assert np.all(np.isfinite(log_det[~singular]))
        assert np.all(np.isfinite(montecarlo._log_trace_inverse(sq, phased)))
        assert np.all(np.isfinite(montecarlo._log_pinv_norm(sq, phased, "operator")))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_nan_entry_gives_nan(self, r):
        # a NaN draw stays NaN, for the failure rule to count, and the SVD
        # that would not converge on it never sees it
        sq, phased = gaussian_gram(RngStream(84, r), 8, r, r + 1)
        sq[r - 1, 0] = np.where(np.arange(8) == 3, math.nan, sq[r - 1, 0])
        for norm in ("frobenius", "operator"):
            log_norm = montecarlo._log_pinv_norm(sq, phased, norm)
            assert np.isnan(log_norm[3])
            assert np.all(np.isfinite(np.delete(log_norm, 3)))

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_operator_r2_matches_exact(self, scale):
        # -log sigma_min(L) at r = 2 against its 60-digit value on the same
        # factor entries, for kappa(A) = 1e3 to 1e7.  Forming det G =
        # G_00 G_11 - |G_01|^2 loses kappa^2 eps to cancellation
        count = 16
        rng = RngStream(85, 2)
        u = unitary_from_ginibre(complex_gaussian_array(rng, (count, 2, 2)))
        v = unitary_from_ginibre(complex_gaussian_array(rng, (count, 3, 3)))[:, :2]
        for kappa in (1e3, 1e4, 1e5, 1e6, 1e7):
            a = scale * np.einsum("nij,j,njk->nik", u, np.array([1.0, 1.0 / kappa]), v)
            sq, phased = factor_of(a)
            log_op = montecarlo._log_pinv_norm(sq, phased, "operator")
            with decimal.localcontext(prec=60):
                exact = []
                for n in range(count):
                    a, b, c = (decimal.Decimal(sq[key][n]) for key in [(0, 0), (1, 0), (1, 1)])
                    high = (a + b + c + ((a - b - c) ** 2 + 4 * a * b).sqrt()) / 2
                    exact.append(float((high.ln() - a.ln() - c.ln()) / 2))
            np.testing.assert_allclose(log_op, exact, rtol=1e-13, atol=0)


class TestGaugeFixedDraws:
    # the matrix estimators draw the Gram matrix A A* through the Bartlett
    # factor L, with L's column 0 made real (L -> D L D*), and vectors as
    # their squared moduli.  Vectors and single rows match the full draw of
    # the same stream up to rounding; from r = 2 on the draws match the full
    # draws in law, checked by a two-sample z on independent streams

    @pytest.mark.parametrize("r, m", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (2, 5),
                                      (3, 3), (3, 5), (4, 4), (4, 6)])
    def test_gram_log_values_match_full_draws(self, r, m):
        count = 8192
        full = complex_gaussian_array(RngStream(74, 10 * r + m), (count, r, m))
        full_values = svd_log_values(full)
        stream = 74 if r == 1 else 75
        sq, phased = gaussian_gram(RngStream(stream, 10 * r + m), count, r, m)
        # log tr G^-1, log lambda_min and log det G: all of finite variance
        pairs = [(montecarlo._log_pinv_norm(sq, phased, norm), full_values[norm])
                 for norm in ("frobenius", "operator")]
        pairs.append((montecarlo._log_det(sq), full_values["det"]))
        for fixed, ref in pairs:
            if r == 1:
                np.testing.assert_allclose(fixed, ref, rtol=0, atol=1e-9)
            else:
                assert abs(two_sample_z(fixed, ref)) < 4.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vector_norms_match_full_draws(self, n):
        full = complex_gaussian_array(RngStream(75, n), (4096, n))
        sq = randgeom.gaussian_squared_moduli(RngStream(75, n), (4096, n))
        for k in (n, n - 1):
            np.testing.assert_allclose(np.sqrt(np.sum(sq[:, :k], axis=1)),
                                       np.linalg.norm(full[:, :k], axis=1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("estimate, params", [
        (montecarlo.estimate_pinv_moment, (3, 5, 2.0, "operator")),
        (montecarlo.estimate_detweighted_rect, (2, 3, 2.0, "frobenius")),
        (montecarlo.estimate_detweighted_square, (2, 1.0, 2.0, "frobenius")),
        (montecarlo.estimate_espnorm, (2, -2.0)),
        (montecarlo.estimate_espnormrest, (3, 1, 2.0)),
    ])
    def test_estimates_match_full_draws(self, monkeypatch, estimate, params):
        vector = estimate in (montecarlo.estimate_espnorm, montecarlo.estimate_espnormrest)
        fixed = estimate(*params, cfg(5_000, 76))
        calls = []

        def recorded(draws):
            def wrapper(*args):
                calls.append(draws.__name__)
                return draws(*args)
            return wrapper

        monkeypatch.setattr(montecarlo, "_draws", recorded(_full_gram_draws))
        monkeypatch.setattr(montecarlo, "_vector_draws", recorded(_full_vector_draws))
        full = estimate(*params, cfg(5_000, 76 if vector else 77))
        # two blocks, both from the patched full draws
        assert calls == 2 * ["_full_vector_draws" if vector else "_full_gram_draws"]
        assert fixed.method == full.method
        if vector:
            assert fixed.mean == pytest.approx(full.mean, rel=1e-12, abs=0)
            assert fixed.stderr == pytest.approx(full.stderr, rel=1e-12, abs=0)
        else:
            assert abs(fixed.mean - full.mean) < 4.0 * math.hypot(fixed.stderr, full.stderr)


class TestMatrixNumericFailure:
    def test_nan_log_value_raises(self, monkeypatch):
        # a NaN draw must stop the estimate with its count, not reach the
        # reduction as a mean of NaN
        from condmoments.conditioning import NumericError

        real = montecarlo._draws

        def one_nan_row(seed, samples, r, m):
            sq, phased = real(seed, samples, r, m)
            sq[1, 1][7] = math.nan
            return sq, phased

        monkeypatch.setattr(montecarlo, "_draws", one_nan_row)
        with pytest.raises(NumericError, match="pinv_moment: 2 of 5000 draws"):
            montecarlo.estimate_pinv_moment(2, 4, 2.0, "frobenius", cfg(5_000, 3))


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
        with pytest.raises(ValueError, match="alpha > -4 for a finite mean"):
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

    def test_projected_norm_singularity_switches_to_median_of_means(self):
        # E(||v||^4 ||P v||^-5) is infinite in C^3: beta <= 1 - n
        assert montecarlo.espnormrest_domain(3, 1, -2.5)
        assert not montecarlo.espnormrest_domain(3, 1, -1.5)
        est = montecarlo.estimate_espnormrest(3, 1, -2.5, cfg(20_000, 24))
        assert est.method.startswith("median-of-means")


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
        with pytest.raises(ValueError, match="alpha < 4 for a finite mean"):
            montecarlo.estimate_poly_moment(1, (2,), 5.0, False, "frobenius", cfg(10, 24))

    def test_multi_equation_rejected(self):
        with pytest.raises(ValueError, match="r = 1"):
            montecarlo.estimate_poly_moment(2, (1, 1), 2.0, False, "frobenius", cfg(10, 25))

    def test_root_failure_rate_aborts_with_diagnostic(self, monkeypatch):
        from condmoments.conditioning import NumericError

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
        from condmoments.conditioning import NumericError

        real = roots.sample_zero_sets

        def fail_every_250th(seed, systems, n, d, lines):
            coeffs, pts, failed = real(seed, systems, n, d, lines)
            return coeffs, pts, failed | (np.asarray(systems) % 250 == 0)

        monkeypatch.setattr(montecarlo.roots, "sample_zero_sets", fail_every_250th)
        with pytest.raises(NumericError, match="4 of 1000 systems"):
            montecarlo.estimate_poly_moment(
                2, (2,), 2.0, False, "frobenius", cfg(1000, 26, lines_per_system=8)
            )

    def test_restriction_residual_fails_one_system(self, monkeypatch):
        # system 500's restricted forms, the rows of coeffs @ R that are its
        # own, are off by 1, so its points are roots of the wrong forms: the
        # zero check against h drops the system, which is counted as one
        # failure instead of aborting the run
        seed = 26
        bad = gaussian_system(RngStream(seed, 500), 2, (2,)).coords[0]
        bad_forms = (bad @ roots._restriction(2, 2, 8)).reshape(8, 3)
        real = roots._line_points

        def corrupt(forms, u, v):
            hit = np.all(np.isclose(forms, bad_forms, rtol=1e-12, atol=0), axis=(1, 2))
            assert u.shape == (8, 3) and hit.sum() <= 1
            return real(forms + hit[:, None, None], u, v)

        monkeypatch.setattr(roots, "_line_points", corrupt)
        est = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "frobenius", cfg(1000, seed, lines_per_system=8)
        )
        assert est.n_samples == 999

    def test_zero_residual_precondition_fails_one_system(self, monkeypatch):
        # a point of system 500 is moved off the zero set, to e_0: the system is
        # counted as one failure instead of a ValueError aborting the run
        real = roots.sample_zero_sets

        def move_a_point(seed, systems, n, d, lines):
            coeffs, pts, failed = real(seed, systems, n, d, lines)
            if 500 in systems:
                pts[systems.index(500), 0] = np.eye(n + 1)[0]
            return coeffs, pts, failed

        monkeypatch.setattr(montecarlo.roots, "sample_zero_sets", move_a_point)
        est = montecarlo.estimate_poly_moment(
            2, (2,), 2.0, False, "frobenius", cfg(1000, 26, lines_per_system=8)
        )
        assert est.n_samples == 999


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
            chunked = poly_log_values(monkeypatch, systems * lines * (d + 1), *args)
            np.testing.assert_allclose(chunked, default, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, d, lines, relative", [(1, 2, 1, False), (2, 3, 4, False),
                                                        (3, 2, 2, True)])
    def test_line_roots_reproduce_system_values(self, monkeypatch, n, d, lines, relative):
        # system j's value is mu^alpha averaged over its roots on the
        # estimator's lines, found here one line at a time, each in a Haar
        # chart of C^2 (binary_form_roots): at n >= 2 the fixed lines, restricted
        # by restrict_to_line; at n = 1 the whole space
        seed, alpha = 41, 1.5
        for norm in ("frobenius", "operator"):
            logv = poly_log_values(monkeypatch, montecarlo.CHUNK_POINTS, n, (d,), alpha,
                                   relative, norm, cfg(6, seed, lines_per_system=lines))
            for j in range(6):
                rng = RngStream(seed, j)
                h = gaussian_system(rng, n, (d,))
                if n == 1:
                    pts = roots.binary_form_roots(h, rng)
                else:
                    pts = np.concatenate([
                        roots.binary_form_roots(roots.restrict_to_line(h, u, v), rng)
                        @ np.stack([u, v]) for u, v in zip(*roots._fixed_frames(n, lines))])
                scale = bwspace.bw_norm(h) ** alpha if relative else 1.0
                expected = np.mean([conditioning.mu(h, x, norm) ** alpha / scale for x in pts])
                assert math.log(expected) == pytest.approx(logv[j], abs=1e-12)


_RANGE_CASES = [
    # (estimator id, args, lines per system, samples per range)
    ("pinv_moment", (1, 3, 2.0, "frobenius"), 8, montecarlo.BLOCK_SAMPLES),
    ("detweighted_rect", (1, 2, 2.0, "frobenius"), 8, montecarlo.BLOCK_SAMPLES),
    ("detweighted_square", (1, 1.0, 2.0, "frobenius"), 8, montecarlo.BLOCK_SAMPLES),
    ("espnorm", (3, 4.0), 8, montecarlo.BLOCK_SAMPLES),
    ("espnormrest", (3, 1, 2.0), 8, montecarlo.BLOCK_SAMPLES),
    # 8192 points in ranges of lines * (d + 1) points a system, one line at n = 1
    ("poly_moment", (1, (2,), 2.0, False, "frobenius"), 1, 2730),
    ("poly_moment", (1, (2,), 2.0, False, "frobenius"), 8, 2730),
    ("poly_moment", (2, (2,), 2.0, False, "frobenius"), 1, 2730),
    ("poly_moment", (2, (2,), 2.0, False, "frobenius"), 8, 341),
]


class TestRanges:
    """montecarlo.ranges, which sizes verify's fan-out, counts the log_values
    calls _sample makes."""

    def test_every_estimator_is_covered(self):
        estimators = {name.removeprefix("estimate_") for name in dir(montecarlo)
                      if name.startswith("estimate_")}
        assert {case[0] for case in _RANGE_CASES} == estimators

    @pytest.mark.parametrize("estimator_id, args, lines, step", _RANGE_CASES)
    def test_ranges_counts_log_values_calls(self, monkeypatch, estimator_id, args, lines, step):
        real = montecarlo._sample
        calls = []

        def counting(estimator_id, params, cfg, heavy, log_values, **kw):
            def counted(seed, samples):
                calls.append(samples)
                return log_values(seed, samples)
            return real(estimator_id, params, cfg, heavy, counted, **kw)

        monkeypatch.setattr(montecarlo, "_sample", counting)
        estimate = getattr(montecarlo, f"estimate_{estimator_id}")
        for samples, expected in ((step - 1, 1), (step, 1), (step + 1, 2)):
            calls.clear()
            estimate(*args, cfg(samples, 60, lines_per_system=lines))
            assert montecarlo.ranges(estimator_id, args, samples, lines) == expected
            assert len(calls) == expected
            assert calls[0] == range(0, min(samples, step))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's mallopt parameters")
class TestWorkingMemory:
    # freed chunk arrays stay mapped, so a repeat of an estimate reuses the
    # pages of the first run instead of faulting fresh ones in
    @pytest.mark.parametrize("estimate", [
        lambda: montecarlo.estimate_poly_moment(2, [2], 1.0, False, "frobenius",
                                                cfg(1_000, 50)),
        lambda: montecarlo.estimate_pinv_moment(3, 5, 1.0, "frobenius", cfg(20_000, 51)),
    ], ids=["poly-n2d2", "pinv-r3m5"])
    def test_a_repeated_estimate_faults_in_no_memory(self, estimate):
        import resource

        assert montecarlo._keep_freed_memory_mapped()
        estimate()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


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

    @pytest.mark.parametrize("m", [4, 3])  # plain mean, median-of-means
    def test_matrix_block_i_draws_from_stream_i(self, m):
        # two full blocks and a partial one: the estimate is the reduction of
        # the log-values of RngStream(seed, i), block by block, bit for bit.
        # At r = 2 a draw takes 2m uniforms: the m and m - 1 exponentials
        # summed into L_00^2 and L_11^2, then |L_10|^2.  tr G^-1 is
        # ||L^-1||_F^2 = 1/|L_00|^2 + (1 + |L_10|^2/|L_00|^2)/|L_11|^2
        seed, block = 36, montecarlo.BLOCK_SAMPLES
        samples = 2 * block + 5
        est = montecarlo.estimate_pinv_moment(2, m, 2.0, "frobenius", cfg(samples, seed))
        logv = []
        for i, count in enumerate((block, block, 5)):
            e = -np.log1p(-RngStream(seed, i).uniforms((count, 2 * m)))
            l00_sq = sum(e[:, j] for j in range(m))
            l11_sq = sum(e[:, j] for j in range(m, 2 * m - 1))
            l10_sq = e[:, 2 * m - 1]
            trace_inverse = 1.0 / l00_sq + (1.0 + l10_sq / l00_sq) / l11_sq
            logv.append(2.0 * (0.5 * np.log(trace_inverse)))
        heavy = montecarlo.pinv_moment_domain(2, m, 2.0, "frobenius")
        mean, stderr, method = montecarlo._reduce_log_values(np.concatenate(logv), heavy)
        assert (est.mean, est.stderr, est.method) == (mean, stderr, method)
        assert est.n_samples == est.attempted == samples

    @pytest.mark.parametrize("estimate, params, m", [
        (montecarlo.estimate_pinv_moment, (1, 3, 2.0, "frobenius"), 3),
        (montecarlo.estimate_detweighted_square, (1, 1.0, 2.0, "operator"), 1),
        (montecarlo.estimate_espnorm, (4, 2.0), 4),
        (montecarlo.estimate_espnormrest, (3, 1, 2.0), 3),
    ])
    def test_single_row_and_vector_draws_take_radius_uniforms_only(self, monkeypatch,
                                                                   estimate, params, m):
        # block i draws exactly RngStream(seed, i).uniforms((count, m)), the
        # radius half of the full r = 1 draw, and nothing else, so the
        # estimate is the full draws' up to rounding
        seed, block = 37, montecarlo.BLOCK_SAMPLES
        calls = []

        class Recording(RngStream):
            def uniforms(self, shape):
                calls.append((self.seed, self.stream_index, shape))
                return super().uniforms(shape)

        monkeypatch.setattr(montecarlo, "RngStream", Recording)
        est = estimate(*params, cfg(2 * block + 5, seed))
        assert calls == [(seed, 0, (block, m)), (seed, 1, (block, m)), (seed, 2, (5, m))]
        assert est.n_samples == 2 * block + 5
        monkeypatch.undo()
        monkeypatch.setattr(montecarlo, "_draws", _full_gram_draws)
        monkeypatch.setattr(montecarlo, "_vector_draws", _full_vector_draws)
        full = estimate(*params, cfg(2 * block + 5, seed))
        assert est.mean == pytest.approx(full.mean, rel=1e-12, abs=0)
        assert est.stderr == pytest.approx(full.stderr, rel=1e-9, abs=1e-15)


def reference_median_of_means(logv):
    """The median-of-means reduction written with np.array_split, np.mean and
    np.median, as _reduce_log_values computed it before it avoided them."""
    m = float(np.max(logv))
    ex = np.exp(logv - m)
    ex = np.array([float(np.mean(b))
                   for b in np.array_split(ex, min(montecarlo.MOM_BUCKETS, ex.size))])
    center = float(np.median(ex))
    spread = float(np.std(ex, ddof=1)) if ex.size > 1 else 0.0
    mean = math.exp(m + math.log(center)) if center > 0 else 0.0
    stderr = math.exp(m + math.log(spread) - 0.5 * math.log(ex.size)) if spread > 0 else 0.0
    return mean, stderr, f"median-of-means({ex.size})"


class TestMedianOfMeans:
    @pytest.mark.parametrize("sizes", [range(1, 200), [1000, 9999, 10_000, 100_000,
                                                       123_457, 2**20 + 3]],
                             ids=["1-199", "large"])
    def test_equals_numpy_median_of_array_split_means(self, sizes):
        for size in sizes:
            u = RngStream(60, size).uniforms((2, size))
            # heavy-tailed log-values, with a few -inf ones (zero integrands)
            logv = 1.5 * -np.log(u[0]) + np.where(u[1] < 0.01, -np.inf, 0.0)
            logv[0] = 0.0
            assert montecarlo._reduce_log_values(logv, True) == reference_median_of_means(logv)

    def test_never_imports_numpy_ma(self):
        # the first np.median call of a process imports numpy.ma
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        code = ("import sys, numpy as np; from condmoments import montecarlo; "
                "montecarlo._reduce_log_values(np.log(np.arange(1.0, 100_001.0)), True); "
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


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


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


class TestDomainsMatchClosedForms:
    """Each estimator's domain raises exactly where the closed form it checks raises."""

    @staticmethod
    def _agree(pairs):
        outcomes = [(_raises(*domain), _raises(*closed)) for domain, closed in pairs]
        assert all(d == c for d, c in outcomes), [
            (domain[1:], d, c) for (domain, _), (d, c) in zip(pairs, outcomes) if d != c]
        # the grid reaches both sides of every rule it tests
        assert {d for d, _ in outcomes} == {True, False}

    def test_espnorm(self):
        self._agree([
            ((montecarlo.espnorm_domain, n, alpha), (formulas.espnorm_value, n, alpha))
            for n in (0, 1, 2, 3, 2.5, True)
            for alpha in (-7.0, -6.0, -4.0, -2.5, -2.0, 0.0, 2.0, 5.5,
                          math.inf, math.nan, True, "2")
        ])

    def test_espnormrest(self):
        self._agree([
            ((montecarlo.espnormrest_domain, n, alpha, beta),
             (formulas.espnormrest_value, n, alpha, beta))
            for n in (1, 2, 3, 4, 2.5, True)
            for alpha in (-1, 0, 1, 2, 1.5, True)
            for beta in (-6.5, -4.5, -3.0, -2.5, -2.0, -1.0, 0.0, 2.0, math.inf, math.nan, True)
        ])

    def test_detweighted_square_at_alpha_two(self):
        self._agree([
            ((montecarlo.detweighted_square_domain, r, k, 2.0, "frobenius"),
             (formulas.invnor2mdet_value, r, k))
            for r in (0, 1, 2, 3, 1.5, True)
            for k in (-1.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan, True)
        ])

    def test_pinv_at_alpha_two(self):
        # E ||M^+||_F^2 = r / (m - r) is the pinv moment at alpha = 2
        self._agree([
            ((montecarlo.pinv_moment_domain, r, m, 2.0, "frobenius"),
             (formulas.pinv_moment_value, r, m))
            for r in (0, 1, 2, 3, 2.5, True)
            for m in (1, 2, 3, 4, 4.0, 2.5, True)
        ])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_poly_and_rect_alpha_range(self, n):
        alphas = (-1.0, 0.0, 0.5, 2.0, n + 1.0, n + 1.5, 2.0 * n + 1.9, 2.0 * n + 2.0,
                  2.0 * n + 3.0, math.inf, math.nan, True)
        poly = [(montecarlo.poly_moment_domain, n, (2,), a, False, "frobenius") for a in alphas]
        rect = [(montecarlo.detweighted_rect_domain, 1, n, a, "frobenius") for a in alphas]
        exmu = [(formulas.exmualpha_constant, n, 1, (2,), a) for a in alphas]
        self._agree(list(zip(poly, exmu)))
        self._agree(list(zip(rect, exmu)))
        # where both run, the rect flag is its own integrand's, heavy one
        # above the polynomial moment's, from n - r + 3 = n + 2
        for a, p, q in zip(alphas, poly, rect):
            if not _raises(*p):
                assert q[0](*q[1:]) == (a >= n + 2)


def _tail_cases():
    """(id, domain as a function of its tail parameter, finite-mean edge,
    finite-variance edge, -1 if admitted below the edges or +1 if above),
    each edge in the arithmetic of the range it has always had."""
    d = montecarlo
    for r, m in ((1, 1), (1, 3), (2, 4), (3, 5)):
        yield (f"pinv-r{r}m{m}", lambda a, r=r, m=m: d.pinv_moment_domain(r, m, a, "frobenius"),
               2 * (m - r + 1), m - r + 1, -1)
    for r, n in ((1, 1), (1, 3), (2, 3), (3, 5)):
        # the flag is the integrand's own, from n - r + 3
        yield (f"rect-r{r}n{n}", lambda a, r=r, n=n: d.detweighted_rect_domain(r, n, a, "frobenius"),
               2 * (n - r + 2), n - r + 3, -1)
    # non-dyadic k, where k - alpha/2 > -1 and 2k - alpha > -1 slip by an ulp
    for r, k in ((1, 0.1), (2, 1 / 3), (1, 2 / 3), (3, 0.9), (1, 1.0), (2, 2.5)):
        yield (f"square-r{r}k{k:.3g}",
               lambda a, r=r, k=k: d.detweighted_square_domain(r, k, a, "frobenius"),
               2 * k + 2, 2 * k + 1, -1)
    for n in (1, 2, 3):
        yield f"espnorm-n{n}", lambda a, n=n: d.espnorm_domain(n, a), -2 * n, -n, 1
    for n, alpha in ((2, 0), (3, 1), (4, 2)):
        yield (f"espnormrest-n{n}a{alpha}", lambda b, n=n, a=alpha: d.espnormrest_domain(n, a, b),
               2 - 2 * n, 1 - n, 1)
    for n in (1, 2, 3):
        yield (f"poly-n{n}", lambda a, n=n: d.poly_moment_domain(n, (2,), a, False, "frobenius"),
               2 * (n + 1), n + 1, -1)


class TestTailEdges:
    """Every estimator domain admits its parameter strictly inside the
    finite-mean edge and flags it heavy from the finite-variance edge on, at
    each edge and at its floating-point neighbours on both sides."""

    @pytest.mark.parametrize("domain, mean_edge, var_edge, side",
                             [case[1:] for case in _tail_cases()],
                             ids=[case[0] for case in _tail_cases()])
    def test_both_sides_of_both_edges(self, domain, mean_edge, var_edge, side):
        inside = side * math.inf
        assert domain(math.nextafter(mean_edge, inside)) is True
        for p in (mean_edge, math.nextafter(mean_edge, -inside)):
            with pytest.raises(ValueError, match="for a finite mean"):
                domain(p)
        assert domain(math.nextafter(var_edge, inside)) is False
        assert domain(var_edge) is True
        assert domain(math.nextafter(var_edge, -inside)) is True
