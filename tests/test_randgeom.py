import math

import numpy as np
import pytest

from condmoments import bwspace, randgeom
from condmoments.randgeom import RngStream


def mean_within(values, target, sigmas=4.0):
    values = np.asarray(values, dtype=np.float64)
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - target) <= sigmas * se, values.mean(), se


class TestRngStream:
    def test_replay_is_identical(self):
        a = RngStream(123, 45).uniforms(10)
        b = RngStream(123, 45).uniforms(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 1).uniforms(10)
        b = RngStream(123, 2).uniforms(10)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_mix64_is_stable(self):
        # pinned values keep derived seeds stable across releases
        assert randgeom.mix64(0) == randgeom.mix64(0)
        assert randgeom.mix64(1, 2) != randgeom.mix64(2, 1)
        assert 0 <= randgeom.mix64(20260809, 7) < 2**64


_EDGE_KEYS = [0, 1, 2**64 - 1]


class TestUniformsForStreams:
    # numpy's own Philox is the reference; the key goes in as a uint64 array,
    # as RngStream passes it
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 16, 17, 188])
    def test_bitwise_equal_to_numpy_philox(self, count):
        rng = np.random.default_rng(count)
        seeds = _EDGE_KEYS + [int(s) for s in rng.integers(0, 2**64, 3, dtype=np.uint64)]
        indices = _EDGE_KEYS + [int(j) for j in rng.integers(0, 2**64, 5, dtype=np.uint64)]
        for seed in seeds:
            out = randgeom.uniforms_for_streams(seed, indices, count)
            assert out.shape == (len(indices), count)
            for row, j in zip(out, indices):
                key = np.array([seed, j], dtype=np.uint64)
                ref = np.random.Generator(np.random.Philox(key=key)).random(count)
                assert np.array_equal(row, ref), (seed, j, count)

    def test_no_indices_gives_empty_rows(self):
        assert randgeom.uniforms_for_streams(5, [], 17).shape == (0, 17)
        assert randgeom.uniforms_for_streams(5, range(3, 3), 4).shape == (0, 4)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_rejects_out_of_range_like_rng_stream(self, seed, index):
        with pytest.raises(ValueError) as stream_err:
            RngStream(seed, index)
        with pytest.raises(ValueError) as batch_err:
            randgeom.uniforms_for_streams(seed, [3, index], 4)
        assert str(batch_err.value) == str(stream_err.value)

    @pytest.mark.parametrize("indices", [range(2**64 - 3, 2**64 + 1), range(-2, 3),
                                         range(2**64, 2**64 - 4, -1)])
    def test_checks_a_range_by_its_ends(self, indices):
        # a range is checked at its first and last index only
        with pytest.raises(ValueError) as stream_err:
            RngStream(0, 2**64)
        with pytest.raises(ValueError) as batch_err:
            randgeom.uniforms_for_streams(0, indices, 4)
        assert str(batch_err.value) == str(stream_err.value)

    def test_a_range_at_the_top_of_the_key_space(self):
        top = range(2**64 - 3, 2**64)
        assert np.array_equal(randgeom.uniforms_for_streams(0, top, 5),
                              randgeom.uniforms_for_streams(0, list(top), 5))


def batched_gaussians(seed, shape, count, draw):
    """count draw(rng) calls on RngStream(seed, 0), each a complex Gaussian
    array of the given shape, from one uniforms call on the same stream:
    each call draws its radius uniforms, then its phase uniforms."""
    x = RngStream(seed, 0).uniforms((count, 2, *shape))  # (call, radius/phase, entry)
    g = randgeom.complex_gaussians(x[:, 0], x[:, 1])
    rng = RngStream(seed, 0)
    for row in g[:3]:
        assert np.array_equal(draw(rng), row)
    return g


class TestComplexGaussian:
    def test_second_moment_per_coordinate(self):
        v = randgeom.complex_gaussian_array(RngStream(1, 0), (100_000,))
        ok, mean, se = mean_within(np.abs(v) ** 2, 1.0)
        assert ok, (mean, se)

    def test_expected_squared_norm(self):
        v = batched_gaussians(2, (4,), 20_000,
                              lambda rng: randgeom.complex_gaussian_vector(rng, 4))
        sq = np.sum(np.abs(v) ** 2, axis=1)
        ok, mean, se = mean_within(sq, 4.0)
        assert ok, (mean, se)

    def test_fourth_norm_moment(self):
        # E ||v||^4 in C^3 is Gamma(5)/Gamma(3) = 12
        v = randgeom.complex_gaussian_array(RngStream(3, 0), (100_000, 3))
        norms4 = np.sum(np.abs(v) ** 2, axis=1) ** 2
        ok, mean, se = mean_within(norms4, 12.0)
        assert ok, (mean, se)

    def test_inverse_moment_scalar(self):
        # E |z|^-1 = Gamma(1/2)/Gamma(1) = sqrt(pi)
        z = randgeom.complex_gaussian_array(RngStream(4, 0), (100_000,))
        ok, mean, se = mean_within(1.0 / np.abs(z), math.sqrt(math.pi))
        assert ok, (mean, se)

    def test_real_and_imaginary_parts_balanced(self):
        z = randgeom.complex_gaussian_array(RngStream(5, 0), (100_000,))
        ok_re, *_ = mean_within(z.real**2, 0.5)
        ok_im, *_ = mean_within(z.imag**2, 0.5)
        assert ok_re and ok_im

    @pytest.mark.parametrize("n", [True, 2.5, 3.0])
    def test_vector_rejects_a_length_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            randgeom.complex_gaussian_vector(RngStream(5, 1), n)


class TestGaussianMatrix:
    def test_frobenius_second_moment(self):
        a = batched_gaussians(6, (2, 3), 20_000,
                              lambda rng: randgeom.complex_gaussian_array(rng, (2, 3)))
        sq = np.sum(np.abs(a) ** 2, axis=(1, 2))
        ok, mean, se = mean_within(sq, 6.0)
        assert ok, (mean, se)

    def test_determinant_second_moment_2x2(self):
        # E |det|^2 = 2 for 2x2 (product formula for Gaussian determinants)
        a = randgeom.complex_gaussian_array(RngStream(7, 0), (200_000, 2, 2))
        dets = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        ok, mean, se = mean_within(np.abs(dets) ** 2, 2.0)
        assert ok, (mean, se)

    def test_1x1_singular_value_is_modulus(self):
        m = randgeom.complex_gaussian_array(RngStream(8, 0), (1, 1))
        s = np.linalg.svd(m, compute_uv=False)
        assert s[0] == pytest.approx(abs(m[0, 0]))


def batched_system_coords(seed, n, d, count):
    """Coordinates (count, K) of count gaussian_system(rng, n, (d,)) calls on
    RngStream(seed, 0), from one uniforms call on the same stream: each call
    draws K radius uniforms, then K phase uniforms."""
    k = math.comb(n + d, n)
    x = RngStream(seed, 0).uniforms((count, 2 * k))
    coords = randgeom.complex_gaussians(x[:, :k], x[:, k:])
    rng = RngStream(seed, 0)
    for row in coords[:3]:
        assert np.array_equal(randgeom.gaussian_system(rng, n, (d,)).coords[0], row)
    return coords


def batched_haar_unitaries(seed, dim, count):
    """count haar_unitary(rng, dim) calls on RngStream(seed, 0), from one
    uniforms call on the same stream: each call draws the dim x dim radius
    uniforms of its Ginibre matrix, then its phase uniforms."""
    x = RngStream(seed, 0).uniforms((count, 2 * dim * dim))
    ginibre = randgeom.complex_gaussians(x[:, : dim * dim], x[:, dim * dim :])
    u = randgeom.unitary_from_ginibre(ginibre.reshape(count, dim, dim))
    rng = RngStream(seed, 0)
    for row in u[:3]:
        assert np.array_equal(randgeom.haar_unitary(rng, dim), row)
    return u


class TestGaussianSystem:
    def test_expected_norm_squared_is_dimension(self):
        sq = np.linalg.norm(batched_system_coords(9, 2, 3, 20_000), axis=1) ** 2
        ok, mean, se = mean_within(sq, 10.0)
        assert ok, (mean, se)

    def test_coordinate_variance(self):
        coords = batched_system_coords(10, 1, 2, 50_000)[:, 1]
        ok, mean, se = mean_within(np.abs(coords) ** 2, 1.0)
        assert ok, (mean, se)

    def test_inverse_square_norm_moment(self):
        # E ||h||^-2 = 1/(N-1) with N = 10 for n = 2, degree 3
        inv = np.linalg.norm(batched_system_coords(11, 2, 3, 50_000), axis=1) ** -2
        ok, mean, se = mean_within(inv, 1.0 / 9.0)
        assert ok, (mean, se)


class TestHaarUnitary:
    def test_unitarity(self):
        for dim in (1, 2, 3, 5):
            u = randgeom.haar_unitary(RngStream(12, dim), dim)
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-10

    def test_first_column_uniform_on_sphere(self):
        # E |u_00|^2 = 1/n by symmetry
        vals = np.abs(batched_haar_unitaries(13, 3, 20_000)[:, 0, 0]) ** 2
        ok, mean, se = mean_within(vals, 1.0 / 3.0)
        assert ok, (mean, se)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True])
    def test_rejects_a_dimension_that_is_not_an_integer(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer"):
            randgeom.haar_unitary(RngStream(12, 0), dim)

    def test_determinant_phase_uniform(self):
        dets = np.linalg.det(batched_haar_unitaries(14, 3, 20_000))
        ok_re, mean_re, se_re = mean_within(dets.real, 0.0)
        ok_im, mean_im, se_im = mean_within(dets.imag, 0.0)
        assert ok_re and ok_im, (mean_re, se_re, mean_im, se_im)


class TestRotateSystem:
    def test_identity_rotation(self):
        h = randgeom.gaussian_system(RngStream(19, 0), 2, (2, 3))
        hr = randgeom.rotate_system(h, np.eye(3))
        for a, b in zip(hr.coords, h.coords):
            assert np.allclose(a, b, atol=1e-14)

    def test_norm_preserved(self):
        rng = RngStream(20, 0)
        for _ in range(10):
            h = randgeom.gaussian_system(rng, 2, (3,))
            u = randgeom.haar_unitary(rng, 3)
            hr = randgeom.rotate_system(h, u)
            assert bwspace.bw_norm(hr) == pytest.approx(bwspace.bw_norm(h), rel=1e-10)

    def test_evaluation_consistency(self):
        rng = RngStream(21, 0)
        h = randgeom.gaussian_system(rng, 2, (2, 3))
        u = randgeom.haar_unitary(rng, 3)
        hr = randgeom.rotate_system(h, u)
        for _ in range(10):
            v = randgeom.complex_gaussian_vector(rng, 3)
            lhs = bwspace.evaluate(hr, v)
            rhs = bwspace.evaluate(h, u.conj().T @ v)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_rejects_non_unitary(self):
        h = randgeom.gaussian_system(RngStream(22, 0), 1, (2,))
        with pytest.raises(ValueError, match="unitary"):
            randgeom.rotate_system(h, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_a_nan_matrix(self):
        # the expansion skips every zero coordinate, so for the zero system
        # only the unitarity check can refuse a NaN matrix
        zero = bwspace.make_system(1, (2,), [np.zeros(3, dtype=complex)])
        with pytest.raises(ValueError, match="not unitary"):
            randgeom.rotate_system(zero, np.full((2, 2), np.nan))


def random_line(rng, n):
    """Orthonormal frame of a uniform line in P^n, drawn as the estimator draws it."""
    g1 = randgeom.complex_gaussian_vector(rng, n + 1)
    g2 = randgeom.complex_gaussian_vector(rng, n + 1)
    return randgeom.orthonormal_pair(g1, g2)


def batched_lines(seed, n, count):
    """Frames (count, n+1) of count random_line(rng, n) calls on
    RngStream(seed, 0), from one uniforms call on the same stream: each call
    draws the radius then the phase uniforms of g1, then those of g2."""
    x = RngStream(seed, 0).uniforms((count, 2, 2, n + 1))  # (line, g1/g2, radius/phase, entry)
    g = randgeom.complex_gaussians(x[:, :, 0], x[:, :, 1])
    u, v = randgeom.orthonormal_pair(g[:, 0], g[:, 1])
    rng = RngStream(seed, 0)
    for a, b in zip(u[:3], v[:3]):
        c, e = random_line(rng, n)
        assert np.array_equal(a, c) and np.array_equal(b, e)
    return u, v


class TestRandomProjectiveLine:
    def test_orthonormality(self):
        rng = RngStream(23, 0)
        for _ in range(20):
            u, v = random_line(rng, 3)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert abs(np.vdot(u, v)) < 1e-12

    def test_law_is_unitarily_invariant(self):
        # |<u, e_0>|^2 statistics match after an arbitrary fixed rotation
        u, _ = batched_lines(24, 3, 20_000)
        rot = randgeom.haar_unitary(RngStream(25, 0), 4)
        plain = np.abs(u[:, 0]) ** 2
        rotated = np.abs(u @ rot[0]) ** 2
        se = math.hypot(plain.std(ddof=1), rotated.std(ddof=1)) / math.sqrt(plain.size)
        assert abs(plain.mean() - rotated.mean()) <= 4 * se

    def test_n1_spans_all_of_c2(self):
        u, v = random_line(RngStream(26, 0), 1)
        basis = np.stack([u, v])
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(2)) < 1e-12


class TestDeterminism:
    def test_sampler_replay_byte_identical(self):
        a = randgeom.gaussian_system(RngStream(27, 3), 2, (2, 3))
        b = randgeom.gaussian_system(RngStream(27, 3), 2, (2, 3))
        for x, y in zip(a.coords, b.coords):
            assert np.array_equal(x, y)
        u1 = randgeom.haar_unitary(RngStream(28, 1), 4)
        u2 = randgeom.haar_unitary(RngStream(28, 1), 4)
        assert np.array_equal(u1, u2)


class _ZeroStream(RngStream):
    """A stream whose first draw is all zeros."""

    def uniforms(self, shape):
        out = super().uniforms(shape)
        if not getattr(self, "_zeroed", False):
            self._zeroed = True
            out[...] = 0.0
        return out


def factor_matrix(sq, phased):
    """The stack of lower-triangular L from gaussian_gram's (sq, phased):
    column 0 and the diagonal real, the square roots of sq."""
    r = math.isqrt(2 * len(sq))
    ell = np.zeros((len(sq[0, 0]), r, r), dtype=complex)
    for (i, k), x in sq.items():
        ell[:, i, k] = phased[i, k] if (i, k) in phased else np.sqrt(x)
    return ell


def gram_of(sq, phased):
    """G = L L* for gaussian_gram's factors (sq, phased)."""
    ell = factor_matrix(sq, phased)
    return ell @ np.conj(np.swapaxes(ell, -1, -2))


def ks_statistic(x, cdf):
    """Kolmogorov-Smirnov distance between the sample x and a continuous cdf."""
    f = cdf(np.sort(x))
    n = f.size
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


def gamma_cdf(k):
    """CDF of Gamma(k, 1) for an integer shape k: 1 - e^-x sum_{j<k} x^j / j!."""

    def cdf(x):
        term = np.ones_like(x)
        total = np.ones_like(x)
        for j in range(1, k):
            term = term * x / j
            total = total + term
        return 1.0 - np.exp(-x) * total

    return cdf


# sqrt(n) * KS distance stays below this with probability 0.999
KS_LIMIT = 1.95


class TestGaussianSquaredModuli:
    @pytest.mark.parametrize("shape", [(5, 1, 3), (4, 3, 1), (7, 1, 1), (3, 2, 1, 4)])
    def test_draws_radius_uniforms_only(self, shape):
        rng = RngStream(32, 3)
        sq = randgeom.gaussian_squared_moduli(rng, shape)
        size = math.prod(shape)
        u = RngStream(32, 3).uniforms(size + 1)
        assert rng.uniforms(1)[0] == u[-1]
        np.testing.assert_array_equal(sq, -np.log1p(-u[:-1]).reshape(shape))
        full = randgeom.complex_gaussian_array(RngStream(32, 3), shape)
        np.testing.assert_allclose(sq, np.abs(full) ** 2, rtol=1e-14, atol=0)


class TestBartlettLaw:
    # A A* = L L* with L = R* for the QR factorization A* = QR, phases moved
    # so that L's diagonal is positive: the complex Bartlett decomposition
    # that gaussian_gram draws from, checked on direct Gaussian draws

    @pytest.mark.parametrize("r, m", [(2, 4), (3, 3), (3, 5), (4, 6)])
    def test_factor_of_direct_draws(self, r, m):
        a = randgeom.complex_gaussian_array(RngStream(35, 10 * r + m), (4096, r, m))
        _, rr = np.linalg.qr(np.conj(np.swapaxes(a, -1, -2)))
        d = np.diagonal(rr, axis1=-2, axis2=-1)
        ell = np.conj(np.swapaxes(rr * (np.conj(d) / np.abs(d))[..., :, None], -1, -2))
        np.testing.assert_allclose(ell @ np.conj(np.swapaxes(ell, -1, -2)),
                                   a @ np.conj(np.swapaxes(a, -1, -2)), rtol=0, atol=1e-12)
        assert np.all(np.diagonal(ell, axis1=-2, axis2=-1).real > 0)
        root_n = math.sqrt(a.shape[0])
        for i in range(r):
            assert root_n * ks_statistic(np.abs(ell[:, i, i]) ** 2, gamma_cdf(m - i)) < KS_LIMIT
            for k in range(i):
                sq = np.abs(ell[:, i, k]) ** 2
                assert root_n * ks_statistic(sq, gamma_cdf(1)) < KS_LIMIT

    @pytest.mark.parametrize("r, m", [(1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 6)])
    def test_gram_moments(self, r, m):
        # E tr G = r m and E det G = m! / (m - r)!
        gram = gram_of(*randgeom.gaussian_gram(RngStream(36, 10 * r + m), 16384, r, m))
        ok, mean, se = mean_within(np.trace(gram, axis1=1, axis2=2).real, r * m)
        assert ok, (mean, se)
        ok, mean, se = mean_within(np.linalg.det(gram).real, math.perm(m, r))
        assert ok, (mean, se)


class TestGaussianGram:
    def test_draws_bartlett_layout(self):
        # (3, 5) takes 16 uniforms a matrix: the 5, 4 and 3 exponentials of
        # L_00^2, L_11^2 and L_22^2, then |L_10|^2, |L_20|^2, |L_21|^2, and
        # the phase of L_21; the factor comes back as drawn, and L L* is G
        rng = RngStream(33, 4)
        sq, phased = randgeom.gaussian_gram(rng, 6, 3, 5)
        u = RngStream(33, 4).uniforms(6 * 16 + 1)
        assert rng.uniforms(1)[0] == u[-1]
        u = u[:-1].reshape(6, 16)
        e = -np.log1p(-u[:, :15])
        ell = np.zeros((6, 3, 3), dtype=complex)
        for i, (lo, hi) in enumerate([(0, 5), (5, 9), (9, 12)]):
            ell[:, i, i] = np.sqrt(e[:, lo:hi].sum(axis=1))
        ell[:, 1, 0], ell[:, 2, 0] = np.sqrt(e[:, 12]), np.sqrt(e[:, 13])
        ell[:, 2, 1] = np.sqrt(e[:, 14]) * np.exp(2j * np.pi * u[:, 15])
        assert sorted(sq) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        assert sorted(phased) == [(2, 1)]
        for (i, k), x in sq.items():
            np.testing.assert_allclose(x, np.abs(ell[:, i, k]) ** 2, rtol=1e-14, atol=0)
        np.testing.assert_allclose(phased[2, 1], ell[:, 2, 1], rtol=1e-14, atol=1e-14)
        gram = ell @ np.conj(np.swapaxes(ell, -1, -2))
        drawn = gram_of(sq, phased)
        for i in range(3):
            np.testing.assert_allclose(drawn[:, i, i].real, gram[:, i, i].real,
                                       rtol=1e-14, atol=0)
        for i, k in [(0, 1), (0, 2), (1, 2)]:
            np.testing.assert_allclose(drawn[:, i, k], gram[:, i, k], rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 4])
    def test_single_row_is_squared_norm(self, m):
        sq, phased = randgeom.gaussian_gram(RngStream(37, m), 64, 1, m)
        moduli = randgeom.gaussian_squared_moduli(RngStream(37, m), (64, m))
        assert phased == {} and list(sq) == [(0, 0)]
        np.testing.assert_allclose(sq[0, 0], moduli.sum(axis=1), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape", [(64, 2, 2), (64, 3, 5), (64, 1, 3), (64, 4, 6), (5, 1, 1)])
    def test_row_0_real_nonnegative(self, shape):
        # L's column 0 is real and non-negative, so is G_0k = L_00 L_k0
        sq, phased = randgeom.gaussian_gram(RngStream(31, 2), *shape)
        assert all(np.all(x >= 0.0) for x in sq.values())
        assert all(k >= 1 for _, k in phased)
        gram = gram_of(sq, phased)
        for k in range(1, shape[1]):
            assert np.all(gram[:, 0, k].imag == 0.0)
            assert np.all(gram[:, 0, k].real >= 0.0)

    @pytest.mark.parametrize("shape", [(16, 3, 5), (16, 1, 4), (16, 2, 2)])
    def test_zero_uniforms_give_zeros_not_nan(self, shape):
        sq, phased = randgeom.gaussian_gram(_ZeroStream(34, 5), *shape)
        for x in [*sq.values(), *phased.values()]:
            assert np.all(x == 0.0)

    @pytest.mark.parametrize("r, m", [(0, 3), (3, 2)])
    def test_rejects_more_rows_than_columns(self, r, m):
        with pytest.raises(ValueError, match="1 <= r <= m"):
            randgeom.gaussian_gram(RngStream(38, 0), 4, r, m)
