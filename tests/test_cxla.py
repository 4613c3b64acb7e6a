import numpy as np
import pytest

from condmoments import cxla
from condmoments.randgeom import RngStream, complex_gaussian_array


def random_matrix(seed, r, m):
    return complex_gaussian_array(RngStream(seed, 0), (r, m))


class TestKernelBasis:
    def test_explicit_kernel_of_zero_block(self):
        b = random_matrix(16, 3, 3)
        m = np.hstack([np.zeros((3, 1)), b])
        k = cxla.kernel_basis(m)
        assert k.shape == (4, 1)
        # kernel is spanned by e_0 up to phase
        assert abs(abs(k[0, 0]) - 1.0) < 1e-10
        assert np.linalg.norm(k[1:]) < 1e-10

    def test_full_rank_random(self):
        m = random_matrix(17, 2, 4)
        k = cxla.kernel_basis(m)
        assert k.shape == (4, 2)
        assert np.linalg.norm(m @ k) < 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(k.conj().T @ k - np.eye(2)) < 1e-10

    def test_zero_matrix(self):
        k = cxla.kernel_basis(np.zeros((2, 4)))
        assert k.shape == (4, 4)
        assert np.linalg.norm(k - np.eye(4)) < 1e-12

    def test_rank_tolerance_drops_tiny_singular_values(self):
        # rows with singular values 1 and 1e-14: the second counts as zero
        u = np.linalg.qr(random_matrix(18, 2, 2))[0]
        v = np.linalg.qr(random_matrix(19, 4, 4))[0]
        m = u @ np.diag([1.0, 1e-14]) @ v[:, :2].conj().T
        assert cxla.kernel_basis(m).shape == (4, 3)
        assert cxla.kernel_basis(m, rank_tol=1e-16).shape == (4, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            cxla.kernel_basis(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="2-D"):
            cxla.kernel_basis(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="rows <= cols"):
            cxla.kernel_basis(np.zeros((3, 2)))

    def test_svd_failure_is_a_numeric_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(cxla.NumericError, match="did not converge"):
            cxla.kernel_basis(np.eye(2))
