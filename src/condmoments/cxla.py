"""Dense complex linear algebra: the numeric error type, the rank rule and kernels.

The estimators read every pseudoinverse norm and Gram determinant off the
Bartlett factor of the Gram matrix (montecarlo) and take the per-point
condition number from singular values (conditioning); what they share
lives here: the error type for a routine that fails, the relative rank
tolerance, and an orthonormal null-space basis.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_TOL * sigma_max count as zero everywhere.
RANK_TOL = 1e-12


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced garbage."""


def kernel_basis(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space, as columns of a cols x k matrix.

    k = cols minus the number of singular values above rank_tol times the
    largest one.  For the zero matrix this is the full identity-column basis.
    Raises ValueError unless m is a finite, non-empty 2-D matrix with rows <=
    cols, and NumericError if the SVD does not converge.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if a.shape[0] > a.shape[1]:
        raise ValueError(f"kernel_basis expects rows <= cols, got {a.shape}")
    try:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge for shape {a.shape}") from exc
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return np.ascontiguousarray(vh[rank:].conj().T)
