"""Condition numbers of polynomial systems at their zeros, and the dense
linear algebra they share with the matrix estimators.

The Frobenius condition number of a system h at a unit-norm zero x is

    mu_F(h, x) = ||h|| * || Dh(x)^+ diag(sqrt(d_i)) ||_F,

with the Moore-Penrose pseudoinverse of the full r x (n+1) derivative; the
operator-norm variant replaces the Frobenius norm of the scaled
pseudoinverse by its largest singular value (Buergisser and Cucker,
*Condition*, ch. 16).  For a full-rank Dh(x) the scaled pseudoinverse is the
pseudoinverse of the degree-scaled Jacobian diag(d_i^(-1/2)) Dh(x), so with
s its singular values mu_F = ||h|| sqrt(sum s^-2) and mu_op = ||h|| / s_min.
When s_min <= RANK_TOL * s_max the value is +infinity.  Both are scale
invariant in h, invariant under a phase change of x, and invariant under
simultaneous unitary rotation of system and point.  A linear system is its
coefficient matrix A, and at a point of its kernel mu is the condition
number ||A||_F ||A^+|| of finding that kernel.

There is one mu path, zero_set_mu, batched over systems and points: at
r = 1 mu = ||h|| sqrt(d) / ||Dh(x)||, at r >= 2 it takes singular_values of
the degree-scaled Jacobians, and it states the one zero rule.  mu is its
batch of one.  singular_values is also the operator-norm SVD of the matrix
estimators; kernel_basis and NumericError serve the roots and the tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import bwspace
from .bwspace import SystemCoords

# Zeros are accepted up to this residual relative to ||h||; the roots
# (closed forms at d <= 3, companion eigenvalues from d = 4) leave scaled
# residuals |h(x)|/||h|| of at most 7.2e-16 on the bundled suite at
# DEFAULT_SEED (relative-vs-matrix-n2d2; 2.2e-16 to 3.5e-16 on the n = 1
# rows), the worst over every point zero_set_mu is given in a verify run,
# so the slack decouples mu from the root finder.  This is the one check
# of a sampled point against h (zero_set_mu's zero rule): the root finder
# checks no restriction or root itself, so a wrong one fails here.
ZERO_TOL = 1e-8

# Singular values below RANK_TOL * sigma_max count as zero everywhere.
RANK_TOL = 1e-12

# the norms of the scaled pseudoinverse that a condition number can take
NORMS = ("frobenius", "operator")

_UNIT_TOL = 1e-6


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced garbage."""


def check_norm(norm: str) -> None:
    """Reject a norm name that is not one of NORMS."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}: norm must be one of {NORMS}")


def singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values (..., k), descending, of a stack of matrices (..., p, q).

    NaN for a matrix with a non-finite entry, on which the SVD does not
    converge; NumericError if it does not converge on the finite ones.
    """
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    s = np.full(stack.shape[:-2] + (min(stack.shape[-2:]),), math.nan)
    try:
        s[finite] = np.linalg.svd(stack[finite], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge on finite {stack.shape[-2:]} matrices") from exc
    return s


def kernel_basis(m) -> np.ndarray:
    """Orthonormal basis of the null space, as columns of a cols x k matrix.

    k = cols minus the number of singular values above RANK_TOL times the
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
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return np.ascontiguousarray(vh[rank:].conj().T)


def zero_set_mu(n: int, degrees, coeffs, points: np.ndarray, relative: bool,
                norm: str = "frobenius"):
    """mu (S, m) at the points (S, m, n+1) of S systems, coeffs holding one
    (S, K_i) coordinate array per equation, and the flagged systems (S,).

    The zero rule: a system is flagged if its norm ||h|| is not finite, or if
    a point is off its zero set, |h_i(x)| > ZERO_TOL * ||h|| for some i.  A
    NaN point is not flagged, and its mu is NaN unless every degree is 1,
    where Dh(x) does not depend on x.  mu is divided by ||h|| when relative.
    At r = 1 both norms give ||h|| sqrt(d) / ||Dh(x)||; at r >= 2 mu comes
    from the singular values of the degree-scaled Jacobians, +inf when the
    rank rule calls them deficient.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        hnorm = np.linalg.norm(np.concatenate(coeffs, axis=1), axis=1)[:, None]
        off = [np.abs(bwspace.evaluate_forms(n, d, c, points)) > ZERO_TOL * hnorm
               for d, c in zip(degrees, coeffs)]
        flagged = ~np.isfinite(hnorm[:, 0]) | np.any(off, axis=(0, 2))
        grads = [bwspace.gradient_forms(n, d, c, points) for d, c in zip(degrees, coeffs)]
        if len(grads) == 1:
            values = hnorm * math.sqrt(degrees[0]) / np.linalg.norm(grads[0], axis=2)
        else:
            s = singular_values(np.stack([g / math.sqrt(d) for d, g in zip(degrees, grads)], -2))
            low = s[..., -1]
            values = hnorm / low if norm == "operator" else hnorm * np.sqrt(np.sum(s**-2.0, -1))
            values[low <= RANK_TOL * s[..., 0]] = math.inf
        if relative:
            values = values / hnorm
    return values, flagged


def mu(h: SystemCoords, x, norm: str = "frobenius") -> float:
    """Condition number of h at its unit-norm zero x; +inf when rank deficient.

    zero_set_mu on one system and one point; raises ValueError if it flags
    the system.  Satisfies mu(h, x, "operator") <= mu(h, x) <= sqrt(r) *
    mu(h, x, "operator").
    """
    check_norm(norm)
    v = np.asarray(x, dtype=np.complex128).ravel()
    if v.shape != (h.n + 1,):
        raise ValueError(f"point must have shape ({h.n + 1},), got {v.shape}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
        raise ValueError(f"point must be unit norm, got ||x|| = {nrm}")
    values, flagged = zero_set_mu(h.n, h.degrees, [c[None] for c in h.coords],
                                  (v / nrm)[None, None], False, norm)
    if flagged[0]:
        raise ValueError(f"point is not a zero of the system, or its norm is not finite: each "
                         f"|h_i(x)| must be <= {ZERO_TOL:.0e} ||h||, and the norm must be finite; "
                         f"||h|| = {bwspace.bw_norm(h):.3e}")
    return float(values[0, 0])
