"""Condition numbers of a polynomial system at its zeros.

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
simultaneous unitary rotation of system and point.

The per-point SVD mu is the reference that zero_set_mu, the batched stage of
the polynomial estimator, is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from . import bwspace, cxla, formulas
from .bwspace import SystemCoords

# Zeros are accepted up to this residual relative to ||h||; the roots
# (closed forms at d <= 3, companion eigenvalues from d = 4) leave scaled
# residuals |h(x)|/||h|| of at most 7.2e-16 on the bundled suite at
# DEFAULT_SEED (relative-vs-matrix-n2d2; 2.2e-16 to 3.5e-16 on the n = 1
# rows), the worst over every point zero_set_mu is given in a verify run,
# so the slack decouples mu from the root finder.  This is the one check
# of a sampled point against h (in _checked_zero and zero_set_mu): the root
# finder checks no restriction or root itself, so a wrong one fails here.
ZERO_TOL = 1e-8

# the norms of the scaled pseudoinverse that a condition number can take
NORMS = ("frobenius", "operator")

_UNIT_TOL = 1e-6


def check_norm(norm: str) -> None:
    """Reject a norm name that is not one of NORMS."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}: norm must be one of {NORMS}")


def _checked_zero(h: SystemCoords, x) -> tuple[np.ndarray, float]:
    v = np.asarray(x, dtype=np.complex128).ravel()
    if v.shape != (h.n + 1,):
        raise ValueError(f"point must have shape ({h.n + 1},), got {v.shape}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
        raise ValueError(f"point must be unit norm, got ||x|| = {nrm}")
    v = v / nrm
    hnorm = bwspace.bw_norm(h)
    residual = np.linalg.norm(bwspace.evaluate(h, v))
    if residual > ZERO_TOL * hnorm:
        raise ValueError(
            f"point is not a zero of the system: |h(x)| = {residual:.3e} "
            f"> {ZERO_TOL:.0e} * ||h|| = {ZERO_TOL * hnorm:.3e}"
        )
    return v, hnorm


def mu(h: SystemCoords, x, norm: str = "frobenius") -> float:
    """Condition number of h at its unit-norm zero x; +inf when rank deficient.

    Satisfies mu(h, x, "operator") <= mu(h, x) <= sqrt(r) * mu(h, x, "operator").
    """
    check_norm(norm)
    v, hnorm = _checked_zero(h, x)
    scale = np.sqrt(np.array(h.degrees, dtype=np.float64))
    try:
        s = np.linalg.svd(bwspace.jacobian(h, v) / scale[:, None], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise cxla.NumericError(f"SVD did not converge at a zero of an r = {h.r} system") from exc
    if s[-1] <= cxla.RANK_TOL * s[0]:
        return math.inf
    if norm == "operator":
        return hnorm / float(s[-1])
    return hnorm * math.sqrt(float(np.sum(s**-2.0)))


def zero_set_mu(n: int, d: int, coeffs: np.ndarray, points: np.ndarray, relative: bool):
    """mu (S, m) at the points (S, m, n+1) of S degree-d equations (S, K), and
    the systems with a point that is not a zero: |h(x)| > ZERO_TOL * ||h||.

    At r = 1 the Frobenius and operator values coincide and mu = ||h||
    sqrt(d) / ||Dh(x)||, divided by ||h|| when relative; it agrees with mu
    point by point.  A NaN point gives a NaN mu and is not flagged here.
    """
    hnorm = np.linalg.norm(coeffs, axis=1)[:, None]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        residuals = np.abs(bwspace.evaluate_forms(n, d, coeffs, points))
        failed = np.any(residuals > ZERO_TOL * hnorm, axis=1)
        sigma = np.linalg.norm(bwspace.gradient_forms(n, d, coeffs, points), axis=2)
        values = hnorm * math.sqrt(d) / sigma
        if relative:
            values = values / hnorm
    return values, failed


def empirical_moment(
    h: SystemCoords,
    zeros,
    alpha: float,
    relative: bool = False,
    norm: str = "frobenius",
) -> float:
    """Mean of mu(h, x)^alpha over a finite list of zeros.

    With relative=True each term is divided by ||h||^alpha.  Any
    rank-deficient zero makes the result +inf.  Raises on an empty list.
    """
    zeros = list(zeros)
    if not zeros:
        raise ValueError("empirical_moment needs at least one zero")
    formulas.check_finite(positive=True, alpha=alpha)
    hnorm = bwspace.bw_norm(h)
    total = 0.0
    for x in zeros:
        m = mu(h, x, norm)
        if math.isinf(m):
            return math.inf
        term = m**alpha
        if relative:
            term /= hnorm**alpha
        total += term
    return total / len(zeros)
