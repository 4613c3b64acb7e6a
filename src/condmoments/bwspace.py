"""Bombieri-Weyl spaces of homogeneous polynomial systems.

A system h = (h_1, ..., h_r) of homogeneous polynomials in the variables
x_0, ..., x_n is stored in Bombieri-Weyl-orthonormal coordinates: for an
equation of degree d with monomial expansion h(x) = sum_j a_j x^j over
multi-indices j = (j_0, ..., j_n), |j| = d, the stored coordinate is

    c_j = a_j / sqrt(multinomial(d, j)).

In these coordinates the Bombieri-Weyl inner product is the plain Euclidean
Hermitian product of coordinate vectors, so a standard complex Gaussian on
the coordinates is exactly the standard Gaussian ensemble on the space, and
the norm of a system is the Euclidean norm of its flattened coordinates.

Canonical monomial order: multi-indices of each degree are listed in
lexicographic descending order on (j_0, ..., j_n), i.e. (d,0,...,0) first
and (0,...,0,d) last.  Every coordinate vector uses this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Exact-integer multinomials are only guaranteed representable losslessly in
# binary64 up to this total degree; larger spaces are refused outright.
MAX_TOTAL_DEGREE = 40


def _check_scale(n: int, d: int) -> None:
    if n + d > MAX_TOTAL_DEGREE:
        raise ValueError(
            f"n + d = {n + d} exceeds the supported limit {MAX_TOTAL_DEGREE}"
        )


def check_degrees(n: int, degrees) -> tuple[int, ...]:
    """Validate an ambient dimension and degree list, returning the tuple."""
    if n < 1:
        raise ValueError(f"ambient n must be >= 1, got {n}")
    degs = tuple(int(d) for d in degrees)
    if len(degs) < 1:
        raise ValueError("degree list must be nonempty")
    if any(d < 1 for d in degs):
        raise ValueError(f"all degrees must be >= 1, got {degs}")
    if len(degs) > n:
        raise ValueError(f"r = {len(degs)} equations exceed ambient n = {n}")
    for d in degs:
        _check_scale(n, d)
    return degs


def multinomial(d: int, j) -> int:
    """Exact multinomial coefficient d! / (j_0! ... j_n!)."""
    j = tuple(int(v) for v in j)
    if any(v < 0 for v in j) or sum(j) != d:
        raise ValueError(f"invalid multi-index {j} for degree {d}")
    out = math.factorial(d)
    for v in j:
        out //= math.factorial(v)
    return out


@lru_cache(maxsize=None)
def monomial_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All degree-d multi-indices over x_0..x_n in canonical order."""
    _check_scale(n, d)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    idx = tuple(compositions(d, n + 1))
    # compositions already emits lexicographic descending order
    return idx


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix (K x (n+1)) and sqrt-multinomial weights (K,).

    K = binom(n + d, n).  Both arrays are read-only.
    """
    idx = monomial_indices(n, d)
    expo = np.array(idx, dtype=np.int64)
    weights = np.sqrt(np.array([multinomial(d, j) for j in idx], dtype=np.float64))
    expo.setflags(write=False)
    weights.setflags(write=False)
    return expo, weights


def dim_space(n: int, degrees) -> int:
    """Complex dimension of the system space: sum_i binom(n + d_i, n)."""
    degs = check_degrees(n, degrees)
    return sum(math.comb(n + d, n) for d in degs)


def bezout(degrees) -> int:
    """Product of the degrees."""
    degs = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degs) or not degs:
        raise ValueError(f"degrees must be positive, got {degs}")
    out = 1
    for d in degs:
        out *= d
    return out


@dataclass(frozen=True)
class SystemCoords:
    """A polynomial system in Bombieri-Weyl-orthonormal coordinates.

    coords holds one read-only complex vector per equation, indexed by the
    canonical monomial order of that equation's degree.
    """

    n: int
    degrees: tuple[int, ...]
    coords: tuple[np.ndarray, ...]

    @property
    def r(self) -> int:
        return len(self.degrees)


def make_system(n: int, degrees, coords) -> SystemCoords:
    """Validate and freeze a coordinate representation."""
    degs = check_degrees(n, degrees)
    if len(coords) != len(degs):
        raise ValueError(f"expected {len(degs)} coordinate vectors, got {len(coords)}")
    frozen = []
    for i, (d, c) in enumerate(zip(degs, coords)):
        v = np.array(c, dtype=np.complex128)
        want = math.comb(n + d, n)
        if v.ndim != 1 or v.size != want:
            raise ValueError(
                f"equation {i}: expected {want} coordinates for degree {d}, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError(f"equation {i}: coordinates must be finite")
        v.setflags(write=False)
        frozen.append(v)
    return SystemCoords(n=n, degrees=degs, coords=tuple(frozen))


def bw_inner(h: SystemCoords, g: SystemCoords) -> complex:
    """Bombieri-Weyl Hermitian product <h, g>, linear in h.

    In orthonormal coordinates this is the Euclidean Hermitian product of
    the flattened coordinate vectors.
    """
    if h.n != g.n or h.degrees != g.degrees:
        raise ValueError("systems must share ambient dimension and degrees")
    total = 0.0 + 0.0j
    for ch, cg in zip(h.coords, g.coords):
        total += np.vdot(cg, ch)  # sum ch * conj(cg)
    return complex(total)


def bw_norm(h: SystemCoords) -> float:
    """Bombieri-Weyl norm = Euclidean norm of the flattened coordinates."""
    return float(np.sqrt(sum(float(np.vdot(c, c).real) for c in h.coords)))


def _point(x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128)
    if v.shape != (n + 1,):
        raise ValueError(f"point must have shape ({n + 1},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point entries must be finite")
    return v


def _power_table(points: np.ndarray, d: int) -> np.ndarray:
    # P[..., k, t] = x_k ** t, with 0**0 = 1
    return points[..., None] ** np.arange(d + 1)


def _forms_at(ptab: np.ndarray, expo: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[s, j] x^(expo[j]) at each point of a (S, m, n+1, d+1) power table."""
    monos = ptab[..., 0, expo[:, 0]]  # (S, m, K), built one variable at a time
    for k in range(1, ptab.shape[-2]):
        monos = monos * ptab[..., k, expo[:, k]]
    return np.matmul(monos, coeffs[:, :, None])[..., 0]


def evaluate_forms(n: int, d: int, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values of S degree-d forms, each at its own m points.

    coeffs (S, K) holds one form's coordinates per row and points
    (S, m, n+1) the points of each form; returns an (S, m) array.
    """
    expo, w = monomial_basis(n, d)
    return _forms_at(_power_table(points, d), expo, w * coeffs)


def gradient_forms(n: int, d: int, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Gradients of S degree-d forms, each at its own m points; (S, m, n+1).

    Exact term-wise differentiation, shapes as in evaluate_forms.
    """
    _, w = monomial_basis(n, d)
    a = w * coeffs
    ptab = _power_table(points, d)
    out = np.empty(points.shape, dtype=np.complex128)
    for k, (lowered, factor) in enumerate(_jacobian_tables(n, d)):
        out[..., k] = _forms_at(ptab, lowered, a * factor)
    return out


def _points(h: SystemCoords, points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != h.n + 1:
        raise ValueError(f"points must be (m, {h.n + 1}), got {pts.shape}")
    return pts


def evaluate(h: SystemCoords, x) -> np.ndarray:
    """Evaluate all equations at a point, returning a length-r vector."""
    return evaluate_at(h, _point(x, h.n)[None, :])[0]


def evaluate_at(h: SystemCoords, points) -> np.ndarray:
    """Evaluate all equations at many points; returns an (m, r) array."""
    pts = _points(h, points)[None]
    return np.stack(
        [evaluate_forms(h.n, d, c[None], pts)[0] for d, c in zip(h.degrees, h.coords)], axis=1
    )


@lru_cache(maxsize=None)
def _jacobian_tables(n: int, d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-variable lowered exponent matrices and degree factors, cached."""
    expo, _ = monomial_basis(n, d)
    tables = []
    for k in range(n + 1):
        lowered = expo.copy()
        lowered[:, k] = np.maximum(expo[:, k] - 1, 0)
        lowered.setflags(write=False)
        factor = expo[:, k].astype(np.float64)
        factor.setflags(write=False)
        tables.append((lowered, factor))
    return tuple(tables)


def jacobian(h: SystemCoords, x) -> np.ndarray:
    """Derivative matrix Dh(x), shape (r, n+1), by exact term-wise differentiation."""
    return jacobian_at(h, _point(x, h.n)[None, :])[0]


def jacobian_at(h: SystemCoords, points) -> np.ndarray:
    """Derivative matrices at many points; returns an (m, r, n+1) array."""
    pts = _points(h, points)[None]
    return np.stack(
        [gradient_forms(h.n, d, c[None], pts)[0] for d, c in zip(h.degrees, h.coords)], axis=1
    )


def kernel_poly(x, d: int) -> SystemCoords:
    """Reproducing kernel of the degree-d Bombieri-Weyl product at x.

    The single-equation system k_x with coordinates
    c_j = sqrt(multinomial(d, j)) * conj(x)^j, i.e. the polynomial
    y -> <y, x>^d.  Satisfies <h, k_x> = h(x) for every degree-d h,
    and ||k_x||^2 = ||x||^(2d).
    """
    v = np.asarray(x, dtype=np.complex128).ravel()
    if np.all(v == 0):
        raise ValueError("kernel point must be nonzero")
    n = v.size - 1
    expo, w = monomial_basis(n, d)
    conj_pows = np.conj(v)[:, None] ** np.arange(d + 1)
    cols = np.arange(n + 1)
    monos = np.prod(conj_pows[cols[None, :], expo], axis=1)
    return make_system(n, (d,), [w * monos])


def l0_matrix(h: SystemCoords) -> np.ndarray:
    """Degree-rescaled derivative at e_0 restricted to the e_0-complement.

    Returns diag(d_i^{-1/2}) @ Dh(e_0) with column 0 dropped, shape (r, n).
    On systems supported on the monomials x_0^{d_i - 1} x_k this map is an
    isometry onto r x n matrices with the Frobenius norm.
    """
    e0 = np.zeros(h.n + 1, dtype=np.complex128)
    e0[0] = 1.0
    jac = jacobian(h, e0)
    scale = 1.0 / np.sqrt(np.array(h.degrees, dtype=np.float64))
    return scale[:, None] * jac[:, 1:]
