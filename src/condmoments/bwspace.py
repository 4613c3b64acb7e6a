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

Forms are evaluated at many points from one power table laid out
variable-major, P[k, t] = x_k^t of shape (n+1, d+1, *point axes), so each
P[k, t] is a contiguous array over the points.  A value is summed monomial
by monomial, a_j P[k1, j_k1] P[k2, j_k2] ..., into one accumulator over the
points; factors with j_k = 0 are skipped.  A partial derivative d_k h is
the degree-(d-1) form with coefficients j_k a_j at x^(j - e_k), summed the
same way on the same power table: j -> j - e_k maps the monomials with
j_k > 0, in canonical order, onto the degree-(d-1) monomials in canonical
order.

A form composed with a linear map, h(A y), is read off its values at the
(d+1)^m torus points by one DFT (substitute_forms): with A the line frame
(u, v) this is the restriction to a line (roots), with A = u* the rotation
of a system by a unitary u (randgeom.rotate_system).
"""

from __future__ import annotations

import math
import numbers
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


def check_integers(**counts) -> None:
    """Reject counts (or degree lists) that are not integers, 1.0 and True included."""
    for name, value in counts.items():
        values = value if isinstance(value, (list, tuple)) else np.ravel(value)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in values):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_counts(**counts) -> None:
    """The one count rule: reject counts (or degree lists) that are not
    integers (check_integers), then those below 1."""
    check_integers(**counts)
    for name, value in counts.items():
        if any(v < 1 for v in np.ravel(value)):
            raise ValueError(f"{name} must be >= 1, got {value!r}")


def _degree_list(degrees) -> tuple[int, ...]:
    """A nonempty list of degree counts as a tuple of ints."""
    degs = tuple(degrees)
    check_counts(degrees=degs)
    if not degs:
        raise ValueError("degree list must be nonempty")
    return tuple(int(d) for d in degs)


def check_degrees(n: int, degrees) -> tuple[int, ...]:
    """Validate an ambient dimension and degree list, returning the tuple."""
    check_counts(n=n)
    degs = _degree_list(degrees)
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
    return math.prod(_degree_list(degrees))


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
    """P[k, t] = x_k ** t, shape (n+1, d+1, *point axes), contiguous, for
    points (*point axes, n+1); 0 ** 0 = 1, by repeated multiplication.

    Variable-major, so every P[k, t] is one contiguous array over the points.
    """
    x = np.moveaxis(points, -1, 0)
    ptab = np.empty((x.shape[0], d + 1) + x.shape[1:], dtype=np.complex128)
    ptab[:, 0] = 1.0
    ptab[:, 1] = x
    for t in range(2, d + 1):
        np.multiply(ptab[:, t - 1], x, out=ptab[:, t])
    return ptab


def _sum_terms(ptab: np.ndarray, coeffs: np.ndarray, terms, out: np.ndarray) -> None:
    """out = sum_t coeffs[:, t] prod_{(k, e) in terms[t]} P[k, e], over the
    point axes of a power table; out (S, m), coeffs (S, T), one term a row
    of coeffs, added in order."""
    buf = np.empty_like(out)
    for t, factors in enumerate(terms):
        term = out if t == 0 else buf
        if factors:
            np.multiply(ptab[factors[0]], coeffs[:, t, None], out=term)
            for f in factors[1:]:
                term *= ptab[f]
        else:
            term[...] = coeffs[:, t, None]
        if t:
            out += buf


@lru_cache(maxsize=None)
def _form_terms(n: int, d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Factors (k, e_jk) with e_jk > 0 of each monomial j, in canonical order."""
    return tuple(tuple((k, e) for k, e in enumerate(j) if e) for j in monomial_indices(n, d))


def evaluate_forms(n: int, d: int, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values of S degree-d forms, each at its own m points.

    coeffs (S, K) holds one form's coordinates per row and points
    (S, m, n+1) the points of each form; returns an (S, m) array, summed
    monomial by monomial from one power table.
    """
    _, w = monomial_basis(n, d)
    out = np.empty(points.shape[:-1], dtype=np.complex128)
    _sum_terms(_power_table(points, d), w * coeffs, _form_terms(n, d), out)
    return out


def gradient_forms(n: int, d: int, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Gradients of S degree-d forms, each at its own m points; (S, m, n+1).

    Exact term-wise differentiation from one power table, shapes as in
    evaluate_forms; partial k is the degree-(d-1) form of the monomials with
    e_jk > 0, summed from _form_terms(n, d - 1).
    """
    _, w = monomial_basis(n, d)
    a = w * coeffs
    ptab = _power_table(points, d)
    terms = _form_terms(n, d - 1)
    out = np.empty((n + 1,) + points.shape[:-1], dtype=np.complex128)
    for k, (cols, factor) in enumerate(_jacobian_tables(n, d)):
        _sum_terms(ptab, a[:, cols] * factor, terms, out[k])
    return np.moveaxis(out, 0, -1)


def substitute_forms(n: int, d: int, coeffs: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Monomial coefficients (S, L, K_m) of g(y) = h(A y), y in C^(m+1), for
    S degree-d forms h (S, K) under L linear maps A (S, L, n+1, m+1) each,
    in the canonical order of monomial_indices(m, d).

    g(1, y_1, ..., y_m) has no exponent above d, so its values at the
    (d+1)^m torus points y = (1, w^k_1, ..., w^k_m) determine its
    coefficients exactly through one m-dimensional DFT.  Costs (d+1)^m
    evaluations of h per map.
    """
    m = maps.shape[-1] - 1
    omega = np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    grid = omega[np.indices((d + 1,) * m).reshape(m, -1)]  # w^k_i, k in C order
    pts = maps[..., None, :, 0]  # (S, L, 1, n+1): y_0 = 1
    for i in range(m):
        pts = pts + grid[i, :, None] * maps[..., None, :, i + 1]
    values = evaluate_forms(n, d, coeffs, pts.reshape(len(maps), -1, n + 1))
    values = values.reshape(maps.shape[:2] + (d + 1,) * m)
    dft = np.fft.fftn(values, axes=tuple(range(2, m + 2))) / (d + 1) ** m
    # the coefficient of y^j is the DFT entry at k = (j_1, ..., j_m)
    index = np.ravel_multi_index(monomial_basis(m, d)[0][:, 1:].T, (d + 1,) * m)
    return dft.reshape(maps.shape[:2] + (-1,))[..., index]


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
def _jacobian_tables(n: int, d: int):
    """Per variable k, the monomials j with e_jk > 0 and their degree factors
    e_jk, cached; j -> j - e_k maps them in order onto monomial_indices(n, d - 1)."""
    expo, _ = monomial_basis(n, d)
    tables = []
    for k in range(n + 1):
        cols = np.flatnonzero(expo[:, k])
        factor = expo[cols, k].astype(np.float64)
        cols.setflags(write=False)
        factor.setflags(write=False)
        tables.append((cols, factor))
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
