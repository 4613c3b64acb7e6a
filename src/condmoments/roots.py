"""Zero-set sampling for single-equation systems.

Every uniform projective line meets a degree-d hypersurface in exactly d
points (with multiplicity), and in complex projective space the tangent
space of a hypersurface at any smooth point is a complex hyperplane, all of
which are unitarily equivalent, so the line-section point process has
constant density with respect to the volume measure of the zero set.

The estimator's lines are fixed.  The Gaussian (Bombieri-Weyl) ensemble is
U(n+1)-invariant and mu(h o U, x) = mu(h, U x), so for lines L chosen
independently of h, E_h[average of mu^alpha over V_h cut by L] equals E_h
E_U[the same over U L], U Haar, which by the line-section identity is
E_h[average over V_h] (Burgisser and Cucker, Condition, 2013, on integral
geometry).  Fixed lines thus give the outer mean over systems without bias;
only each system's own average is no longer its zero-set average, and
nothing reads it as one.  So at n >= 2 sample_zero_sets cuts every system by
the same lines, _fixed_frames(n, lines), drawn once from one fixed stream as
sample_variety_points draws its frames, and restricts a whole chunk to them
by one product with a cached matrix, _restriction(n, d, lines).  At n = 1
the line is the whole space and the estimator returns all d roots, so
nothing is sampled: each form is solved in the fixed frame (e_0, e_1), where
its coefficients are its own coordinates scaled by the BW weights
bwspace.monomial_basis(1, d)[1], with no restriction.  System j draws from
RngStream(seed, j) its coordinates and nothing else, all systems of a chunk
in one randgeom.uniforms_for_streams pass, so a line's roots never depend on
the batch it is solved in.

sample_variety_points, for an arbitrary form (binary_form_roots is its n = 1
case), draws its own frames from its stream instead: each is
randgeom.orthonormal_pair (Gram-Schmidt) on a Gaussian pair, which is
already Haar among orthonormal pairs and orthonormal to eps times the
condition number of the pair, and each equation is restricted straight to
its line's frame (u, v), the map s u + t v, by bwspace.substitute_forms (one
DFT of its values at d + 1 points).  Either way a line's binary form is
itself an n = 1 system (restrict_to_line returns it as one), and its roots
c, the points c0 u + c1 v, are taken in closed form at d <= 3 (Cardano's
formula, Newton-polished, at d = 3) and as the eigenvalues of the companion
matrices, in one batched LAPACK call, from d = 4.  The points are not
checked here: every consumer checks each one against h itself
(conditioning.zero_set_mu for the estimator).  A line fails its system only
where _row_roots fails it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bwspace, randgeom
from .bwspace import SystemCoords
from .conditioning import NumericError
from .randgeom import RngStream


def restrict_to_line(h: SystemCoords, u, v) -> SystemCoords:
    """The n = 1 system g(s, t) = h(s u + t v) of a single-equation system h
    and an orthonormal pair (u, v); bwspace.substitute_forms on one form and
    one map, the 2-column matrix (u, v).

    g's coordinates are the monomial coefficients of s^(d-k) t^k divided by
    bwspace.monomial_basis(1, d)[1], sqrt(binom(d, k)), like any n = 1
    system's.
    """
    if h.r != 1:
        raise ValueError(f"restriction needs a single-equation system, got r = {h.r}")
    uu = np.asarray(u, dtype=np.complex128).ravel()
    vv = np.asarray(v, dtype=np.complex128).ravel()
    if uu.shape != (h.n + 1,) or vv.shape != (h.n + 1,):
        raise ValueError("line vectors must live in C^(n+1)")
    pair = np.stack([uu, vv])
    if not np.linalg.norm(pair.conj() @ pair.T - np.eye(2)) <= 1e-8:  # NaN fails too
        raise ValueError("line vectors must be orthonormal")
    d = h.degrees[0]
    forms = bwspace.substitute_forms(h.n, d, h.coords[0][None], pair.T[None, None])
    return bwspace.make_system(1, (d,), [forms[0, 0] / bwspace.monomial_basis(1, d)[1]])


def _start_roots(coeffs_asc: np.ndarray) -> np.ndarray:
    """Closed-form roots (R, d) of rows of degree d <= 3, coefficients of w^k.

    Rows need c_d != 0.  d = 2 takes q = -(c1 + s sqrt(c1^2 - 4 c0 c2)) / 2
    with the sign s that avoids cancellation, Re(conj(c1) s sqrt(...)) >= 0,
    and the roots q / c2 and c0 / q (both 0 when q = 0).

    d = 3 is Cardano's formula in the form of Press et al., Numerical
    Recipes, sec. 5.6: with a, b, c = c2, c1, c0 over c3, Q = (a^2 - 3b) / 9
    and R = (2a^3 - 9ab + 27c) / 54, C is the principal cube root of
    R + s sqrt(R^2 - Q^3), s chosen as at d = 2, and the roots are
    -(z C + Q / (z C)) - a/3 over the cube roots of unity z (-a/3 when
    C = 0, where Q = R = 0).  Two Newton steps on the cubic itself then
    take the roots to rounding: one is not enough for roots of very
    different sizes, e.g. 1e6, 1 and 1e-6.
    """
    if coeffs_asc.shape[1] == 4:
        c0, c1, c2, c3 = (coeffs_asc[:, k, None] for k in range(4))
        a, b, c = c2 / c3, c1 / c3, c0 / c3
        big_q = (a * a - 3.0 * b) / 9.0
        big_r = (a * (2.0 * a * a - 9.0 * b) + 27.0 * c) / 54.0
        sq = np.sqrt(big_r * big_r - big_q * big_q * big_q)
        z = np.array([1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75))])
        t = big_r + np.where((big_r.conj() * sq).real >= 0, sq, -sq)
        zc = z * (np.cbrt(np.abs(t)) * np.exp(1j / 3 * np.angle(t)))  # principal cube root
        w = -(zc + np.divide(big_q, zc, out=np.zeros_like(zc), where=zc != 0)) - a / 3.0
        for _ in range(2):
            f = ((c3 * w + c2) * w + c1) * w + c0
            df = (3.0 * c3 * w + 2.0 * c2) * w + c1
            w = w - np.divide(f, df, out=np.zeros_like(f), where=df != 0)
        return w
    c0, c1 = coeffs_asc[:, 0], coeffs_asc[:, 1]
    if coeffs_asc.shape[1] == 2:
        return (-c0 / c1)[:, None]
    c2 = coeffs_asc[:, 2]
    sq = np.sqrt(c1 * c1 - 4.0 * c0 * c2)
    q = -0.5 * (c1 + np.where((c1.conj() * sq).real >= 0, sq, -sq))
    return np.stack([q / c2, np.divide(c0, q, out=np.zeros_like(q), where=q != 0)], axis=1)


def _row_roots(coeffs_asc: np.ndarray):
    """Roots (R, d) of rows of coefficients of w^k, and the rows that failed.

    Rows of degree d <= 3 take their closed-form roots (_start_roots); from
    d = 4 the roots are the eigenvalues of each row's companion matrix, the
    method of np.roots, which is backward stable (Edelman and Murakami,
    Math. Comp. 1995).  A vanishing leading coefficient (a root at infinity)
    fails the row.  If LAPACK raises for the stack, the rows are solved one
    at a time, and a row that still raises fails.  A failed row has NaN
    roots.
    """
    d = coeffs_asc.shape[1] - 1
    mag = np.abs(coeffs_asc)
    failed = mag[:, -1] <= 1e-14 * np.max(mag, axis=1)  # also the zero row
    ok = np.flatnonzero(~failed)
    w = np.full((coeffs_asc.shape[0], d), np.nan, dtype=np.complex128)
    if d <= 3:
        w[ok] = _start_roots(coeffs_asc[ok])
        return w, failed
    desc = coeffs_asc[ok, ::-1]
    companion = np.zeros((ok.size, d, d), dtype=np.complex128)
    companion[:, 0] = -desc[:, 1:] / desc[:, :1]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    try:
        w[ok] = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        for row, matrix in zip(ok, companion):
            try:
                w[row] = np.linalg.eigvals(matrix)
            except np.linalg.LinAlgError:
                failed[row] = True
    return w, failed


def _root_vectors(w: np.ndarray):
    """The unit vectors (c0, c1) = (1, w) / sqrt(1 + |w|^2) of the roots w
    (R, d) of dehomogenized forms, as c0 (real) and c1; NaN on failed rows."""
    c0 = 1.0 / np.sqrt(1.0 + (w.real * w.real + w.imag * w.imag))
    return c0, w * c0


def _line_points(forms: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Zero-set points (S, L*d, n+1) of S equations from their binary forms
    (S, L, d+1) on their L lines, and the systems with a line that
    _row_roots failed.

    The frames u, v are (S, L, n+1), one per system and line, or (L, n+1),
    the same lines for every system.  A unit root c of a line's form is the
    point c0 u + c1 v.
    """
    n_sys, n_lines, order = forms.shape
    w, failed = _row_roots(forms.reshape(-1, order))
    c0, c1 = (c.reshape(n_sys, n_lines, order - 1, 1) for c in _root_vectors(w))
    pts = c0 * u[..., None, :] + c1 * v[..., None, :]
    return pts.reshape(n_sys, -1, u.shape[-1]), failed.reshape(n_sys, n_lines).any(axis=1)


def _solve(coeffs: np.ndarray, d: int, u: np.ndarray, v: np.ndarray):
    """_line_points of S equations (S, K) on their own L lines u, v
    (S, L, n+1) each: each line's equation is restricted straight to its
    frame (u, v), the binary form g(s, t) = h(s u + t v) of
    bwspace.substitute_forms."""
    forms = bwspace.substitute_forms(u.shape[-1] - 1, d, coeffs, np.stack([u, v], -1))
    return _line_points(forms, u, v)


def binary_form_roots(g: SystemCoords, rng: RngStream) -> np.ndarray:
    """The d projective roots of a binary form g, an n = 1 single-equation
    system, as unit vectors in C^2: sample_variety_points(g, rng, 1).

    A form with monomial coefficients b_k of s^(d-k) t^k is the system
    bwspace.make_system(1, (d,), [b / bwspace.monomial_basis(1, d)[1]]).
    Clustered (multiple) roots are returned as nearby simple roots.
    """
    return sample_variety_points(g, rng, 1)


def _section_size(n: int, lines: int) -> int:
    """Uniforms of `lines` line frames in C^(n+1): the (lines, 2, n+1)
    Gaussian line pairs, radius uniforms then phase uniforms, two per entry."""
    return 4 * lines * (n + 1)


def _sections(x: np.ndarray, n: int, lines: int):
    """Line frames (u, v) (S, lines, n+1) of S draws from their uniforms
    x (S, T) in stream order.

    Each frame is randgeom.orthonormal_pair of rows 0 and 1 of its drawn
    pair, at every n: Haar among orthonormal pairs, and orthonormal to eps
    times the condition number of the pair.
    """
    a, b = np.split(x, 2, axis=1)
    g = randgeom.complex_gaussians(a, b).reshape(x.shape[0], lines, 2, n + 1)
    return randgeom.orthonormal_pair(g[:, :, 0], g[:, :, 1])


# the key of the one stream that draws the estimator's lines at n >= 2, fixed
# once, before any estimate was seen; row 0 of uniforms_for_streams, so that
# no numpy.random generator is built for it
_FRAME_SEED = 777


@functools.lru_cache(maxsize=None)
def _fixed_frames(n: int, lines: int):
    """The estimator's lines at n >= 2, the same for every system and seed:
    the frames (u, v) (lines, n+1) of _sections on the first uniforms of
    stream (_FRAME_SEED, 0), cached and read-only."""
    x = randgeom.uniforms_for_streams(_FRAME_SEED, range(1), _section_size(n, lines))
    frames = tuple(f[0] for f in _sections(x, n, lines))
    for f in frames:
        f.setflags(write=False)
    return frames


@functools.lru_cache(maxsize=None)
def _restriction(n: int, d: int, lines: int) -> np.ndarray:
    """The matrix R (K, lines * (d+1)) that restricts degree-d equations to
    the fixed lines: coeffs (S, K) @ R are their binary forms on each line
    in turn, the coefficients of s^(d-k) t^k.  Restriction is linear in the
    coordinates, so R is bwspace.substitute_forms of the identity on the
    frames, cached and read-only."""
    k = math.comb(n + d, n)
    maps = np.broadcast_to(np.stack(_fixed_frames(n, lines), -1), (k, lines, n + 1, 2))
    r = bwspace.substitute_forms(n, d, np.eye(k, dtype=np.complex128), maps).reshape(k, -1)
    r.setflags(write=False)
    return r


def sample_zero_sets(seed: int, systems: range, n: int, d: int, lines: int):
    """Gaussian degree-d equations j in systems and their zero-set points.

    System j's coordinates are the first 2K uniforms of RngStream(seed, j),
    bit for bit, and it draws nothing else; one
    randgeom.uniforms_for_streams pass draws them for every system in
    systems.  Returns the coordinates (S, K), the points (S, lines * d, n+1)
    and the systems whose root search failed.  At n >= 2 every system is cut
    by the same lines, _fixed_frames(n, lines), and the chunk is restricted
    to them by one product with the cached matrix _restriction(n, d, lines).
    Pass lines = 1 for n = 1, where each form is solved in the fixed frame
    (e_0, e_1): its ascending coefficients are its coordinates times
    bwspace.monomial_basis(1, d)[1], sqrt(binom(d, k)), and a root w is the
    point (c0, c0 w).
    """
    k = math.comb(n + d, n)
    x = randgeom.uniforms_for_streams(seed, systems, 2 * k)
    coeffs = randgeom.complex_gaussians(x[:, :k], x[:, k:])
    if n == 1:
        w, failed = _row_roots(coeffs * bwspace.monomial_basis(1, d)[1])
        return coeffs, np.stack(_root_vectors(w), axis=-1), failed
    forms = (coeffs @ _restriction(n, d, lines)).reshape(len(coeffs), lines, d + 1)
    points, failed = _line_points(forms, *_fixed_frames(n, lines))
    return coeffs, points, failed


def sample_variety_points(h: SystemCoords, rng: RngStream, lines: int) -> np.ndarray:
    """Zero-set points of a single-equation system via uniform line sections.

    Returns the stacked intersection points of `lines` independent uniform
    projective lines with the zero set, embedded back in C^(n+1) as unit
    vectors; each line contributes exactly d points counted with
    multiplicity.  For n = 1 the line is the whole projective space and the
    d roots of the binary form h are returned once (binary_form_roots).

    Each line is drawn from rng, a Haar frame (_sections) per line, at every
    n.  The estimator (sample_zero_sets) cuts every system by the same fixed
    lines instead, so at n >= 2 the points here lie on other lines than the
    estimator's.  At n = 1 h is arbitrary, so the frame of C^2 is drawn too: in the fixed frame (e_0, e_1) a root at (0 : 1), such as
    that of s t, would zero the leading coefficient and fail the row.  It
    returns the estimator's n = 1 zero set up to rounding, phase and order.
    A line that _row_roots fails, which has probability zero (a root at the
    frame's chart boundary), raises NumericError.  Everything is drawn from
    rng.
    """
    if h.r != 1:
        raise ValueError(f"variety sampling needs r = 1, got r = {h.r}")
    if all(np.all(c == 0) for c in h.coords):
        raise ValueError("cannot sample the zero set of the zero system")
    bwspace.check_counts(lines=lines)
    n, d = h.n, h.degrees[0]
    lines = 1 if n == 1 else lines
    x = rng.uniforms((1, _section_size(n, lines)))
    points, failed = _solve(h.coords[0][None], d, *_sections(x, n, lines))
    if failed[0]:
        raise NumericError("root finding failed on a line")
    return points[0]
