"""Randomness: complex Gaussians, Haar unitaries, line frames, rotations.

Every sampler is a deterministic function of an RngStream, which couples a
64-bit seed with a 64-bit stream index through the counter-based Philox
generator.  Two streams built from the same (seed, stream_index) replay the
same draws, and draws under distinct stream indices are independent.

Normal deviates come from Box-Muller applied to Philox uniforms rather than
from numpy's ziggurat, so the draw sequence is pinned down by
the uniform stream alone.  Complex standard Gaussians follow the
E|z|^2 = 1 convention: z = (g1 + i g2)/sqrt(2) with g1, g2 independent
standard real normals, equivalently |z|^2 ~ Exp(1) with uniform phase.

The matrix-side estimators need only the law of the Gram matrix G = A A*
of a Gaussian r x m matrix A, and of the squared moduli of a Gaussian
vector.  gaussian_squared_moduli draws the latter from the radius uniforms
alone.  gaussian_gram draws G's factor L in G = L L* by the complex
Bartlett decomposition (Goodman, Ann. Math. Stat. 34, 1963; Edelman, MIT
thesis, 1989): from r m unit exponentials and (r - 1)(r - 2)/2 phase
uniforms per matrix, against the 2 r m uniforms of A itself, and with no
phase at all for r <= 2.  It returns L, not G: tr G^-1, det G and the
operator norm are all read off L directly, and G's entries are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bwspace
from .bwspace import SystemCoords

_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer chain) for derived seeds."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (int(p) & _MASK64)) & _MASK64
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
        x ^= x >> 31
    return x


def check_seed(seed: int, *stream_indices: int) -> None:
    """The one seed rule: reject a seed or stream index that is not an integer
    (bwspace.check_integers), then one outside [0, 2^64)."""
    bwspace.check_integers(seed=seed, stream_index=stream_indices)
    if not all(0 <= j <= _MASK64 for j in (seed, *stream_indices)):
        raise ValueError("seed and stream_index must be unsigned 64-bit integers")


def _unit(words: np.ndarray) -> np.ndarray:
    """U[0, 1) deviates (x >> 11) * 2**-53 of uint64 words x, numpy's
    Generator.random rule; the one word-to-uniform map of both stream paths.
    The words are shifted in place, so callers pass fresh arrays."""
    words >>= np.uint64(11)
    return words * 2.0**-53


@dataclass
class RngStream:
    """One reproducible stream of uniforms keyed by (seed, stream_index)."""

    seed: int
    stream_index: int = 0
    _bits: np.random.Philox | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_seed(self.seed, self.stream_index)

    def uniforms(self, shape) -> np.ndarray:
        """U[0, 1) deviates, advancing the stream: _unit of its next Philox words."""
        if self._bits is None:
            key = np.array([self.seed, self.stream_index], dtype=np.uint64)
            self._bits = np.random.Philox(key=key)
        return _unit(self._bits.random_raw(int(np.prod(shape)))).reshape(shape)


# Philox-4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011): round multipliers and the Weyl increments of the key schedule
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products a * m, a uint64 array, m a
    64-bit constant; the high word is built from 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a0, a1 = a & _LO32, a >> _S32
    t = a1 * m0 + ((a0 * m0) >> _S32)
    w = (t & _LO32) + a0 * m1
    return a * np.uint64(m), a1 * m1 + (t >> _S32) + (w >> _S32)


def uniforms_for_streams(seed: int, indices, count: int) -> np.ndarray:
    """U[0, 1) deviates (len(indices), count): row i equals
    RngStream(seed, indices[i]).uniforms(count) bit for bit.

    Philox is counter-based, so block c of key (seed, j) is a pure function of
    (seed, j, c), and every stream's blocks come from one array pass.  numpy's
    Philox starts at counter (1, 0, 0, 0) and returns the 4 words of a block
    in order; both paths map the words to uniforms by _unit.  The arithmetic
    stays on uint64 arrays, where overflow wraps without a warning.
    """
    keys = [seed, *indices]
    # a range's extremes are its ends
    check_seed(seed, *([*indices[:1], *indices[-1:]] if isinstance(indices, range) else indices))
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    k = np.array(keys, dtype=np.uint64)
    k0, k1 = k[:1, None], k[1:, None]
    blocks = -(-count // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (len(k1), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(c0, _PHILOX_M[0])
        lo1, hi1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k1), 4 * blocks)[:, :count]
    return _unit(words)


def complex_gaussians(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from two equal-shape arrays of U[0, 1) deviates."""
    # polar Box-Muller: radius^2 ~ Exp(1), uniform phase
    return np.sqrt(-np.log1p(-u)) * np.exp(2j * np.pi * v)


def complex_gaussian_array(rng: RngStream, shape) -> np.ndarray:
    """I.i.d. standard complex Gaussians (E|z|^2 = 1) of the given shape."""
    u = rng.uniforms(shape)
    v = rng.uniforms(shape)
    return complex_gaussians(u, v)


def gaussian_squared_moduli(rng: RngStream, shape) -> np.ndarray:
    """|z|^2 for the entries z of complex_gaussian_array(rng, shape), up to
    rounding: the unit exponentials -log(1 - u) of its radius uniforms u.

    The phase uniforms, drawn after them, are not drawn at all: the stream
    advances by prod(shape) uniforms.
    """
    return -np.log1p(-rng.uniforms(shape))


def check_shape(r: int, m: int, name: str = "m") -> None:
    """The one r x m shape rule: integers 1 <= r <= m (bwspace.check_integers
    first); name is the caller's own name for m."""
    bwspace.check_integers(r=r, **{name: m})
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= {name}, got r = {r}, {name} = {m}")


def gaussian_gram(rng: RngStream, count: int, r: int, m: int) -> tuple[dict, dict]:
    """Bartlett factors L of the Gram matrices G = A A* = L L* of count
    Gaussian r x m matrices A (1 <= r <= m), equal to A A* in law.

    L is r x r lower triangular with independent entries, L_ii^2 ~
    Gamma(m - i), the squared norm of the part of row i of A orthogonal to
    rows 0..i-1, and L_ik ~ CN(0, 1) for i > k.  L -> D L D* for a diagonal
    unitary D leaves G's eigenvalues unchanged, so column 0 of L is taken
    real and non-negative; the other entries below the diagonal keep a
    phase.  Each matrix takes one row of a (count, T) uniform array, T =
    sum_{i<r} (m - i) + r(r - 1)/2 + (r - 1)(r - 2)/2, whose columns are, in
    order: the m - i exponentials summed into L_ii^2, row by row; the
    squared moduli |L_ik|^2, i > k, row major; one phase uniform for each
    L_ik with k >= 1, in the same order.  At r = 1 that is
    gaussian_squared_moduli(rng, (count, m)), summed.

    Returns (sq, phased): sq[i, k] (k <= i) is the real array of |L_ik|^2,
    and phased[i, k] (1 <= k < i) the complex array of L_ik.  The real
    entries L_ii and L_i0 are the square roots of sq, taken only where a
    caller needs them; no square root is taken at r <= 2.
    """
    check_shape(r, m)
    below = [(i, k) for i in range(1, r) for k in range(i)]
    phased = [(i, k) for i, k in below if k]
    n_diag = r * m - r * (r - 1) // 2
    n_exp = n_diag + len(below)
    # one column per uniform, so every slice below is contiguous
    u = np.ascontiguousarray(rng.uniforms((count, n_exp + len(phased))).T)
    e = -np.log1p(-u[:n_exp])
    ends = np.cumsum([m - i for i in range(r)])
    sq = {(i, i): e[end - (m - i):end].sum(axis=0) for i, end in enumerate(ends)}
    sq.update(zip(below, e[n_diag:]))
    return sq, {key: np.sqrt(sq[key]) * np.exp(2j * np.pi * v)
                for key, v in zip(phased, u[n_exp:])}


def complex_gaussian_vector(rng: RngStream, n: int) -> np.ndarray:
    """Standard Gaussian vector in C^n."""
    bwspace.check_counts(n=n)
    return complex_gaussian_array(rng, (n,))


def gaussian_system(rng: RngStream, n: int, degrees) -> SystemCoords:
    """Standard Gaussian system: i.i.d. standard complex Gaussian coordinates.

    By orthonormality of the stored basis this is exactly the standard
    Gaussian ensemble on the system space; E ||h||^2 equals the complex
    dimension of the space.
    """
    degs = bwspace.check_degrees(n, degrees)
    coords = [
        complex_gaussian_array(rng, (math.comb(n + d, n),)) for d in degs
    ]
    return bwspace.make_system(n, degs, coords)


def haar_unitary(rng: RngStream, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-normalized QR of a Ginibre matrix."""
    bwspace.check_counts(dim=dim)
    return unitary_from_ginibre(complex_gaussian_array(rng, (dim, dim)))


def unitary_from_ginibre(a: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (..., dim, dim) of Ginibre matrices.

    QR with the phases of R's diagonal moved into Q, which makes the law of
    Q exactly Haar.
    """
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def rotate_system(h: SystemCoords, u) -> SystemCoords:
    """Coordinates of the rotated system sigma_h(v) = h(u* v) for unitary u.

    Each equation is bwspace.substitute_forms under the map u*, exact up to
    rounding at a cost of (d+1)^n evaluations of it; the Bombieri-Weyl norm
    is preserved.
    """
    um = np.asarray(u, dtype=np.complex128)
    dim = h.n + 1
    if um.shape != (dim, dim):
        raise ValueError(f"unitary must be {dim} x {dim}, got {um.shape}")
    if not np.linalg.norm(um.conj().T @ um - np.eye(dim)) <= 1e-8:  # NaN fails too
        raise ValueError("matrix is not unitary")
    return bwspace.make_system(h.n, h.degrees, [
        bwspace.substitute_forms(h.n, d, c[None], um.conj().T[None, None])[0, 0]
        / bwspace.monomial_basis(h.n, d)[1]
        for d, c in zip(h.degrees, h.coords)])


def orthonormal_pair(g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt along the last axis: orthonormal (u, v) spanning each (g1, g2)."""
    u = g1 / np.linalg.norm(g1, axis=-1, keepdims=True)
    w = g2 - np.sum(np.conj(u) * g2, axis=-1, keepdims=True) * u
    return u, w / np.linalg.norm(w, axis=-1, keepdims=True)
