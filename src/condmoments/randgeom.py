"""Randomness: complex Gaussians, Haar unitaries, fibers, rotations.

Every sampler is a deterministic function of an RngStream, which couples a
64-bit seed with a 64-bit stream index through the counter-based Philox
generator.  Two streams built from the same (seed, stream_index) replay the
same draws, and draws under distinct stream indices are independent.

Normal deviates come from Box-Muller applied to Philox uniforms rather than
from the generator's own ziggurat, so the draw sequence is pinned down by
the uniform stream alone.  Complex standard Gaussians follow the
E|z|^2 = 1 convention: z = (g1 + i g2)/sqrt(2) with g1, g2 independent
standard real normals, equivalently |z|^2 ~ Exp(1) with uniform phase.
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


@dataclass
class RngStream:
    """One reproducible stream of uniforms keyed by (seed, stream_index)."""

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream_index <= _MASK64):
            raise ValueError("seed and stream_index must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_index], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def uniforms(self, shape) -> np.ndarray:
        """U[0, 1) deviates, advancing the stream."""
        return self.generator().random(shape)


def complex_gaussians(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from two equal-shape arrays of U[0, 1) deviates."""
    # polar Box-Muller: radius^2 ~ Exp(1), uniform phase
    return np.sqrt(-np.log1p(-u)) * np.exp(2j * np.pi * v)


def complex_gaussian_array(rng: RngStream, shape) -> np.ndarray:
    """I.i.d. standard complex Gaussians (E|z|^2 = 1) of the given shape."""
    u = rng.uniforms(shape)
    v = rng.uniforms(shape)
    return complex_gaussians(u, v)


def complex_gaussian_vector(rng: RngStream, n: int) -> np.ndarray:
    """Standard Gaussian vector in C^n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return complex_gaussian_array(rng, (n,))


def gaussian_matrix(rng: RngStream, r: int, m: int) -> np.ndarray:
    """r x m matrix with i.i.d. standard complex Gaussian entries."""
    if r < 1 or m < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {r} x {m}")
    return complex_gaussian_array(rng, (r, m))


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
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return unitary_from_ginibre(complex_gaussian_array(rng, (dim, dim)))


def unitary_from_ginibre(a: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (..., dim, dim) of Ginibre matrices.

    QR with the phases of R's diagonal moved into Q, which makes the law of
    Q exactly Haar.
    """
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def sample_fiber(rng: RngStream, x, n: int, degrees) -> SystemCoords:
    """Standard Gaussian draw conditioned on vanishing at a unit-norm point.

    Draws a standard Gaussian system and removes, equation by equation, its
    component along the reproducing kernel at x.  Since ||x|| = 1 the kernel
    has unit norm and the projection is h_i - h_i(x) <., x>^{d_i}; the result
    is standard Gaussian on the subspace of systems vanishing at x.
    """
    v = np.asarray(x, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("fiber point must have unit norm")
    h = gaussian_system(rng, n, degrees)
    values = bwspace.evaluate(h, v)
    coords = []
    for i, d in enumerate(h.degrees):
        k = bwspace.kernel_poly(v, d)
        coords.append(h.coords[i] - values[i] * k.coords[0])
    return bwspace.make_system(n, h.degrees, coords)


def rotate_system(h: SystemCoords, u) -> SystemCoords:
    """Coordinates of the rotated system sigma_h(v) = h(u* v) for unitary u.

    Computed by exact expansion of each equation's monomial form under the
    linear substitution; the Bombieri-Weyl norm is preserved.
    """
    um = np.asarray(u, dtype=np.complex128)
    dim = h.n + 1
    if um.shape != (dim, dim):
        raise ValueError(f"unitary must be {dim} x {dim}, got {um.shape}")
    if np.linalg.norm(um.conj().T @ um - np.eye(dim)) > 1e-8:
        raise ValueError("matrix is not unitary")

    # (u* v)_k = sum_l conj(u[l, k]) v_l: the linear form substituted for x_k
    forms = um.conj().T  # row k = coefficients of the form replacing x_k

    new_coords = []
    for i, d in enumerate(h.degrees):
        expo, w = bwspace.monomial_basis(h.n, d)
        index_of = {j: p for p, j in enumerate(bwspace.monomial_indices(h.n, d))}
        mono_coeffs = w * h.coords[i]
        acc = np.zeros(len(w), dtype=np.complex128)
        for j_row, a in zip(expo, mono_coeffs):
            if a == 0:
                continue
            # expand prod_k form_k^{j_k} as a dict multi-index -> coefficient
            poly = {(0,) * dim: 1.0 + 0.0j}
            for k in range(dim):
                for _ in range(int(j_row[k])):
                    nxt: dict[tuple[int, ...], complex] = {}
                    for mono, coef in poly.items():
                        for l in range(dim):
                            f = forms[k, l]
                            if f == 0:
                                continue
                            key = mono[:l] + (mono[l] + 1,) + mono[l + 1:]
                            nxt[key] = nxt.get(key, 0.0 + 0.0j) + coef * f
                    poly = nxt
            for mono, coef in poly.items():
                acc[index_of[mono]] += a * coef
        new_coords.append(acc / w)
    return bwspace.make_system(h.n, h.degrees, new_coords)


def random_projective_line(rng: RngStream, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair (u, v) in C^{n+1} spanning a uniform 2-plane.

    Gaussian pair followed by Gram-Schmidt; the law of the span is invariant
    under the unitary group.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    while True:
        g1 = complex_gaussian_vector(rng, n + 1)
        g2 = complex_gaussian_vector(rng, n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u, v = orthonormal_pair(g1, g2)
        if np.all(np.isfinite(u)) and np.all(np.isfinite(v)):  # else measure zero, retry
            return u, v


def orthonormal_pair(g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt along the last axis: orthonormal (u, v) spanning each (g1, g2)."""
    u = g1 / np.linalg.norm(g1, axis=-1, keepdims=True)
    w = g2 - np.sum(np.conj(u) * g2, axis=-1, keepdims=True) * u
    return u, w / np.linalg.norm(w, axis=-1, keepdims=True)
