"""Monte Carlo estimators for the moment identities, with comparisons.

Sampling discipline: one driver, _sample, runs every estimator.  It asks
the estimator's log-values for consecutive ranges of sample indices, in order,
of the size _step states once for every estimator, and ranges() counts them
(BLOCK_SAMPLES draws at a time on the matrix side, block i drawing from the
counter-based substream RngStream(seed, i); on the polynomial side chunks of
systems of about CHUNK_POINTS points, system j drawing from RngStream(seed, j)
its coordinates and nothing more, as whole arrays (roots.sample_zero_sets cuts
every system by the same fixed lines at n >= 2 and solves each form in the
fixed frame (e_0, e_1) at n = 1); conditioning.zero_set_mu checks the
chunk's points against h and gives their mu), and reduces them
in sample order with pairwise summation, so a result is a pure function of
(estimator_id, params, seed, n_samples).  Before the first range it raises
the allocator's thresholds once per process (_keep_freed_memory_mapped), so
a chunk reuses the pages its predecessor freed instead of faulting fresh
ones in.  It states the one failure rule: a NaN log-value is a failed
sample; more failures than the estimator allows (none for a matrix draw,
_MAX_FAILURE_RATE of the systems) raise NumericError, and fewer are dropped
from the mean and counted.  Every
matrix-side integrand is a function of the Gram matrix G = A A* of the
Gaussian r x m draw A, or of a Gaussian vector's squared moduli, so the
estimators draw those and not A: G as its Bartlett factor L, G = L L*, by
randgeom.gaussian_gram, equal to A A* in law, and the moduli by
randgeom.gaussian_squared_moduli, equal to the full draw's up to rounding.
Both take only radius uniforms at r = 1 and for vectors.  Every integrand
is read off L, and G's entries are never formed: log det G = sum
log |L_ii|^2, at the Frobenius norm log tr G^-1 = log ||L^-1||_F^2 by
forward substitution (_log_trace_inverse), and at the operator norm
lambda_min(G) = sigma_min(L)^2 (_log_pinv_norm).

Domains and heavy tails: each <id>_domain checks the estimator's own rules
(norm name, alpha > 0, r = 1) and takes every shared rule from its one
owner: integer counts >= 1 from bwspace.check_counts, the r x m shape from
randgeom.check_shape, and the identity's rule from the one place in
formulas that states it (EstimatorConfig takes its counts from
check_counts and its seed from randgeom.check_seed).  Its range and heavy
flag come from formulas.check_tail at the estimator's (s, e), which first
rejects a parameter that is not a finite number: the integrand behaves as
X^e near X = 0 with X ~ Gamma(s), a finite mean iff e > -s, outside which
the domain raises, and a finite variance iff 2e > -s.  It returns True
whenever the estimand's second moment is infinite or unproven, and the
estimator then switches to median-of-means over MOM_BUCKETS contiguous
buckets, reporting the bucket-mean spread (sample std of bucket means
divided by sqrt(buckets)) as the dispersion; z-scores against that
dispersion are approximate and the acceptance tolerances account for it.

The Gram integrands alpha log ||A^+|| + w log det(A A*) are assembled in log
space and exponentiated against the running maximum, since the determinant
powers span hundreds of orders of magnitude.
"""

from __future__ import annotations

import ctypes
import functools
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from . import bwspace, conditioning, formulas, randgeom, roots
from .bwspace import check_counts
from .conditioning import NumericError
from .formulas import FormulaValue, check_finite
from .randgeom import RngStream

BLOCK_SAMPLES = 4096
MOM_BUCKETS = 32

# share of systems whose root search may fail before the polynomial estimator aborts
_MAX_FAILURE_RATE = 1e-3
# the polynomial estimator runs its systems in chunks of about this many
# points (_step), which bounds its working memory: the largest power of
# two that keeps every benchmark workload's peak RSS within 1% of what the
# 4096-point chunks of the earlier (systems, points, monomials) evaluation
# took (16384 costs poly-lines 5%)
CHUNK_POINTS = 8192


@dataclass(frozen=True)
class EstimatorConfig:
    """How much to sample and from where.

    samples counts matrices/vectors for the matrix-side estimators and
    systems for the polynomial estimator; lines_per_system only matters for
    the latter (and is ignored when n = 1, where the zero set is finite).
    """

    samples: int
    seed: int
    lines_per_system: int = 8

    def __post_init__(self):
        check_counts(samples=self.samples, lines_per_system=self.lines_per_system)
        randgeom.check_seed(self.seed)


@dataclass(frozen=True)
class EstimateResult:
    """A reproducible Monte Carlo estimate.

    n_samples counts the draws or systems in the mean; attempted (n_samples
    when not given) also counts those dropped from it.
    """

    mean: float
    stderr: float
    n_samples: int
    method: str
    seed: int
    estimator_id: str
    params: dict = field(default_factory=dict)
    attempted: int | None = None

    def __post_init__(self):
        if self.attempted is None:
            object.__setattr__(self, "attempted", self.n_samples)

    @property
    def dropped(self) -> int:
        return self.attempted - self.n_samples


@dataclass(frozen=True)
class Comparison:
    """An estimate checked against a reference value.

    For closed-form references reference_stderr is 0 and the z-score is
    (mean - reference) / stderr; for estimated references the dispersion is
    combined in quadrature and reference_estimate is the estimate compared
    against.  passed is |z| <= tolerance_sigmas.
    """

    estimate: EstimateResult
    closed_form: FormulaValue | None
    reference_value: float
    reference_stderr: float
    z_score: float
    passed: bool
    tolerance_sigmas: float
    lhs_scale: float = 1.0
    reference_estimate: EstimateResult | None = None


def _reduce_log_values(logv: np.ndarray, heavy: bool) -> tuple[float, float, str]:
    """Mean and dispersion from per-sample log-values.

    The plain mean reduces the samples; heavy (the domain's flag) reduces the
    means of MOM_BUCKETS contiguous buckets and takes their median.  Both then
    take one spread.  All sums are pairwise over the fixed sample order.  The
    buckets are those of np.array_split (the first size % MOM_BUCKETS hold one
    value more), and the median is the middle of the sorted means, or the
    mean of the middle two; both equal np.mean and np.median bit for bit,
    without the numpy.ma import that the first np.median call of a process
    makes.
    """
    m = float(np.max(logv))
    if math.isnan(m):
        return math.nan, math.nan, "plain-mean"
    if m == -math.inf:
        return 0.0, 0.0, "plain-mean"
    if m == math.inf:
        return math.inf, math.inf, "plain-mean"
    ex = np.exp(logv - m)
    if heavy:
        k = min(MOM_BUCKETS, ex.size)
        size, extra = divmod(ex.size, k)
        cut = extra * (size + 1)
        ex = np.concatenate([ex[:cut].reshape(extra, size + 1).mean(axis=1),
                             ex[cut:].reshape(k - extra, size).mean(axis=1)])
        ordered = np.sort(ex)
        center = float(ordered[k // 2] if k % 2 else (ordered[k // 2 - 1] + ordered[k // 2]) / 2)
        method = f"median-of-means({k})"
    else:
        center, method = float(np.mean(ex)), "plain-mean"
    spread = float(np.std(ex, ddof=1)) if ex.size > 1 else 0.0
    mean = math.exp(m + math.log(center)) if center > 0 else 0.0
    stderr = math.exp(m + math.log(spread) - 0.5 * math.log(ex.size)) if spread > 0 else 0.0
    return mean, stderr, method


@functools.cache
def _keep_freed_memory_mapped() -> bool:
    """Keep freed working memory mapped for reuse; True if the allocator took it.

    glibc serves blocks above its mmap threshold with fresh mappings and
    returns a freed heap top above its trim threshold to the kernel, so every
    chunk of a run (arrays of 0.2-0.6 MB) would fault its working memory in
    again.  Both are raised: M_MMAP_THRESHOLD (-3) to 32 MiB, then
    M_TRIM_THRESHOLD (-1) to 128 MiB, never the latter alone, which would
    turn off glibc's dynamic mmap threshold.  Without glibc (macOS, musl,
    Windows) nothing is changed.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 128 << 20) == 1


def _sample(
    estimator_id: str,
    params: dict,
    cfg: EstimatorConfig,
    heavy: bool,
    log_values,
    step: int = BLOCK_SAMPLES,
    allowed: float = 0.0,
    unit: str = "draws",
) -> EstimateResult:
    """Reduce log_values(seed, samples) over cfg.samples in ranges of step samples.

    A NaN log-value is a failed sample.  More than allowed * cfg.samples of
    them raise NumericError; fewer are dropped from the mean and counted.
    """
    _keep_freed_memory_mapped()
    logv = np.concatenate([log_values(cfg.seed, range(start, min(start + step, cfg.samples)))
                           for start in range(0, cfg.samples, step)])
    nan = np.isnan(logv)
    failed = int(np.count_nonzero(nan))
    if failed > allowed * cfg.samples:
        raise NumericError(f"{estimator_id}: {failed} of {cfg.samples} {unit} gave a NaN "
                           f"log-value; the failure rate exceeds {allowed:.1%}")
    kept = logv[~nan] if failed else logv
    mean, stderr, method = _reduce_log_values(kept, heavy)
    return EstimateResult(
        mean=mean,
        stderr=stderr,
        n_samples=int(kept.size),
        method=method,
        seed=cfg.seed,
        estimator_id=estimator_id,
        params=params,
        attempted=cfg.samples,
    )


def _step(estimator_id: str, args, lines_per_system: int) -> int:
    """The samples of each range _sample runs for estimate_<estimator_id>(*args, cfg)
    at cfg.lines_per_system = lines_per_system: BLOCK_SAMPLES draws on the matrix
    side; for poly_moment the systems of about CHUNK_POINTS points, counting
    d + 1 for each line, the coefficients of its restricted form, one more than
    the d roots that conditioning.zero_set_mu evaluates (n = 1 has one line, in
    the same chunks)."""
    if estimator_id != "poly_moment":
        return BLOCK_SAMPLES
    n, degrees = args[0], args[1]
    lines = 1 if n == 1 else lines_per_system
    return max(1, CHUNK_POINTS // (lines * (int(degrees[0]) + 1)))


def ranges(estimator_id: str, args, samples: int, lines_per_system: int) -> int:
    """How many log_values calls _sample makes for estimate_<estimator_id>(*args, cfg)
    at cfg.samples = samples and cfg.lines_per_system = lines_per_system."""
    return -(-samples // _step(estimator_id, args, lines_per_system))


def _block_rng(seed: int, samples: range) -> RngStream:
    """The stream of a matrix-side block: block i is samples
    BLOCK_SAMPLES * i onwards and draws from RngStream(seed, i)."""
    return RngStream(seed, samples.start // BLOCK_SAMPLES)


def _draws(seed: int, samples: range, r: int, m: int) -> tuple[dict, dict]:
    """Bartlett factors L of the Gram matrices A A* = L L* of one matrix-side
    block of Gaussian r x m draws, as randgeom.gaussian_gram's (sq, phased)."""
    return randgeom.gaussian_gram(_block_rng(seed, samples), len(samples), r, m)


def _vector_draws(seed: int, samples: range, n: int) -> np.ndarray:
    """Squared moduli (len(samples), n) of one block of Gaussian vectors in C^n."""
    return randgeom.gaussian_squared_moduli(_block_rng(seed, samples), (len(samples), n))


def _factor_rank(sq: dict) -> int:
    """r for a Bartlett factor's squared moduli, which hold r (r + 1) / 2 entries."""
    return math.isqrt(2 * len(sq))


def _factor_entries(sq: dict, phased: dict) -> dict:
    """L's entries L_ik, k <= i: the phased ones as drawn, the real ones
    (the diagonal and column 0) as square roots of their squared moduli."""
    return {key: phased[key] if key in phased else np.sqrt(x) for key, x in sq.items()}


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 without the square root."""
    return (z * z.conj()).real


def _log_trace_inverse(sq: dict, phased: dict) -> np.ndarray:
    """log tr G^-1 = log ||L^-1||_F^2 for a stack of Bartlett factors L of
    G = L L* (randgeom.gaussian_gram's (sq, phased)), by forward substitution
    over the stack; +inf where a diagonal entry of L is 0, never NaN.

    At r <= 2 only squared moduli enter: 1/a at r = 1 and, with a, b, c =
    |L_00|^2, |L_10|^2, |L_11|^2, 1/a + (1 + b/a)/c at r = 2.  From r = 3 on,
    column j of L^-1 is x_j = 1/L_jj, x_i = -(sum_{j<=k<i} L_ik x_k)/L_ii.
    No product of two diagonal entries is formed, so draws scaled by
    1e+-100 neither overflow nor underflow where tr G^-1 itself does not.
    """
    r = _factor_rank(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        if r == 1:
            tr = 1.0 / sq[0, 0]
        elif r == 2:
            a = sq[0, 0]
            tr = 1.0 / a + (1.0 + sq[1, 0] / a) / sq[1, 1]
        else:
            ell = _factor_entries(sq, phased)
            tr = 0.0
            for j in range(r):
                x = {j: 1.0 / ell[j, j]}
                for i in range(j + 1, r):
                    x[i] = -sum(ell[i, k] * x[k] for k in range(j, i)) / ell[i, i]
                tr = tr + sum(_abs2(v) for v in x.values())
        # tr G^-1 >= 1/|L_ii|^2, so it is infinite where L_ii = 0, which the
        # 0/0 and inf - inf of the substitution would turn into NaN
        return np.log(np.where(_singular(sq), np.inf, tr))


def _singular(sq: dict) -> np.ndarray:
    """The singular draws of a stack of Bartlett factors L: L is triangular,
    so G = L L* is singular exactly where some L_ii is 0."""
    return np.any([sq[i, i] == 0.0 for i in range(_factor_rank(sq))], axis=0)


def _log_det(sq: dict) -> np.ndarray:
    """log det G = sum log |L_ii|^2 for a stack of Bartlett factors L of G = L L*;
    -inf for a singular draw."""
    with np.errstate(divide="ignore"):
        return sum(np.log(sq[i, i]) for i in range(_factor_rank(sq)))


def _log_pinv_norm(sq: dict, phased: dict, norm: str) -> np.ndarray:
    """log ||A^+|| for a stack of Bartlett factors L of G = A A* = L L*:
    half of log tr G^-1 (Frobenius), or -log sigma_min(L) (operator).

    At r = 2, with a, b, c = |L_00|^2, |L_10|^2, |L_11|^2, det G = a c and
    lambda_max(G) = (a + b + c + hypot(a - b - c, 2 sqrt(a b))) / 2, which
    adds only non-negative terms, so -log sigma_min = (log lambda_max -
    log a - log c) / 2 holds every digit that lambda_min = det G / lambda_max
    would.  For any other r, sigma_min comes from the SVD of L itself, in
    sigma and not sigma^2, so no lambda underflows.  +inf for a singular
    draw, NaN for a draw with a non-finite entry.
    """
    if norm == "frobenius":
        return 0.5 * _log_trace_inverse(sq, phased)
    r = _factor_rank(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        if r == 2:
            a, b, c = sq[0, 0], sq[1, 0], sq[1, 1]
            high = 0.5 * (a + b + c + np.hypot(a - b - c, 2.0 * np.sqrt(a) * np.sqrt(b)))
            logv = 0.5 * (np.log(high) - np.log(a) - np.log(c))
        else:
            ell = np.zeros((len(sq[0, 0]), r, r), dtype=complex if phased else float)
            for (i, k), x in _factor_entries(sq, phased).items():
                ell[:, i, k] = x
            logv = -np.log(conditioning.singular_values(ell)[:, -1])
    return np.where(_singular(sq), np.inf, logv)


def _gram_log_values(r: int, m: int, alpha: float, norm: str, weight: float = 0):
    """_sample's log_values of ||A^+||^alpha det(A A*)^weight over Gaussian r x m matrices.

    The det term is skipped at weight 0, where 0 * log det is NaN on a singular draw.
    """

    def log_values(seed: int, samples: range) -> np.ndarray:
        sq, phased = _draws(seed, samples, r, m)
        logv = alpha * _log_pinv_norm(sq, phased, norm)
        return logv + weight * _log_det(sq) if weight else logv

    return log_values


def pinv_moment_domain(r: int, m: int, alpha: float, norm: str) -> bool:
    """Check the parameters of estimate_pinv_moment; True if the tail is heavy.

    Its own rules are the norm and alpha > 0; the shape r x m is
    randgeom.check_shape's, and the tail formulas.check_tail's at (s, e) =
    (m - r + 1, -alpha/2), with X the last Bartlett diagonal of the Gram
    matrix.  No closed form covers general alpha.
    """
    conditioning.check_norm(norm)
    randgeom.check_shape(r, m)
    check_finite(positive=True, alpha=alpha)
    return formulas.check_tail("alpha", alpha, m - r + 1)


def estimate_pinv_moment(
    r: int, m: int, alpha: float, norm: str, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||M^+||^alpha over standard Gaussian r x m complex matrices."""
    heavy = pinv_moment_domain(r, m, alpha, norm)
    params = {"r": r, "m": m, "alpha": alpha, "norm": norm}
    return _sample("pinv_moment", params, cfg, heavy, _gram_log_values(r, m, alpha, norm))


def detweighted_rect_domain(r: int, n: int, alpha: float, norm: str) -> bool:
    """Check the parameters of estimate_detweighted_rect; True if the tail is heavy.

    Its own rule is the norm; the shape r x n is randgeom.check_shape's, and
    the range of alpha formulas.check_rect_alpha's, the polynomial moment's.
    The flag is formulas.check_tail's at the integrand's own (s, e) =
    (n - r + 1, 1 - alpha/2): the same finite-mean range, and a finite
    variance below n - r + 3.
    """
    conditioning.check_norm(norm)
    randgeom.check_shape(r, n, "n")
    formulas.check_rect_alpha(n, r, alpha)
    return formulas.check_tail("alpha", alpha, n - r + 1, c=1)


def estimate_detweighted_rect(
    r: int, n: int, alpha: float, norm: str, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||A^+||^alpha |det A A*| over Gaussian r x n matrices."""
    heavy = detweighted_rect_domain(r, n, alpha, norm)
    params = {"r": r, "n": n, "alpha": alpha, "norm": norm}
    return _sample("detweighted_rect", params, cfg, heavy,
                   _gram_log_values(r, n, alpha, norm, 1))


def detweighted_square_domain(r: int, k: float, alpha: float, norm: str) -> bool:
    """Check the parameters of estimate_detweighted_square; True if the tail is heavy.

    r and k follow formulas.invnor2mdet_value, and alpha > 0.  The last
    Bartlett diagonal X = |L_(r-1)(r-1)|^2 ~ Exp(1) enters the integrand as
    X^(k - alpha/2), so the tail is formulas.check_tail's at (s, e) =
    (1, k - alpha/2).
    """
    conditioning.check_norm(norm)
    formulas.invnor2mdet_value(r, k)
    check_finite(positive=True, alpha=alpha)
    return formulas.check_tail("alpha", alpha, 1, c=k)


def estimate_detweighted_square(
    r: int, k: float, alpha: float, norm: str, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||B^-1||^alpha |det B|^(2k) over Gaussian r x r matrices.

    k is the determinant half-exponent: the absolute-moment identity uses
    k = n - r + 1 and the kernel-variety identity uses k = n - r.
    """
    heavy = detweighted_square_domain(r, k, alpha, norm)
    params = {"r": r, "k": k, "alpha": alpha, "norm": norm}
    return _sample("detweighted_square", params, cfg, heavy,
                   _gram_log_values(r, r, alpha, norm, k))


def _log_norm(sq: np.ndarray) -> np.ndarray:
    """log ||v|| from the squared moduli (count, n) of vectors v; -inf for v = 0."""
    with np.errstate(divide="ignore"):
        return np.log(np.sqrt(np.sum(sq, axis=1)))


def espnorm_domain(n: int, alpha: float) -> bool:
    """Check the parameters of estimate_espnorm; True if the tail is heavy.

    The preconditions are formulas.espnorm_value's; the tail is
    formulas.check_tail's at (s, e) = (n, alpha/2), with X = ||v||^2.
    """
    formulas.espnorm_value(n, alpha)
    return formulas.check_tail("alpha", alpha, n, sign=1)


def estimate_espnorm(n: int, alpha: float, cfg: EstimatorConfig) -> EstimateResult:
    """MC mean of ||v||^alpha over standard Gaussian vectors in C^n."""
    heavy = espnorm_domain(n, alpha)

    def log_values(seed: int, samples: range) -> np.ndarray:
        return alpha * _log_norm(_vector_draws(seed, samples, n))

    params = {"n": n, "alpha": alpha}
    return _sample("espnorm", params, cfg, heavy, log_values)


def espnormrest_domain(n: int, alpha: int, beta: float) -> bool:
    """Check the parameters of estimate_espnormrest; True if the tail is heavy.

    The preconditions are formulas.espnormrest_value's, both forms' poles
    included; the tail is formulas.check_tail's at (s, e) = (n - 1, beta/2),
    with X = ||P v||^2, the ||P v|| singularity in C^(n-1).
    """
    formulas.espnormrest_value(n, alpha, beta)
    return formulas.check_tail("beta", beta, n - 1, sign=1)


def estimate_espnormrest(
    n: int, alpha: int, beta: float, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||v||^(2 alpha) ||P v||^beta, P dropping the last coordinate."""
    heavy = espnormrest_domain(n, alpha, beta)

    def log_values(seed: int, samples: range) -> np.ndarray:
        sq = _vector_draws(seed, samples, n)
        return 2.0 * alpha * _log_norm(sq) + beta * _log_norm(sq[:, : n - 1])

    params = {"n": n, "alpha": int(alpha), "beta": beta}
    return _sample("espnormrest", params, cfg, heavy, log_values)


def _poly_log_values(n: int, d: int, lines: int, alpha: float, relative: bool, norm: str):
    """_sample's log_values of each system's zero-set average of mu^alpha; nan
    for a system whose root search failed or that the zero rule flags.

    mu and the zero rule are conditioning.zero_set_mu's; its values agree
    with the average of conditioning.mu^alpha over the system's roots on the
    lines of roots.sample_zero_sets, the same for every system at n >= 2, for
    both norms (pinned by test_line_roots_reproduce_system_values).  Such a
    value is not the system's own zero-set average; only its mean over
    systems is the estimand (the roots module docstring).
    """

    def log_values(seed: int, systems: range) -> np.ndarray:
        coeffs, pts, failed = roots.sample_zero_sets(seed, systems, n, d, lines)
        mu, off_zero = conditioning.zero_set_mu(n, (d,), [coeffs], pts, relative, norm)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            logv = np.log(np.mean(mu**alpha, axis=1))
        logv[failed | off_zero] = math.nan
        return logv

    return log_values


def poly_moment_domain(n: int, degrees, alpha: float, relative: bool, norm: str) -> bool:
    """Check the parameters of estimate_poly_moment; True if the tail is heavy.

    The own rules are a bool relative and r = 1; n and the degrees follow
    bwspace.check_degrees, and alpha and the flag formulas.check_rect_alpha,
    (s, e) = (n - r + 2, -alpha/2).
    """
    conditioning.check_norm(norm)
    if not isinstance(relative, bool):
        raise ValueError(f"relative must be true or false, got {relative!r}")
    r = len(bwspace.check_degrees(n, degrees))
    if r != 1:
        raise ValueError(f"polynomial sampling supports a single equation (r = 1), got r = {r}")
    return formulas.check_rect_alpha(n, r, alpha)


def estimate_poly_moment(
    n: int,
    degrees,
    alpha: float,
    relative: bool,
    norm: str,
    cfg: EstimatorConfig,
) -> EstimateResult:
    """MC mean, over Gaussian systems, of the zero-set average of mu^alpha.

    Outer Monte Carlo over cfg.samples Gaussian systems; for each system the
    zero set is sampled by uniform line sections (lines_per_system lines,
    every intersection point weighted equally) and mu^alpha is averaged over
    the sampled points, divided by ||h||^alpha when relative.  Supported for
    single-equation systems (any n >= 1, which includes the determined
    n = 1 slice).
    """
    heavy = poly_moment_domain(n, degrees, alpha, relative, norm)
    d = int(degrees[0])
    lines = 1 if n == 1 else cfg.lines_per_system
    params = {
        "n": n,
        "degrees": [d],
        "alpha": alpha,
        "relative": relative,
        "norm": norm,
        "systems": cfg.samples,
        "lines_per_system": lines,
    }
    return _sample("poly_moment", params, cfg, heavy,
                   _poly_log_values(n, d, lines, alpha, relative, norm),
                   step=_step("poly_moment", (n, degrees), cfg.lines_per_system),
                   allowed=_MAX_FAILURE_RATE, unit="systems")


def _comparison(value: float, sigma: float, reference_value: float, reference_stderr: float,
                tolerance_sigmas: float, **fields) -> Comparison:
    """value against reference_value, z-scored against the dispersion sigma.

    A zero sigma gives z = 0 or +-inf, with differences below 1e-13 of the
    reference counted as zero.  The gate tolerance_sigmas must be a finite
    positive number.
    """
    check_finite(positive=True, tolerance_sigmas=tolerance_sigmas)
    delta = value - reference_value
    floor = 1e-13 * max(1.0, abs(reference_value))
    if sigma == 0.0 and abs(delta) > floor:
        z = math.inf if delta > 0 else -math.inf
    else:
        z = delta / max(sigma, floor)
    return Comparison(
        reference_value=reference_value,
        reference_stderr=reference_stderr,
        z_score=z,
        passed=bool(abs(z) <= tolerance_sigmas),
        tolerance_sigmas=tolerance_sigmas,
        **fields,
    )


def compare(est: EstimateResult, cf: FormulaValue, tolerance_sigmas: float) -> Comparison:
    """z-score of an estimate against a closed-form value."""
    return _comparison(est.mean, est.stderr, cf.value, 0.0, tolerance_sigmas,
                       estimate=est, closed_form=cf)


def compare_pair(
    lhs: EstimateResult,
    rhs: EstimateResult,
    tolerance_sigmas: float,
    lhs_scale: float = 1.0,
    rhs_scale: float = 1.0,
) -> Comparison:
    """z-score of two independent estimates with dispersions combined in quadrature.

    Checks lhs_scale * lhs against rhs_scale * rhs.
    """
    return _comparison(lhs_scale * lhs.mean,
                       math.hypot(lhs_scale * lhs.stderr, rhs_scale * rhs.stderr),
                       rhs_scale * rhs.mean, rhs_scale * rhs.stderr, tolerance_sigmas,
                       estimate=lhs, closed_form=None, lhs_scale=lhs_scale,
                       reference_estimate=rhs)
