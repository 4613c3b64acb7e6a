"""Monte Carlo estimators for the moment identities, with comparisons.

Sampling discipline: draws happen in fixed blocks of BLOCK_SAMPLES, one
counter-based substream per block (the polynomial estimator uses one
substream per system instead, and runs chunks of systems as whole arrays).
Blocks and chunks run one after another and values are reduced in block
order with pairwise summation, so a result is a pure function of
(estimator_id, params, seed, n_samples).

Heavy tails: whenever the estimand's second moment is infinite or unproven
the estimator switches to median-of-means over MOM_BUCKETS contiguous
buckets and reports the bucket-mean spread (sample std of bucket means
divided by sqrt(buckets)) as the dispersion; z-scores against that
dispersion are approximate and the acceptance tolerances account for it.

Integrands that mix pseudoinverse norms with determinant weights are
assembled in log space and exponentiated against the running maximum, since
the determinant powers span hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import bwspace, conditioning, randgeom, roots
from .cxla import NumericError
from .formulas import FormulaValue, check_finite
from .randgeom import RngStream

BLOCK_SAMPLES = 4096
MOM_BUCKETS = 32
_NORMS = ("frobenius", "operator")

# share of systems whose root search may fail before the polynomial estimator aborts
_MAX_FAILURE_RATE = 1e-3
# the polynomial estimator runs its systems in chunks of about this many
# evaluation points, which bounds its working memory
CHUNK_POINTS = 4096


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
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.lines_per_system < 1:
            raise ValueError(f"lines_per_system must be >= 1, got {self.lines_per_system}")
        _check_integers(samples=self.samples, seed=self.seed,
                        lines_per_system=self.lines_per_system)
        RngStream(self.seed)  # rejects a seed that is not an unsigned 64-bit integer


@dataclass(frozen=True)
class EstimateResult:
    """A reproducible Monte Carlo estimate."""

    mean: float
    stderr: float
    n_samples: int
    method: str
    seed: int
    estimator_id: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Comparison:
    """An estimate checked against a reference value.

    For closed-form references reference_stderr is 0 and the z-score is
    (mean - reference) / stderr; for estimated references the dispersion is
    combined in quadrature.  passed is |z| <= tolerance_sigmas.
    """

    estimate: EstimateResult
    closed_form: FormulaValue | None
    reference_value: float
    reference_stderr: float
    z_score: float
    passed: bool
    tolerance_sigmas: float
    lhs_scale: float = 1.0


def _check_norm(norm: str) -> str:
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
    return norm


def _check_integers(**counts) -> None:
    """Reject counts (or degree lists) that are not integers, 1.0 included."""
    for name, value in counts.items():
        values = np.atleast_1d(value).tolist()
        if any(isinstance(v, bool) or not isinstance(v, int) for v in values):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _blocks(n: int, block: int = BLOCK_SAMPLES):
    start = 0
    index = 0
    while start < n:
        count = min(block, n - start)
        yield index, count
        start += count
        index += 1


def _reduce_log_values(logv: np.ndarray, heavy: bool) -> tuple[float, float, str]:
    """Mean and dispersion from per-sample log-values.

    Plain path: arithmetic mean and standard error.  Heavy path:
    median-of-means over MOM_BUCKETS contiguous buckets.  All sums are
    pairwise (numpy reduction) over the fixed sample order.
    """
    n = logv.size
    m = float(np.max(logv))
    if math.isnan(m):
        return math.nan, math.nan, "plain-mean"
    if m == -math.inf:
        return 0.0, 0.0, "plain-mean"
    if m == math.inf:
        return math.inf, math.inf, "plain-mean"
    ex = np.exp(logv - m)
    if not heavy:
        mean_scaled = float(np.mean(ex))
        sd_scaled = float(np.std(ex, ddof=1)) if n > 1 else 0.0
        mean = math.exp(m + math.log(mean_scaled)) if mean_scaled > 0 else 0.0
        stderr = (
            math.exp(m + math.log(sd_scaled) - 0.5 * math.log(n)) if sd_scaled > 0 else 0.0
        )
        return mean, stderr, "plain-mean"
    buckets = np.array_split(ex, min(MOM_BUCKETS, n))
    bucket_means = np.array([float(np.mean(b)) for b in buckets])
    med_scaled = float(np.median(bucket_means))
    spread_scaled = float(np.std(bucket_means, ddof=1)) if len(bucket_means) > 1 else 0.0
    mean = math.exp(m + math.log(med_scaled)) if med_scaled > 0 else 0.0
    stderr = (
        math.exp(m + math.log(spread_scaled) - 0.5 * math.log(len(bucket_means)))
        if spread_scaled > 0
        else 0.0
    )
    return mean, stderr, f"median-of-means({len(bucket_means)})"


def _run_matrix_estimator(
    estimator_id: str,
    params: dict,
    cfg: EstimatorConfig,
    log_values_fn,
    heavy: bool,
) -> EstimateResult:
    logv = np.concatenate([log_values_fn(RngStream(cfg.seed, index), count)
                           for index, count in _blocks(cfg.samples)])
    mean, stderr, method = _reduce_log_values(logv, heavy)
    return EstimateResult(
        mean=mean,
        stderr=stderr,
        n_samples=cfg.samples,
        method=method,
        seed=cfg.seed,
        estimator_id=estimator_id,
        params=params,
    )


def _squared_singular_values(a: np.ndarray) -> np.ndarray:
    """Squared singular values of each r x m matrix (r <= m) in a stack, ascending.

    They are the eigenvalues of the r x r Gram matrix A A*, which eigvalsh
    finds faster than a batched SVD finds the singular values of A.
    Eigenvalues of a singular draw that rounding pushes below 0 are clamped
    to 0.
    """
    gram = np.einsum("nij,nkj->nik", a, a.conj())
    return np.maximum(np.linalg.eigvalsh(gram), 0.0)


def _log_pinv_norm(lam: np.ndarray, norm: str) -> np.ndarray:
    """log of the pseudoinverse norm from batched squared singular values, ascending.

    +inf for a singular draw.
    """
    with np.errstate(divide="ignore"):
        if norm == "frobenius":
            return 0.5 * np.log(np.sum(1.0 / lam, axis=1))
        return -0.5 * np.log(lam[:, 0])


def _log_det_gram(lam: np.ndarray) -> np.ndarray:
    """log det(A A*) from batched squared singular values; -inf for a singular draw."""
    with np.errstate(divide="ignore"):
        return np.sum(np.log(lam), axis=1)


def pinv_moment_domain(r: int, m: int, alpha: float, norm: str) -> bool:
    """Check the parameters of estimate_pinv_moment; True if the tail is heavy.

    The mean is finite iff alpha < 2(m - r + 1); outside that range the
    estimator refuses to run.  The variance is finite iff alpha < m - r + 1,
    otherwise median-of-means is used.
    """
    _check_norm(norm)
    if not (1 <= r <= m):
        raise ValueError(f"need 1 <= r <= m, got r = {r}, m = {m}")
    if not (0 < alpha < 2 * (m - r + 1)):
        raise ValueError(
            f"alpha must satisfy 0 < alpha < 2(m-r+1) = {2 * (m - r + 1)} "
            f"for a finite mean, got {alpha}"
        )
    _check_integers(r=r, m=m)
    return not (alpha < m - r + 1)


def estimate_pinv_moment(
    r: int, m: int, alpha: float, norm: str, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||M^+||^alpha over standard Gaussian r x m complex matrices."""
    heavy = pinv_moment_domain(r, m, alpha, norm)

    def log_values(rng: RngStream, count: int) -> np.ndarray:
        lam = _squared_singular_values(randgeom.complex_gaussian_array(rng, (count, r, m)))
        return alpha * _log_pinv_norm(lam, norm)

    params = {"r": r, "m": m, "alpha": alpha, "norm": norm}
    return _run_matrix_estimator("pinv_moment", params, cfg, log_values, heavy)


def detweighted_rect_domain(r: int, n: int, alpha: float, norm: str) -> bool:
    """Check the parameters of estimate_detweighted_rect; True if the tail is heavy."""
    _check_norm(norm)
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r = {r}, n = {n}")
    if not (0 < alpha < 2 * (n - r + 2)):
        raise ValueError(
            f"alpha must satisfy 0 < alpha < 2(n-r+2) = {2 * (n - r + 2)} "
            f"for a finite mean, got {alpha}"
        )
    _check_integers(r=r, n=n)
    return not (alpha < n - r + 2)


def estimate_detweighted_rect(
    r: int, n: int, alpha: float, norm: str, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||A^+||^alpha |det A A*| over Gaussian r x n matrices."""
    heavy = detweighted_rect_domain(r, n, alpha, norm)

    def log_values(rng: RngStream, count: int) -> np.ndarray:
        lam = _squared_singular_values(randgeom.complex_gaussian_array(rng, (count, r, n)))
        return alpha * _log_pinv_norm(lam, norm) + _log_det_gram(lam)

    params = {"r": r, "n": n, "alpha": alpha, "norm": norm}
    return _run_matrix_estimator("detweighted_rect", params, cfg, log_values, heavy)


def detweighted_square_domain(r: int, k: float, alpha: float, norm: str) -> bool:
    """Check the parameters of estimate_detweighted_square; True if the tail is heavy."""
    _check_norm(norm)
    check_finite(k=k)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not (0 < alpha < 4 * k + 2):
        raise ValueError(
            f"alpha must satisfy 0 < alpha < 4k+2 = {4 * k + 2} for a finite mean, got {alpha}"
        )
    _check_integers(r=r)
    return not (alpha < 2 * k + 1)


def estimate_detweighted_square(
    r: int, k: float, alpha: float, norm: str, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||B^-1||^alpha |det B|^(2k) over Gaussian r x r matrices.

    k is the determinant half-exponent: the absolute-moment identity uses
    k = n - r + 1 and the kernel-variety identity uses k = n - r.
    """
    heavy = detweighted_square_domain(r, k, alpha, norm)

    def log_values(rng: RngStream, count: int) -> np.ndarray:
        lam = _squared_singular_values(randgeom.complex_gaussian_array(rng, (count, r, r)))
        return alpha * _log_pinv_norm(lam, norm) + k * _log_det_gram(lam)

    params = {"r": r, "k": k, "alpha": alpha, "norm": norm}
    return _run_matrix_estimator("detweighted_square", params, cfg, log_values, heavy)


def espnorm_domain(n: int, alpha: float) -> bool:
    """Check the parameters of estimate_espnorm; True if the tail is heavy."""
    check_finite(alpha=alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha <= -2 * n:
        raise ValueError(f"alpha must exceed -2n = {-2 * n} for a finite mean, got {alpha}")
    _check_integers(n=n)
    return not (2 * alpha > -2 * n)


def estimate_espnorm(n: int, alpha: float, cfg: EstimatorConfig) -> EstimateResult:
    """MC mean of ||v||^alpha over standard Gaussian vectors in C^n."""
    heavy = espnorm_domain(n, alpha)

    def log_values(rng: RngStream, count: int) -> np.ndarray:
        v = randgeom.complex_gaussian_array(rng, (count, n))
        with np.errstate(divide="ignore"):
            return alpha * np.log(np.linalg.norm(v, axis=1))

    params = {"n": n, "alpha": alpha}
    return _run_matrix_estimator("espnorm", params, cfg, log_values, heavy)


def espnormrest_domain(n: int, alpha: int, beta: float) -> bool:
    """Check the parameters of estimate_espnormrest; True if the tail is heavy."""
    check_finite(alpha=alpha, beta=beta)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if alpha < 0 or int(alpha) != alpha:
        raise ValueError(f"alpha must be a nonnegative integer, got {alpha}")
    if 2 * alpha + beta <= 1 - 2 * n:
        raise ValueError(f"need 2*alpha + beta > 1 - 2n = {1 - 2 * n}")
    _check_integers(n=n)
    return not (4 * alpha + 2 * beta > 1 - 2 * n)


def estimate_espnormrest(
    n: int, alpha: int, beta: float, cfg: EstimatorConfig
) -> EstimateResult:
    """MC mean of ||v||^(2 alpha) ||P v||^beta, P dropping the last coordinate."""
    heavy = espnormrest_domain(n, alpha, beta)

    def log_values(rng: RngStream, count: int) -> np.ndarray:
        v = randgeom.complex_gaussian_array(rng, (count, n))
        with np.errstate(divide="ignore"):
            return 2.0 * alpha * np.log(np.linalg.norm(v, axis=1)) + beta * np.log(
                np.linalg.norm(v[:, : n - 1], axis=1)
            )

    params = {"n": n, "alpha": int(alpha), "beta": beta}
    return _run_matrix_estimator("espnormrest", params, cfg, log_values, heavy)


def _poly_log_values(
    coeffs: np.ndarray, d: int, pts: np.ndarray, failed: np.ndarray, alpha: float, relative: bool
) -> np.ndarray:
    """log of each system's zero-set average of mu^alpha; nan for failed systems.

    Single-equation fast path: for r = 1 the Frobenius and operator values
    coincide and mu = ||h|| sqrt(d) / ||Dh(x)||, which agrees with
    conditioning.empirical_moment for both norms (pinned by
    test_sample_variety_points_reproduces_system_values).
    """
    n = pts.shape[2] - 1
    hnorm = np.linalg.norm(coeffs, axis=1)[:, None]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        residuals = np.abs(bwspace.evaluate_forms(n, d, coeffs, pts))
        if np.any(residuals[~failed] > conditioning.ZERO_TOL * hnorm[~failed]):
            raise ValueError("sampled point failed the zero-residual precondition")
        sigma = np.linalg.norm(bwspace.gradient_forms(n, d, coeffs, pts), axis=2)
        mu = hnorm * math.sqrt(d) / sigma
        if relative:
            mu = mu / hnorm
        logv = np.log(np.mean(mu**alpha, axis=1))
    logv[failed] = math.nan
    return logv


def poly_moment_domain(n: int, degrees, alpha: float, relative: bool, norm: str) -> bool:
    """Check the parameters of estimate_poly_moment; True if the tail is heavy."""
    _check_norm(norm)
    if not isinstance(relative, bool):
        raise ValueError(f"relative must be true or false, got {relative!r}")
    degs = bwspace.check_degrees(n, degrees)
    if len(degs) != 1:
        raise ValueError(
            f"polynomial sampling supports a single equation (r = 1), got r = {len(degs)}"
        )
    r = len(degs)
    if not (0 < alpha < 2 * (n - r + 2)):
        raise ValueError(
            f"alpha must satisfy 0 < alpha < 2(n-r+2) = {2 * (n - r + 2)}, got {alpha}"
        )
    _check_integers(n=n, degrees=degrees)
    return not (alpha < n - r + 2)


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
    degs = bwspace.check_degrees(n, degrees)
    d = degs[0]
    lines = 1 if n == 1 else cfg.lines_per_system
    # restriction nodes, the most points per system of any evaluation pass
    chunk = max(1, CHUNK_POINTS // (lines * (d + 4)))

    parts = []
    for start in range(0, cfg.samples, chunk):
        systems = range(start, min(start + chunk, cfg.samples))
        coeffs, pts, failed = roots.sample_zero_sets(cfg.seed, systems, n, d, lines)
        parts.append(_poly_log_values(coeffs, d, pts, failed, alpha, relative))
    logv = np.concatenate(parts)

    failed = int(np.count_nonzero(np.isnan(logv)))
    if failed > _MAX_FAILURE_RATE * cfg.samples:
        raise NumericError(
            f"root finding failed for {failed} of {cfg.samples} systems; "
            f"system failure rate exceeds {_MAX_FAILURE_RATE:.1%}"
        )
    if failed:
        logv = logv[~np.isnan(logv)]

    mean, stderr, method = _reduce_log_values(logv, heavy)
    params = {
        "n": n,
        "degrees": list(degs),
        "alpha": alpha,
        "relative": relative,
        "norm": norm,
        "systems": cfg.samples,
        "lines_per_system": lines,
    }
    return EstimateResult(
        mean=mean,
        stderr=stderr,
        n_samples=int(logv.size),
        method=method,
        seed=cfg.seed,
        estimator_id="poly_moment",
        params=params,
    )


def _z_score(delta: float, sigma: float, scale: float) -> float:
    floor = 1e-13 * max(1.0, abs(scale))
    if sigma == 0.0 and abs(delta) > floor:
        return math.inf if delta > 0 else -math.inf
    return delta / max(sigma, floor)


def check_tolerance(tolerance_sigmas: float) -> None:
    """Reject an acceptance gate that is not a finite positive number of sigmas."""
    if isinstance(tolerance_sigmas, bool) or not isinstance(tolerance_sigmas, numbers.Real):
        raise ValueError(f"tolerance_sigmas must be a number, got {tolerance_sigmas!r}")
    if not (math.isfinite(tolerance_sigmas) and tolerance_sigmas > 0):
        raise ValueError(f"tolerance_sigmas must be finite and positive, got {tolerance_sigmas}")


def compare(est: EstimateResult, cf: FormulaValue, tolerance_sigmas: float) -> Comparison:
    """z-score of an estimate against a closed-form value."""
    check_tolerance(tolerance_sigmas)
    z = _z_score(est.mean - cf.value, est.stderr, cf.value)
    return Comparison(
        estimate=est,
        closed_form=cf,
        reference_value=cf.value,
        reference_stderr=0.0,
        z_score=z,
        passed=bool(abs(z) <= tolerance_sigmas),
        tolerance_sigmas=tolerance_sigmas,
    )


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
    check_tolerance(tolerance_sigmas)
    ref = rhs_scale * rhs.mean
    sigma = math.hypot(lhs_scale * lhs.stderr, rhs_scale * rhs.stderr)
    z = _z_score(lhs_scale * lhs.mean - ref, sigma, ref)
    return Comparison(
        estimate=lhs,
        closed_form=None,
        reference_value=ref,
        reference_stderr=rhs_scale * rhs.stderr,
        z_score=z,
        passed=bool(abs(z) <= tolerance_sigmas),
        tolerance_sigmas=tolerance_sigmas,
        lhs_scale=lhs_scale,
    )
