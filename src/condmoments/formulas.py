"""Closed-form Gamma-function identities for the moment computations.

Every Gamma-function formula is evaluated in log space with the C library
log-Gamma, so ratios whose factors overflow double range (already at
moderate matrix sizes) stay finite, and its FormulaValue is built by
_from_log; the few values computed directly (rational closed forms and the
espnormrest sum form) are built by _exact.  Tests cross-check all
integer-argument cases against exact factorial arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from . import bwspace


@dataclass(frozen=True)
class FormulaValue:
    """A positive closed-form value carried together with its log."""

    value: float
    log_value: float
    formula_id: str
    params: dict = field(default_factory=dict)


def _from_log(log_value: float, formula_id: str, params: dict) -> FormulaValue:
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return FormulaValue(value=value, log_value=log_value, formula_id=formula_id, params=params)


def _exact(value: float, formula_id: str, params: dict) -> FormulaValue:
    """A closed form computed as its value, not its log: value > 0."""
    return FormulaValue(value=value, log_value=math.log(value), formula_id=formula_id,
                        params=params)


def _lgamma(x: float, what: str) -> float:
    if x <= 0.0:
        raise ValueError(f"{what}: Gamma argument {x} is at or beyond a pole")
    return math.lgamma(x)


def check_finite(positive: bool = False, **values) -> None:
    """Reject real parameters that are not numbers (True included), nan or
    infinite, or, when positive is set, not above 0.
    """
    need = "finite and positive" if positive else "finite"
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(value) and (value > 0 or not positive)):
            raise ValueError(f"{name} must be {need}, got {value!r}")


def check_tail(name: str, p: float, s: float, c: float = 0, sign: int = -1) -> bool:
    """The one tail rule of the moment identities; True if the variance is infinite.

    Each integrand behaves as X^e near X = 0, where X ~ Gamma(s) is the
    smallest Bartlett diagonal or the smallest squared norm (Edelman, SIAM J.
    Matrix Anal. Appl., 1988), and e = c + sign p/2 in the parameter p.  The
    mean is finite iff e > -s, else this raises ValueError; the variance is
    finite iff 2e > -s.  sign p is compared with -2(s + c) and -(s + 2c), so
    no rounding of e moves an edge.  A p that is not a finite number is
    rejected first (check_finite).
    """
    check_finite(**{name: p})
    bound = -2 * (s + c)
    if not sign * p > bound:
        op, pm = ("<", "-") if sign < 0 else (">", "+")
        e = f"{c} {pm} {name}/2" if c else f"{pm}{name}/2"
        raise ValueError(
            f"{name} must satisfy {name} {op} {sign * bound} for a finite mean, got {p}: "
            f"the integrand goes as X^e near X = 0 with X ~ Gamma(s), s = {s} and "
            f"e = {e}, and its mean is finite iff e > -s"
        )
    return not sign * p > -(s + 2 * c)


def check_rect_alpha(n: int, r: int, alpha: float) -> bool:
    """Check alpha > 0 and the tail rule at (s, e) = (n - r + 2, -alpha/2).

    These are the alpha-th polynomial moment's; ||A^+||^alpha |det A A*|
    over r x n matrices, which the identity equates with it, shares the
    finite-mean range.
    """
    check_finite(positive=True, alpha=alpha)
    return check_tail("alpha", alpha, n - r + 2)


def espnorm_value(n: int, alpha: float) -> FormulaValue:
    """Moment of the norm of a standard Gaussian vector in C^n.

    E ||v||^alpha = Gamma(n + alpha/2) / Gamma(n), finite by check_tail at
    (s, e) = (n, alpha/2): ||v||^2 ~ Gamma(n).
    """
    bwspace.check_counts(n=n)
    check_tail("alpha", alpha, n, sign=1)
    log_value = _lgamma(n + alpha / 2.0, "espnorm") - _lgamma(float(n), "espnorm")
    return _from_log(log_value, "espnorm_value", {"n": n, "alpha": alpha})


@dataclass(frozen=True)
class EspnormrestForms:
    """Both published forms of the projected-norm moment.

    closed_form is Gamma(n + alpha + beta/2) / (n Gamma(n - 1)); sum_form is
    the binomial sum sum_i Gamma(alpha+1)/Gamma(alpha-i+1) *
    Gamma(n-1+alpha+beta/2-i)/Gamma(n-1).  They agree exactly at beta = 2
    (the only case the downstream moments use) and genuinely disagree for
    other beta; forms_agree records which case a parameter set falls in.
    """

    closed_form: FormulaValue
    sum_form: FormulaValue
    forms_agree: bool


def espnormrest_value(n: int, alpha: int, beta: float) -> EspnormrestForms:
    """E( ||v||^(2 alpha) ||P v||^beta ) for v standard Gaussian in C^n,

    where P projects onto the first n - 1 coordinates.  alpha must be a
    nonnegative integer, and beta is check_tail's at (s, e) = (n - 1, beta/2):
    ||P v||^2 ~ Gamma(n - 1).
    """
    check_finite(alpha=alpha)
    bwspace.check_integers(n=n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if alpha < 0 or int(alpha) != alpha:
        raise ValueError(f"alpha must be a nonnegative integer, got {alpha}")
    alpha = int(alpha)
    check_tail("beta", beta, n - 1, sign=1)

    params = {"n": n, "alpha": alpha, "beta": beta}
    log_closed = (
        _lgamma(n + alpha + beta / 2.0, "espnormrest closed form")
        - math.log(n)
        - _lgamma(n - 1.0, "espnormrest closed form")
    )
    closed = _from_log(log_closed, "espnormrest_closed", params)

    log_base = _lgamma(n - 1.0, "espnormrest sum form")
    total = 0.0
    for i in range(alpha + 1):
        log_term = (
            _lgamma(alpha + 1.0, "espnormrest sum form")
            - _lgamma(alpha - i + 1.0, "espnormrest sum form")
            + _lgamma(n - 1.0 + alpha + beta / 2.0 - i, "espnormrest sum form")
            - log_base
        )
        total += math.exp(log_term)
    sum_form = _exact(total, "espnormrest_sum", params)
    agree = abs(closed.value - sum_form.value) <= 1e-12 * abs(closed.value)
    return EspnormrestForms(closed_form=closed, sum_form=sum_form, forms_agree=agree)


def invnor2mdet_value(r: int, k: float) -> FormulaValue:
    """E( ||B^-1||_F^2 |det B|^(2k) ) for B standard Gaussian in C^(r x r):

    (r / k) * prod_{i=1..r} Gamma(k + i) / Gamma(i).
    """
    check_finite(positive=True, k=k)
    bwspace.check_counts(r=r)
    log_value = math.log(r) - math.log(k)
    for i in range(1, r + 1):
        log_value += _lgamma(k + i, "invnor2mdet") - _lgamma(float(i), "invnor2mdet")
    return _from_log(log_value, "invnor2mdet_value", {"r": r, "k": k})


def main_theorem_value(n: int, degrees) -> FormulaValue:
    """Expected second Frobenius moment: (N - 1) r / (n - r + 1),

    with N the complex dimension of the system space.  At n = r this is the
    determined-case value (N - 1) r.
    """
    degs = bwspace.check_degrees(n, degrees)
    r = len(degs)
    n_dim = bwspace.dim_space(n, degs)
    return _exact((n_dim - 1) * r / (n - r + 1), "main_theorem_value",
                  {"n": n, "degrees": list(degs), "N": n_dim})


def rect_fibration_constant(r: int, n: int) -> FormulaValue:
    """Rectangular fibration scale Gamma(n - r + 1) / Gamma(n + 1) (r x n to r x (n+1))."""
    log_value = _lgamma(n - r + 1.0, "rect_fibration") - _lgamma(n + 1.0, "rect_fibration")
    return _from_log(log_value, "rect_fibration_constant", {"r": r, "n": n})


def kernel_constant(r: int, k: int) -> FormulaValue:
    """Kernel fibration (Grassmannian) factor prod_{i=1..k} Gamma(i) / Gamma(r + i)."""
    log_value = 0.0
    for i in range(1, k + 1):
        log_value += _lgamma(float(i), "kernel") - _lgamma(float(r + i), "kernel")
    return _from_log(log_value, "kernel_constant", {"r": r, "k": k})


def scaling_constant(n: int, degrees, alpha: float) -> FormulaValue:
    """Absolute over relative alpha-th moment: Gamma(N) / Gamma(N - alpha/2),
    finite by check_tail at (s, e) = (N, -alpha/2): ||h||^2 ~ Gamma(N)."""
    n_dim = bwspace.dim_space(n, degrees)
    check_tail("alpha", alpha, n_dim)
    log_value = _lgamma(float(n_dim), "scaling") - _lgamma(n_dim - alpha / 2.0, "scaling")
    return _from_log(log_value, "scaling_constant", {"n": n, "alpha": alpha, "N": n_dim})


def exmualpha_constant(n: int, r: int, degrees, alpha: float) -> FormulaValue:
    """Constant relating the alpha-th absolute moment to the square-matrix

    determinant-weighted expectation:

        Gamma(N) / Gamma(N - alpha/2) * prod_{i=1..n-r+1} Gamma(i)/Gamma(r+i),

    valid for 0 < alpha < 2 (n - r + 2) (check_rect_alpha) and alpha/2 < N.
    """
    degs = bwspace.check_degrees(n, degrees)
    if r != len(degs):
        raise ValueError(f"r = {r} does not match len(degrees) = {len(degs)}")
    check_rect_alpha(n, r, alpha)
    scaling = scaling_constant(n, degs, alpha)
    return _from_log(
        scaling.log_value + kernel_constant(r, n - r + 1).log_value,
        "exmualpha_constant",
        {"n": n, "r": r, "degrees": list(degs), "alpha": alpha, "N": scaling.params["N"]},
    )


def pinv_moment_value(r: int, m: int) -> FormulaValue:
    """E ||M^+||_F^2 over standard Gaussian r x m complex matrices: r / (m - r)."""
    bwspace.check_counts(r=r, m=m)
    if m <= r:
        raise ValueError(f"need m > r for a finite moment, got r = {r}, m = {m}")
    return _exact(r / (m - r), "pinv_moment_value", {"r": r, "m": m})


@dataclass(frozen=True)
class Volumes:
    """Volumes of projective space, a Grassmannian, and a zero variety."""

    vol_projective: FormulaValue
    vol_grassmann: FormulaValue
    vol_vh: FormulaValue


def volumes(n: int, k: int, l: int, degrees) -> Volumes:
    """vol P^n = pi^n / Gamma(n+1); vol G(k, l) = pi^(k(l-k)) prod_{i=1..k}
    Gamma(i)/Gamma(l-k+i), the kernel_constant(l - k, k), so that G(1, l) is
    P^(l-1) and G(k, l) = G(l - k, l);

    vol V_h = D pi^(n-r) / Gamma(n-r+1) with D the product of the degrees.
    """
    degs = bwspace.check_degrees(n, degrees)
    r = len(degs)
    bwspace.check_integers(l=l)
    check_finite(k=k)
    if not (1 <= k < l):
        raise ValueError(f"need 1 <= k < l, got k = {k}, l = {l}")
    if int(k) != k:
        raise ValueError(f"k must be an integer, got {k}")
    k = int(k)

    log_proj = n * math.log(math.pi) - _lgamma(n + 1.0, "vol_projective")
    log_grass = k * (l - k) * math.log(math.pi) + kernel_constant(l - k, k).log_value
    log_vh = (
        math.log(bwspace.bezout(degs))
        + (n - r) * math.log(math.pi)
        - _lgamma(n - r + 1.0, "vol_vh")
    )
    return Volumes(
        vol_projective=_from_log(log_proj, "vol_projective", {"n": n}),
        vol_grassmann=_from_log(log_grass, "vol_grassmann", {"k": k, "l": l}),
        vol_vh=_from_log(log_vh, "vol_vh", {"n": n, "degrees": list(degs)}),
    )
