"""The Ruelle-type L-function for Z^nu with Euclidean length.

log L is evaluated through three independent routes (Euler product over
primitive vectors, Moebius inversion through the full-lattice G, and the
gcd-weighted exponential series), g(s, alpha) through the direct lattice sum
and through its Poisson dual, and the logarithmic derivative L'/L.

log G and the Moebius route sum_m mu(m) log G(m s, m alpha) are one sum
sum_{k <= ell_limit} c_k/k g(k s, k alpha), with c_k = 1 and c_k = gamma(k) =
sum_{m|k} m mu(m).  The paper's L'/L = C(nu) [Phi(s, alpha, (nu+1)/2) -
(nu+1) s^2 Phi(s, alpha, (nu+3)/2)], with each Phi n-term in its exact dual
form, is the s-derivative of that Moebius sum: C(nu) Area(S^nu) / (2 (2 pi)^nu)
= 1 and the k = 0 parts of the two Phi values cancel, which leaves
-sum_k gamma(k) sum_{v != 0} |v| e^{-k s |v|} chi(v)^k, the same k-sum with
coefficients -k gamma(k) and weight |v| e^{-k s |v|}.

Sums whose weight depends on |n| alone (g, log G, the Moebius route and
L'/L) read the shell-by-residue table F of the ball per (nu, alpha), built by
convolution over the coordinates.  The Euler and series routes read the
gcd-stratified table G(n, g, r) of the same ball, built by enumeration: the
Euler route its g = 1 bins, the series route every bin with weight 1/g.  So
the Moebius route and the other two rest on independent data paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import lattice
from .arith import ensure_sieve
from .errors import DomainError
from .lattice import Character, _as_character
from .special import gamma_half, sphere_area

__all__ = [
    "Truncation",
    "SeriesValue",
    "default_truncation",
    "g_direct",
    "g_poisson",
    "log_G",
    "log_L",
    "log_L_routes",
    "log_deriv_L",
]


@dataclass(frozen=True)
class Truncation:
    """Cutoffs: the lattice-sum radius, and ell_limit for every sum over multiples of s."""

    radius: float
    ell_limit: int

    def __post_init__(self) -> None:
        if self.radius < 1 or self.ell_limit < 1:
            raise ValueError("all truncation limits must be positive (radius >= 1)")


@dataclass(frozen=True)
class SeriesValue:
    """Truncated-series value with term count and heuristic tail estimate."""

    value: complex
    terms: int
    tail_estimate: float

    @property
    def real(self) -> float:
        return self.value.real


def default_truncation(s: complex) -> Truncation:
    """radius = max(8, 40/Re s) capped at 300, ell_limit = ceil(40/Re s) capped at 400.

    Near the imaginary axis the cap keeps ball sizes workable; the series
    evaluators still run there and report the (then larger) tail honestly.
    """
    sr = complex(s).real
    if sr <= 0:
        raise DomainError("need Re(s) > 0")
    return Truncation(
        radius=min(max(8.0, 40.0 / sr), 300.0),
        ell_limit=int(math.ceil(min(40.0 / sr, 400.0))),
    )


def _require_right_half(s: complex) -> complex:
    s = complex(s)
    if s.real <= 0:
        raise DomainError("need Re(s) > 0")
    return s


def _exp_tail_estimate(nu: int, sigma: float, R: float, power: int = 0) -> float:
    """Estimate of sum_{|n|>R} |n|^power e^{-sigma |n|} by the radial integral.

    Area(S^{nu-1}) int_{R-1/2}^inf r^{nu-1+power} e^{-sigma r} dr, evaluated
    via the finite expansion of the incomplete gamma function; the half-cell
    head start keeps the heuristic on the conservative side of shell
    fluctuations.
    """
    area = sphere_area(nu - 1) if nu >= 2 else 2.0
    u = sigma * max(R - 0.5, 0.0)
    m = nu + power
    # Gamma(m, u) = (m-1)! e^{-u} sum_{k<m} u^k/k!
    acc = 0.0
    for k in range(m):
        acc += u**k / math.factorial(k)
    return area * math.factorial(m - 1) * math.exp(-u) * acc / sigma**m


def g_direct(s: complex, chi: Character | None, nu: int, tr: Truncation | None = None) -> SeriesValue:
    """g(s, alpha) = sum_{n != 0} exp(2 pi i <n, alpha>) e^{-s |n|}, truncated."""
    s = _require_right_half(s)
    tr = tr or default_truncation(s)
    chi = _as_character(chi, nu)
    R2 = int(math.ceil(tr.radius**2))
    val, terms = lattice.norm_sum(lambda norms: np.exp(-s * norms), nu, R2, chi)
    tail = _exp_tail_estimate(nu, s.real, tr.radius)
    return SeriesValue(complex(val), terms, tail)


# ---------------------------------------------------------------------------
# Poisson route: Ewald/theta evaluation of the dual sum
# ---------------------------------------------------------------------------


def _theta_1d(a: float, u: float) -> float:
    """theta_a(u) = sum_m exp(-4 pi^2 (m+a)^2 u), by the faster of the two series."""
    if u <= 0:
        raise ValueError("u must be positive")
    u0 = 1.0 / (4.0 * math.pi)
    if u >= u0:
        m = np.arange(-8, 9, dtype=np.float64)
        return float(np.exp(-4.0 * math.pi**2 * (m + a) ** 2 * u).sum())
    # Jacobi transform: (4 pi u)^{-1/2} sum_k e^{-k^2/(4u)} cos(2 pi k a)
    kmax = int(math.ceil(math.sqrt(4.0 * u * 745.0))) + 2
    k = np.arange(1, kmax + 1, dtype=np.float64)
    acc = 1.0 + 2.0 * float((np.exp(-(k**2) / (4.0 * u)) * np.cos(2.0 * math.pi * k * a)).sum())
    return acc / math.sqrt(4.0 * math.pi * u)


def _dual_sum_ewald(s: complex, chi: Character, nu: int) -> tuple[complex, float]:
    """D = sum_m (s^2 + (2 pi |m + alpha|)^2)^{-(nu+1)/2} via the gamma-integral split.

    Valid when Re(s^2) > 0.  Returns (value, error estimate).
    """
    alphas = [float(a) for a in chi.alpha]
    s2 = s * s

    def integrand(w: float, part: int) -> float:
        u = w * w
        th = 1.0
        for a in alphas:
            th *= _theta_1d(a, u)
        z = np.exp(-s2 * u) * th * w**nu
        return float(z.real if part == 0 else z.imag)

    gam = gamma_half(nu + 1)  # Gamma((nu+1)/2)
    re, re_err = integrate.quad(integrand, 0.0, np.inf, args=(0,), epsabs=1e-14, epsrel=1e-12, limit=200)
    if s.imag == 0:
        val = complex(2.0 * re / gam, 0.0)
        err = 2.0 * re_err / gam
    else:
        im, im_err = integrate.quad(integrand, 0.0, np.inf, args=(1,), epsabs=1e-14, epsrel=1e-12, limit=200)
        val = 2.0 * complex(re, im) / gam
        err = 2.0 * (re_err + im_err) / gam
    return val, err


def _dual_sum_truncated(s: complex, chi: Character, nu: int, radius: float) -> tuple[complex, float, int]:
    """The dual sum over the shifted ball |m + alpha| <= R = ceil(radius), with
    the integral-comparison tail estimate for the region outside it and the
    number of terms summed.  The integral starts half a cell early, which keeps
    the estimate above the lattice tail's boundary fluctuations."""
    R = int(math.ceil(radius))
    t = (nu + 1) / 2.0
    total, terms = lattice.shifted_norm_sum(lambda sq: (s * s + 4.0 * math.pi**2 * sq) ** (-t), nu, chi, R)
    tail = (sphere_area(nu - 1) if nu >= 2 else 2.0) * (2.0 * math.pi) ** (-(nu + 1)) / max(R - 0.5, 1)
    return complex(total), tail, terms


def g_poisson(s: complex, chi: Character | None, nu: int, tr: Truncation | None = None) -> SeriesValue:
    """g(s, alpha) through the Poisson dual:

        1 + g = (2 (2 pi)^nu s / Area(S^nu)) sum_m (s^2 + (2 pi |m+alpha|)^2)^{-(nu+1)/2}.

    The dual sum is evaluated by an incomplete-gamma/theta split (exact up to
    quadrature error) when Re(s^2) > 0; otherwise it falls back to the plain
    truncated dual sum over the shifted ball |m + alpha| <= radius, whose tail
    estimate is honest but only ~1/radius.
    """
    s = _require_right_half(s)
    tr = tr or default_truncation(s)
    chi = _as_character(chi, nu)
    prefac = 2.0 * (2.0 * math.pi) ** nu * s / sphere_area(nu)
    if (s * s).real > 0:
        D, err = _dual_sum_ewald(s, chi, nu)
        terms = 0
    else:
        D, err, terms = _dual_sum_truncated(s, chi, nu, tr.radius)
    val = prefac * D - 1.0
    # the subtraction cancels to rounding once g is tiny (large Re s); the
    # estimate carries that floor so it stays honest there
    err_out = abs(prefac) * err + abs(prefac * D) * 1e-15
    return SeriesValue(val, terms, err_out)


# ---------------------------------------------------------------------------
# log G and the three log L routes
# ---------------------------------------------------------------------------


def log_G(s: complex, chi: Character | None, nu: int, tr: Truncation | None = None) -> SeriesValue:
    """log G(s, alpha) = sum_{l >= 1} g(l s, l alpha) / l."""
    s = _require_right_half(s)
    tr = tr or default_truncation(s)
    chi = _as_character(chi, nu)
    K = tr.ell_limit
    v = _k_sum(s, chi, nu, tr, np.ones(K + 1))
    # geometric bound on the omitted l's: terms behave like 2 nu e^{-l s}
    omitted = 2 * nu * math.exp(-(K + 1) * s.real) / (1 - math.exp(-s.real)) / (K + 1)
    return SeriesValue(v.value, v.terms, v.tail_estimate + omitted)


def _k_sum(s: complex, chi: Character, nu: int, tr: Truncation, coeff, power: int = 0) -> SeriesValue:
    """sum_{k <= ell_limit} coeff[k]/k sum_{v != 0} |v|^power e^{-k s |v|} chi(v)^k,
    every inner sum read from the base character's table at radius
    max(2, radius / k), in one fold per run of consecutive k that read the
    same ball.  Stops once Re(k s) > 50; the tail covers the truncated
    balls, not the omitted k."""
    ks = [k for k in range(1, tr.ell_limit + 1) if k == 1 or (k * s).real <= 50.0]
    total = 0j
    terms = 0
    tail = 0.0
    for R2, run in itertools.groupby(ks, key=lambda k: int(math.ceil(max(2.0, tr.radius / k) ** 2))):
        mults = np.array(list(run))
        weight = lambda norms: norms**power * np.exp(-np.multiply.outer(mults * s, norms))
        vals, n = lattice.norm_sum(weight, nu, R2, chi, mults)
        for k, val in zip(mults.tolist(), vals.tolist()):
            c = float(coeff[k])
            total += c * complex(val) / k
            terms += n
            tail += abs(c) * _exp_tail_estimate(nu, (k * s).real, max(2.0, tr.radius / k), power) / k
    return SeriesValue(total, terms, tail)


def _log_L_euler(s: complex, chi: Character, nu: int, tr: Truncation) -> SeriesValue:
    """-sum over primitive |p| <= radius of log(1 - chi(p) e^{-s|p|}), one
    term per bin of the gcd-stratified table with g = 1."""
    R2 = int(math.ceil(tr.radius**2))
    total, count = lattice.gcd_sum(
        lambda norms, g, phases: -np.log1p(-phases * np.exp(-s * norms)), nu, R2, chi, primitive=True
    )
    tail = _exp_tail_estimate(nu, s.real, tr.radius)
    return SeriesValue(total, count, tail)


def _log_L_mobius(s: complex, chi: Character, nu: int, tr: Truncation) -> SeriesValue:
    """sum_m mu(m) log G(m s, m alpha), collapsed by sum_{m|k} m mu(m) = gamma(k)
    into one sum over k = l m: sum_k gamma(k)/k g(k s, k alpha)."""
    K = tr.ell_limit
    v = _k_sum(s, chi, nu, tr, ensure_sieve(K).gam)
    # omitted k: |gamma(k)| <= k and g(k s) behaves like 2 nu e^{-k s}
    omitted = 2 * nu * math.exp(-(K + 1) * s.real) / (1 - math.exp(-s.real))
    return SeriesValue(v.value, v.terms, v.tail_estimate + omitted)


def _log_L_series(s: complex, chi: Character, nu: int, tr: Truncation) -> SeriesValue:
    """sum_n M_nu(n, alpha, 1) e^{-s sqrt(n)}, one gcd-weighted term
    chi(v) e^{-s|v|} / gcd(v) per bin of the gcd-stratified table."""
    R2 = int(math.ceil(tr.radius**2))
    val, terms = lattice.gcd_sum(lambda norms, g, phases: phases * np.exp(-s * norms) / g, nu, R2, chi)
    tail = _exp_tail_estimate(nu, s.real, tr.radius)
    return SeriesValue(complex(val), terms, tail)


def log_L(s: complex, chi: Character | None, nu: int, tr: Truncation | None = None) -> SeriesValue:
    """log L(s, alpha; nu), returned from the gcd-weighted series route."""
    s = _require_right_half(s)
    tr = tr or default_truncation(s)
    chi = _as_character(chi, nu)
    return _log_L_series(s, chi, nu, tr)


ROUTES = ("euler", "mobius", "series")


def log_L_routes(
    s: complex, chi: Character | None, nu: int, tr: Truncation | None = None, routes: tuple[str, ...] = ROUTES
) -> dict[str, SeriesValue]:
    """The routes named in ``routes`` (all three by default), keyed 'euler' /
    'mobius' / 'series'; no other route is computed."""
    s = _require_right_half(s)
    tr = tr or default_truncation(s)
    chi = _as_character(chi, nu)
    route = {"euler": _log_L_euler, "mobius": _log_L_mobius, "series": _log_L_series}
    return {name: route[name](s, chi, nu, tr) for name in routes}


def log_deriv_L(
    s: complex, chi: Character | None, nu: int, tr: Truncation | None = None
) -> SeriesValue:
    """L'/L (s, alpha; nu) = -sum_{k <= ell_limit} gamma(k) sum_{v != 0} |v| e^{-k s |v|} chi(v)^k,
    the s-derivative of the Moebius route's k-sum and the paper's Phi
    combination (see the module docstring)."""
    s = _require_right_half(s)
    tr = tr or default_truncation(s)
    chi = _as_character(chi, nu)
    K = tr.ell_limit
    v = _k_sum(s, chi, nu, tr, -np.arange(K + 1) * ensure_sieve(K).gam[: K + 1], power=1)
    # omitted k: |gamma(k)| <= k and the inner sum behaves like 2 nu e^{-k s},
    # so sum_{k > K} k x^k <= (K+1) x^{K+1} / (1-x)^2 with x = e^{-Re s}
    x = math.exp(-s.real)
    omitted = 2 * nu * (K + 1) * x ** (K + 1) / (1 - x) ** 2
    return SeriesValue(v.value, v.terms, v.tail_estimate + omitted)
