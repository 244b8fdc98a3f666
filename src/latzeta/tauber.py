"""Dirichlet-series identities for M_nu(n, x) and finite-X Tauberian averages.

The asymptotic constants carry the 1/sigma_0 factor of the Tauberian theorem
(residue/abscissa), which the source text dropped for nu != 2; at x = 0 they
reduce to the ball-volume constant pi^{nu/2}/Gamma(nu/2+1), the cleanest
sanity anchor.  Partial sums come from exact lattice-point counts through
the Moebius square-class decomposition of the gcd weight.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import bernoulli, multiplicative_table, r_table
from .errors import DomainError, UnsupportedRegime
from .special import EvalResult, dirichlet_L4, gamma_half, riemann_zeta, zeta_even_exact

__all__ = [
    "AsymptoticReport",
    "script_L",
    "script_L_direct",
    "script_L_tilde",
    "D_series",
    "partial_sum_M",
    "asymptotic_constant",
    "bernoulli_constant",
    "make_report",
    "report_csv",
]


def _zeta(s: float) -> float:
    return riemann_zeta(s).value.real


def script_L(nu: int, s: float) -> EvalResult:
    """script-L_nu(s) = sum r_nu(n) n^{-s}; closed forms for nu in {2,4,6,8}."""
    if s <= nu / 2:
        raise DomainError(f"need s > nu/2 = {nu/2}")
    if nu == 2:
        z, L = riemann_zeta(s), dirichlet_L4(s)
        return EvalResult(4.0 * z.value * L.value, 8.0 * (z.est_error + L.est_error))
    if nu == 4:
        z1, z2 = riemann_zeta(s), riemann_zeta(s - 1)
        val = 8.0 * (1.0 - 4.0 ** (1.0 - s)) * z1.value * z2.value
        return EvalResult(val, 1e-13 * abs(val))
    if nu == 6:
        a = 16.0 * riemann_zeta(s - 2).value * dirichlet_L4(s).value
        b = 4.0 * riemann_zeta(s).value * dirichlet_L4(s - 2).value
        return EvalResult(a - b, 1e-13 * (abs(a) + abs(b)))
    if nu == 8:
        val = (
            16.0
            * (1.0 - 2.0 ** (1.0 - s) + 4.0 ** (2.0 - s))
            * riemann_zeta(s).value
            * riemann_zeta(s - 3).value
        )
        return EvalResult(val, 1e-13 * abs(val))
    return script_L_direct(nu, s)


def script_L_direct(nu: int, s: float, N: int = 10**5) -> EvalResult:
    """Direct sum_{n<=N} r_nu(n) n^{-s} with a radial-integral tail estimate."""
    if s <= nu / 2:
        raise DomainError(f"need s > nu/2 = {nu/2}")
    r = r_table(nu, N)[1:].astype(np.float64)
    n = np.arange(1, N + 1, dtype=np.float64)
    val = float((r * n ** (-float(s))).sum())
    # sum_{n>N} r(n) n^{-s} ~ vol-density * integral
    dens = math.pi ** (nu / 2) / gamma_half(nu + 2)  # ball volume constant
    tail = dens * (nu / 2) / (s - nu / 2) * N ** (nu / 2 - s)
    return EvalResult(complex(val), tail)


def script_L_tilde(nu: int, s: float) -> EvalResult:
    """Primitive-vector series: script-L_nu(s) / zeta(2s)."""
    L = script_L(nu, s)
    z = riemann_zeta(2.0 * s)
    return EvalResult(L.value / z.value, L.est_error / abs(z.value) + z.est_error)


def D_series(nu: int, s: float, x: float) -> EvalResult:
    """D_nu(s; x) = zeta(x + 2s) / zeta(2s) * script-L_nu(s)."""
    if x + 2 * s <= 1:
        raise DomainError("need x + 2s > 1")
    L = script_L(nu, s)
    zx = riemann_zeta(x + 2.0 * s)
    z = riemann_zeta(2.0 * s)
    val = zx.value / z.value * L.value
    return EvalResult(val, abs(val) * 1e-12 + L.est_error)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def _lattice_counts(nu: int, X: int):
    """Z -> N_nu(Z) = #{v in Z^nu : |v|^2 <= Z}, origin included, for int64
    arrays of 0 <= Z <= X: the number of k in -isqrt(Z)..isqrt(Z) at nu = 1,
    the cumulative counting table r_nu above."""
    if nu == 1:
        squares = np.arange(math.isqrt(X) + 1, dtype=np.int64) ** 2
        return lambda Z: 2 * np.searchsorted(squares, Z, side="right") - 1
    cumulative = np.cumsum(r_table(nu, X))
    return lambda Z: cumulative[Z]


def partial_sum_M(nu: int, X: int, x: float) -> float:
    """sum_{n <= X} M_nu(n, 0, x) = sum_{u <= sqrt X} c_x(u) (N_nu(floor(X/u^2)) - 1).

    Every nonzero v is gcd(v) times a primitive vector, so the gcd weight
    splits over square classes with c_x = id^{-x} * mu, the multiplicative
    function with c_x(p^a) = p^{-ax} - p^{-(a-1)x}.  Each exact ball count
    N_nu(Y) is sum_{|m| <= sqrt Y} N_{nu-1}(Y - m^2), read from exact
    (nu-1)-dimensional counts.  At nu = 1 the square-class terms decay only
    like 1/u and cancel, so the sum is taken directly: 2 sum_{k <= sqrt X} k^{-x}.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    x = float(x)
    R = math.isqrt(X)
    if nu == 1:
        return 2.0 * math.fsum((np.arange(1, R + 1, dtype=np.float64) ** -x).tolist())
    c = multiplicative_table(R, lambda p, a: float(p) ** (-a * x) - float(p) ** (-(a - 1) * x), np.float64)
    counts = _lattice_counts(nu - 1, X)
    N = np.empty(R, dtype=np.float64)
    for u in range(1, R + 1):
        Y = X // (u * u)
        m = np.arange(-math.isqrt(Y), math.isqrt(Y) + 1, dtype=np.int64)
        N[u - 1] = int(counts(Y - m * m).sum()) - 1  # drop the origin
    return float(c[1:] @ N)


# ---------------------------------------------------------------------------
# asymptotic constants
# ---------------------------------------------------------------------------


def asymptotic_constant(nu: int, x: "float | Fraction") -> tuple[float, float, bool]:
    """(constant, power, log_flag) in  sum_{n<=X} M_nu(n,x) ~ C X^power (log X)^flag.

    Three regimes about x = 1 - nu; all constants carry the Tauberian
    1/sigma_0 factor (residue over abscissa).  The double-pole boundary is
    detected exactly when x arrives as a Fraction (the CLI passes rational
    input through unconverted), otherwise within 1e-12.
    """
    if nu < 2:
        # script-L_1 = 2 zeta(2s) has no pole at s = nu/2; the nu/2-regime
        # formulas below presume one
        raise UnsupportedRegime("asymptotic_constant requires nu >= 2")
    zeta_nu = zeta_even_exact(nu // 2) if nu % 2 == 0 else _zeta(float(nu))
    if isinstance(x, Fraction):
        on_boundary = x == 1 - nu
    else:
        on_boundary = abs(x - (1 - nu)) <= 1e-12
    x = float(x)
    if on_boundary:
        C = math.pi ** (nu / 2) / (2.0 * zeta_nu * gamma_half(nu + 2))
        return C, nu / 2.0, True
    if x > 1 - nu:
        C = math.pi ** (nu / 2) * _zeta(nu + x) / (zeta_nu * gamma_half(nu + 2))
        return C, nu / 2.0, False
    # x < 1 - nu: needs script-L at (1-x)/2, available in closed form only
    if nu not in (2, 4, 6, 8):
        raise UnsupportedRegime("x < 1 - nu requires a closed form for script-L")
    u = (1.0 - x) / 2.0
    C = script_L(nu, u).value.real / ((1.0 - x) * _zeta(1.0 - x))
    return C, u, False


def bernoulli_constant(ell: int, parity: str) -> float:
    """The x = 1 leading constant via exact Bernoulli numbers.

    parity='even'  (nu = 2 ell):    (-1)^{ell+1} (2 ell)! / (ell! 2^{2ell-1} B_{2ell})
                                     * zeta(2 ell + 1) / pi^ell
    parity='odd'   (nu = 2 ell + 1): (-1)^ell 2^{3ell+2} B_{2ell+2} / ((2ell+1)!! (2ell+2)!)
                                     * pi^{3ell+2} / zeta(2 ell + 1)

    Both are the source's Bernoulli reductions with the missing 1/sigma_0
    restored (ell! for (ell-1)!, (2ell+1)!! 2^{3ell+2} for (2ell-1)!! 2^{3ell+1}).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if parity == "even":
        beta = (
            (-1) ** (ell + 1)
            * Fraction(math.factorial(2 * ell))
            / (math.factorial(ell) * 2 ** (2 * ell - 1) * bernoulli(2 * ell))
        )
        return float(beta) * _zeta(2 * ell + 1) / math.pi**ell
    if parity == "odd":
        dd = 1
        for j in range(1, 2 * ell + 2, 2):
            dd *= j  # (2 ell + 1)!!
        beta = (
            (-1) ** ell
            * 2 ** (3 * ell + 2)
            * bernoulli(2 * ell + 2)
            / (dd * math.factorial(2 * ell + 2))
        )
        return float(beta) * math.pi ** (3 * ell + 2) / _zeta(2 * ell + 1)
    raise ValueError("parity must be 'even' or 'odd'")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticReport:
    nu: int
    x: float
    X: int
    observed: float
    predicted_constant: float
    predicted_power: float
    log_factor: bool
    ratio: float

    def csv_row(self) -> list:
        return [
            self.nu,
            self.x,
            self.X,
            repr(self.observed),
            repr(self.predicted_constant),
            self.predicted_power,
            int(self.log_factor),
            repr(self.ratio),
        ]


CSV_HEADER = ["nu", "x", "X", "observed", "predicted", "power", "log_factor", "ratio"]


def make_report(nu: int, x: "float | Fraction", X: int) -> AsymptoticReport:
    """Observed partial sum against the predicted leading term."""
    C, power, logf = asymptotic_constant(nu, x)
    obs = partial_sum_M(nu, X, float(x))
    denom = C * float(X) ** power * (math.log(X) if logf else 1.0)
    return AsymptoticReport(
        nu=nu,
        x=float(x),
        X=X,
        observed=obs,
        predicted_constant=C,
        predicted_power=power,
        log_factor=logf,
        ratio=obs / denom,
    )


def report_csv(reports: list[AsymptoticReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in reports:
        w.writerow(r.csv_row())
    return buf.getvalue()
