"""Zeta-regularized determinants det(Delta_{nu,alpha} + s^2) on the torus.

Odd and even dimensions return the canonical exponential representatives
(any exp(poly of degree 2 ell) ambiguity is annihilated by the ladder
operator d/ds (1/(2s) d/ds)^ell, which all cross-checks apply).  The even
case uses constants corrected for a factor-2ell slip in the source chain;
they are the ones that satisfy the convergent spectral-sum identity, which
is this module's strongest oracle.

The lattice sums of the determinants and of the Poisson dual depend on |n|
alone and are read per shell (:func:`latzeta.lattice.norm_sum`); the PSF
right-hand sides, which the ladder of log det is checked against, sum the
ball point by point, so that check stays independent of the shell tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import lattice
from .errors import DomainError
from .lattice import Character, _as_character
from .ruelle import Truncation
from .special import bessel_K_array, sphere_area

__all__ = [
    "c_coeff",
    "P_poly",
    "Q_func",
    "det_truncation",
    "det_odd",
    "det_even",
    "log_det_odd",
    "log_det_even",
    "det_dim1_exact",
    "spectral_sum",
    "spectral_sum_dual_even",
    "psf_odd_rhs",
    "psf_even_rhs",
    "fourier_power_kernel",
    "ladder_mixed",
    "ladder_pure",
]


@lru_cache(maxsize=None)
def c_coeff(ell: int, k: int) -> Fraction:
    """c_k^(ell) = (1/(2^k k!)) prod_{j=1-k}^{k} (ell+j); c_0 = 1."""
    if not 0 <= k <= ell and not (ell == 0 and k == 0):
        raise IndexError(f"need 0 <= k <= ell, got k={k}, ell={ell}")
    if k == 0:
        return Fraction(1)
    prod = Fraction(1)
    for j in range(1 - k, k + 1):
        prod *= ell + j
    return prod / (Fraction(2) ** k * math.factorial(k))


def P_poly(ell: int, s: complex, a: float) -> complex:
    """P_ell(s, a): 2^{ell+1} s^{2ell+1}/(2ell+1)!! at a=0, else the c-ladder polynomial."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    s = complex(s)
    if a == 0:
        return 2.0 ** (ell + 1) * s ** (2 * ell + 1) / math.prod(range(2 * ell + 1, 0, -2))
    acc = 0j
    for k in range(ell + 1):
        acc += float(c_coeff(ell, k)) * a ** (-k) * s ** (ell - k)
    return (-2.0 / a) ** (ell + 1) * acc


def Q_func(ell: int, s: float, a: float) -> float:
    """Q_ell(s, a): s^{2ell} log s / ell! at a=0, else (-1)^{ell+1} (2s/a)^ell K_ell(as)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if s <= 0:
        raise DomainError("Q_func requires s > 0")
    if a == 0:
        return s ** (2 * ell) * math.log(s) / math.factorial(ell)
    kv = float(bessel_K_array(ell, np.array([a * s]))[0])
    return (-1.0) ** (ell + 1) * (2.0 * s / a) ** ell * kv


def det_truncation(s: complex) -> Truncation:
    """|n| <= max(6, 30/(2 pi Re s)); terms carry e^{-2 pi |n| s}."""
    sr = complex(s).real
    if sr <= 0:
        raise DomainError("need Re(s) > 0")
    return Truncation(radius=max(6.0, 30.0 / (2.0 * math.pi * sr)), ell_limit=1)


def _det_R2(s: complex, tr: Truncation | None) -> int:
    """The squared radius of a determinant-side lattice sum."""
    return int(math.ceil((tr or det_truncation(s)).radius ** 2))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def log_det_odd(ell: int, chi: Character | None, s: complex, tr: Truncation | None = None) -> complex:
    """Exponent of the nu = 2 ell + 1 canonical representative.

    -(-2 pi)^{ell+1} s^{2ell+1} / (2ell+1)!!
      - sum_{n != 0} |n|^{-(ell+1)} sum_k c_k (2 pi |n|)^{-k} s^{ell-k} e^{2 pi i n a} e^{-2 pi |n| s}
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("need Re(s) > 0")
    nu = 2 * ell + 1
    chi, R2 = _as_character(chi, nu), _det_R2(s, tr)
    cs = [float(c_coeff(ell, k)) for k in range(ell + 1)]
    lead = -((-2.0 * math.pi) ** (ell + 1)) / math.prod(range(2 * ell + 1, 0, -2)) * s ** (2 * ell + 1)

    def weight(norms):
        poly = np.zeros(norms.shape, dtype=complex)
        for k, c in enumerate(cs):
            poly += c * (2.0 * math.pi * norms) ** (-float(k)) * s ** (ell - k)
        return norms ** (-(ell + 1.0)) * poly * np.exp(-2.0 * math.pi * norms * s)

    acc, _ = lattice.norm_sum(weight, nu, R2, chi)
    return lead - complex(acc)


def det_odd(ell: int, chi: Character | None, s: complex, tr: Truncation | None = None) -> complex:
    """det(Delta_{2ell+1, alpha} + s^2), canonical representative (mod exp(deg-2ell poly))."""
    return complex(np.exp(log_det_odd(ell, chi, s, tr)))


def log_det_even(ell: int, chi: Character | None, s: float, tr: Truncation | None = None) -> float:
    """Exponent of the nu = 2 ell canonical representative (real s only).

    2 (-1)^ell pi^ell / ell! * s^{2ell} log s
      - 2 s^ell sum_{n != 0} |n|^{-ell} e^{2 pi i n a} K_ell(2 pi |n| s)
    """
    if ell < 1:
        raise ValueError("ell must be >= 1 for the even case")
    s = float(s)
    if s <= 0:
        raise DomainError("det_even requires real s > 0")
    nu = 2 * ell
    chi, R2 = _as_character(chi, nu), _det_R2(s, tr)
    lead = 2.0 * (-1.0) ** ell * math.pi**ell / math.factorial(ell) * s ** (2 * ell) * math.log(s)

    acc, _ = lattice.norm_sum(
        lambda norms: norms ** (-float(ell)) * bessel_K_array(ell, 2.0 * math.pi * norms * s), nu, R2, chi
    )
    return lead - 2.0 * s**ell * float(acc.real)


def det_even(ell: int, chi: Character | None, s: float, tr: Truncation | None = None) -> float:
    """det(Delta_{2ell, alpha} + s^2), canonical representative (mod exp(deg-2ell poly))."""
    return float(np.exp(log_det_even(ell, chi, s, tr)))


def det_dim1_exact(alpha: Fraction | float, s: complex) -> complex:
    """nu = 1 closed form: e^{2 pi s}(1 - e^{2 pi i a} e^{-2 pi s})(1 - e^{-2 pi i a} e^{-2 pi s})."""
    s = complex(s)
    a = float(alpha)
    e = np.exp(-2.0 * math.pi * s)
    return complex(
        np.exp(2.0 * math.pi * s)
        * (1.0 - np.exp(2j * math.pi * a) * e)
        * (1.0 - np.exp(-2j * math.pi * a) * e)
    )


# ---------------------------------------------------------------------------
# spectral sums (the convergent oracles)
# ---------------------------------------------------------------------------


def spectral_sum(nu: int, chi: Character | None, s: float, j: int, radius: float | None = None) -> float:
    """sum_m (|m + alpha|^2 + s^2)^{-j}, the shifted ball |m + alpha| <= radius
    (:func:`latzeta.lattice.shifted_norm_sum`) plus the radial integral from
    radius + 1/2 in closed form.

    Requires j > nu/2.  The residual scales ~ radius^{nu-2j-2}; the default
    radius shrinks with nu, which the faster decay of j > nu/2 allows.
    """
    if 2 * j <= nu:
        raise DomainError("need j > nu/2")
    if s <= 0:
        raise DomainError("need s > 0")
    chi = _as_character(chi, nu)
    R = float(radius) if radius is not None else max({1: 50_000.0, 2: 250.0, 3: 150.0}.get(nu, 40.0), 12.0 * s)
    total, _ = lattice.shifted_norm_sum(lambda sq: (sq + s * s) ** (-float(j)), nu, chi, R)
    area = sphere_area(nu - 1) if nu >= 2 else 2.0
    return float(total) + area * _radial_tail(nu, s, j, R + 0.5)


def _radial_tail(nu: int, s: float, j: int, r0: float) -> float:
    """The integral of r^{nu-1} (r^2 + s^2)^{-j} over r > r0, for integer j > nu/2.

    By parts, I_{n,j} = r0^{n-1} q^{1-j} / (2(j-1)) + (n-1)/(2(j-1)) I_{n-2,j-1}
    with q = r0^2 + s^2: positive terms only, down to I_{1,j} = q^{1-j}/(2(j-1))
    or to I_{0,j}.  I_{0,1} = atan(s/r0)/s; I_{0,j}, j >= 2, is the positive
    series (q^{1/2-j}/2) sum_k (1/2)_k/k! x^k/(j-1/2+k), x = s^2/q, while
    x < 1/2, and otherwise the upward recurrence from I_{0,1}, which has no
    cancellation there.
    """
    q = r0 * r0 + s * s
    n, scale, acc = nu - 1, 1.0, 0.0
    while n >= 1:
        acc += scale * r0 ** (n - 1) * q ** (1 - j) / (2 * (j - 1))
        scale *= (n - 1) / (2 * (j - 1))
        n, j = n - 2, j - 1
    if n < 0:
        return acc
    x = s * s / q
    if j == 1 or x >= 0.5:
        base = math.atan(s / r0) / s
        for i in range(1, j):  # I_{0,i+1} = ((2i-1) I_{0,i} - r0 q^{-i}) / (2 i s^2)
            base = ((2 * i - 1) * base - r0 * q ** (-i)) / (2 * i * s * s)
    else:
        base, term, k = 0.0, 1.0, 0
        while term > 1e-17 * base:
            base += term / (j - 0.5 + k)
            term *= x * (k + 0.5) / (k + 1)
            k += 1
        base *= 0.5 * q ** (0.5 - j)
    return acc + scale * base


def spectral_sum_dual_even(ell: int, chi: Character | None, s: float, tr: Truncation | None = None) -> float:
    """Poisson-dual evaluation of sum_m (|m+alpha|^2+s^2)^{-(ell+1)} in nu = 2 ell dims.

    pi^ell/ell! * [ 1/s^2 + sum_{n != 0} e^{2 pi i n a} (2 pi |n| / s) K_1(2 pi |n| s) ].
    Exponentially convergent; independent check of :func:`spectral_sum`.
    """
    nu = 2 * ell
    chi, R2 = _as_character(chi, nu), _det_R2(s, tr)
    acc, _ = lattice.norm_sum(
        lambda norms: (2.0 * math.pi * norms / s) * bessel_K_array(1, 2.0 * math.pi * norms * s), nu, R2, chi
    )
    return math.pi**ell / math.factorial(ell) * (1.0 / (s * s) + float(acc.real))


def psf_odd_rhs(ell: int, chi: Character | None, s: complex, tr: Truncation | None = None) -> complex:
    """2 (-1)^ell pi^{ell+1} sum_{n in Z^{2ell+1}} e^{2 pi i n a} e^{-2 pi s |n|}."""
    nu = 2 * ell + 1
    chi, R2 = _as_character(chi, nu), _det_R2(s, tr)
    acc, _ = lattice.ball_weighted_sum(nu, R2, chi, lambda norms, rows: np.exp(-2.0 * math.pi * s * norms))
    return 2.0 * (-1.0) ** ell * math.pi ** (ell + 1) * (1.0 + complex(acc))  # 1 is the n = 0 term


def psf_even_rhs(ell: int, chi: Character | None, s: float, tr: Truncation | None = None) -> float:
    """2 (-1)^ell pi^ell [ 1/s + sum_{n != 0} e^{2 pi i n a} (2 pi |n|) K_1(2 pi |n| s) ].

    (Corrected constant; the source's 4 ell (-1)^ell pi^ell carries the
    factor-2ell slip.)
    """
    nu = 2 * ell
    chi, R2 = _as_character(chi, nu), _det_R2(s, tr)
    acc, _ = lattice.ball_weighted_sum(
        nu, R2, chi, lambda norms, rows: (2.0 * math.pi * norms) * bessel_K_array(1, 2.0 * math.pi * norms * s)
    )
    return 2.0 * (-1.0) ** ell * math.pi**ell * (1.0 / s + float(acc.real))


def fourier_power_kernel(ell: int, R: float, s: float) -> float:
    """Fourier transform of (|x|^2 + s^2)^{-(ell+1)} on R^{2 ell} at radius R.

    Equals 2 pi^{ell+1} R s^{-1} K_1(2 pi R s) / ell!  (corrected constant).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if R <= 0 or s <= 0:
        raise DomainError("need R, s > 0")
    kv = float(bessel_K_array(1, np.array([2.0 * math.pi * R * s]))[0])
    return 2.0 * math.pi ** (ell + 1) * R / (s * math.factorial(ell)) * kv


# ---------------------------------------------------------------------------
# ladder operators by finite differences
# ---------------------------------------------------------------------------


def _fornberg_weights(x0: float, nodes: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 (Fornberg 1988)."""
    n = len(nodes) - 1
    c = np.zeros((n + 1, m + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n + 1):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            for k in range(mn, 0, -1):
                c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
            c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _ladder_coeff_table(ell: int, mixed: bool) -> dict[int, dict[int, float]]:
    """Expansion of the ladder operator as sum_j c_j(s) d^j/ds^j, with c_j(s)
    stored as {power-of-s: coefficient} monomial dicts: (1/(2s) d/ds)^ell,
    followed by d/ds when ``mixed``."""
    coeffs: dict[int, dict[int, float]] = {0: {0: 1.0}}
    for c, p in [(0.5, -1)] * ell + [(1.0, 0)] * mixed:  # apply c s^p d/ds
        out: dict[int, dict[int, float]] = {}
        for j, mono in coeffs.items():
            for k, a in mono.items():
                if k != 0:
                    out.setdefault(j, {})
                    out[j][k - 1 + p] = out[j].get(k - 1 + p, 0.0) + a * k * c
                out.setdefault(j + 1, {})
                out[j + 1][k + p] = out[j + 1].get(k + p, 0.0) + a * c
        coeffs = out
    return coeffs


def _apply_operator(f, s: float, coeffs: dict[int, dict[int, float]], h: float) -> complex:
    maxj = max(coeffs)
    K = maxj + 3
    nodes = s + h * np.arange(-K, K + 1)
    vals = np.array([complex(f(float(t))) for t in nodes])
    out = 0j
    for j, mono in coeffs.items():
        cj = sum(a * s**k for k, a in mono.items())
        if j == 0:
            dj = vals[K]
        else:
            w = _fornberg_weights(s, nodes, j)
            dj = complex((w * vals).sum())
        out += cj * dj
    return out


def ladder_mixed(f, ell: int, s: float, h: float | None = None) -> complex:
    """d/ds (1/(2s) d/ds)^ell f, by Fornberg central differences."""
    h = h if h is not None else 0.01 * s
    return _apply_operator(f, s, _ladder_coeff_table(ell, True), h)


def ladder_pure(f, k: int, s: float, h: float | None = None) -> complex:
    """(1/(2s) d/ds)^k f, by Fornberg central differences."""
    h = h if h is not None else 0.01 * s
    return _apply_operator(f, s, _ladder_coeff_table(k, False), h)
