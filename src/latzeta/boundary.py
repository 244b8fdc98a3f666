"""Exact-rational certification of the natural-boundary nonvanishing.

Everything feeding a verdict is computed in exact rational arithmetic from
the prime-power closed forms of r_nu (nu in {2, 4, 8}): both sides of the
key inequality, the local factors E/F at the primes of m*n, the local
factors G at the primes 2 and 3 that do not divide m*n, and a G-tail bound
for every prime p > 3 that rests on |1 - G_{nu,p}| <= 4/p^2, proven in the
test suite.  So a certificate's size grows only with the primes of m*n.  A
float cross-check evaluates the R-coefficient series directly and the
factored product with the G-part completed over primes up to 1e7.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import ensure_sieve, factorize, multiplicative_table, primes_upto, rtilde_prime_power
from .errors import CheckFailed, NotCoprime, NotPrime, UnsupportedDimension

__all__ = [
    "KeyLemmaResult",
    "Certificate",
    "key_lemma_sides",
    "key_lhs",
    "local_E",
    "local_F",
    "local_G",
    "G_TAIL_C",
    "g_tail_log_bound",
    "R_coeff_series",
    "certify_nonvanishing",
    "certificate_schema",
]

_SUPPORTED = (2, 4, 8)


def _check_nu(nu: int) -> None:
    if nu not in _SUPPORTED:
        raise UnsupportedDimension(f"nu must be one of {_SUPPORTED}, got {nu}")


def _check_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise NotPrime(f"{p} is not prime")


def _geom(x: Fraction) -> Fraction:
    """sum_{n>=1} x^n = x/(1-x), exact."""
    return x / (1 - x)


def _arith_geom(x: Fraction) -> Fraction:
    """sum_{n>=1} n x^n = x/(1-x)^2, exact."""
    return x / (1 - x) ** 2


def key_lhs(nu: int, p: int, e: int) -> Fraction:
    """sum_{n>=1} r_nu(p^{2(n+e)}) p^{-n(nu+1)}, exact closed form."""
    _check_nu(nu)
    _check_prime(p)
    if e < 0:
        raise ValueError("e must be >= 0")
    x = Fraction(1, p ** (nu + 1))
    if nu == 2:
        if p == 2 or p % 4 == 3:
            # r_2(p^{2a}) = 4 for all a >= 1 in both classes
            return 4 * _geom(x)
        # p = 1 mod 4: r_2(p^{2a}) = 4 (2a + 1)
        return 4 * (2 * _arith_geom(x) + (2 * e + 1) * _geom(x))
    if nu == 4:
        if p == 2:
            return 24 * _geom(x)
        # r_4(p^{2a}) = 8 (p^{2a+1} - 1)/(p - 1)
        px = Fraction(p * p) * x  # = p^{-3}
        return Fraction(8, p - 1) * (p ** (2 * e + 1) * _geom(px) - _geom(x))
    # nu == 8
    if p == 2:
        # r_8(2^{2a}) = 16 (2^{3(2a+1)} - 15)/7 for a >= 1
        px = Fraction(2**6) * x  # = 2^{-3}
        return Fraction(16, 7) * (2 ** (6 * e + 3) * _geom(px) - 15 * _geom(x))
    px = Fraction(p**6) * x  # = p^{-3}
    return Fraction(16, p**3 - 1) * (p ** (6 * e + 3) * _geom(px) - _geom(x))


def _r_pp(nu: int, p: int, a: int) -> int:
    """r_nu(p^{2a}) exactly."""
    return 2 * nu * rtilde_prime_power(nu, p, a)


@dataclass(frozen=True)
class KeyLemmaResult:
    nu: int
    p: int
    e: int
    lhs: Fraction
    rhs: Fraction

    @property
    def distinct(self) -> bool:
        return self.lhs != self.rhs


def key_lemma_sides(nu: int, p: int, e: int) -> KeyLemmaResult:
    """Both sides of the key inequality, exact; ``distinct`` must be true."""
    lhs = key_lhs(nu, p, e)
    rhs = Fraction(_r_pp(nu, p, e), p - 1)
    return KeyLemmaResult(nu=nu, p=p, e=e, lhs=lhs, rhs=rhs)


def local_E(nu: int, q: int) -> Fraction:
    """E_{nu,q} = sum_{m>=0} r_nu(q^{2m}) q^{-m(nu+1)} = 2 nu + key_lhs(nu, q, 0)."""
    _check_nu(nu)
    _check_prime(q)
    return Fraction(2 * nu) + key_lhs(nu, q, 0)


def local_F(nu: int, p: int, e: int) -> Fraction:
    """F_{nu,p}(e) = r_nu(p^{2e}) - (p-1) * key_lhs(nu, p, e); nonzero by the key lemma."""
    _check_nu(nu)
    _check_prime(p)
    val = Fraction(_r_pp(nu, p, e)) - (p - 1) * key_lhs(nu, p, e)
    if val == 0:
        raise CheckFailed(f"F_{{{nu},{p}}}({e}) = 0 contradicts the key lemma")
    return val


def local_G(nu: int, p: int) -> Fraction:
    """G_{nu,p} = 1 - (p-1)/(2 nu) * key_lhs(nu, p, 0); nonzero by the key lemma at e=0."""
    _check_nu(nu)
    _check_prime(p)
    val = 1 - Fraction(p - 1, 2 * nu) * key_lhs(nu, p, 0)
    if val == 0:
        raise CheckFailed(f"G_{{{nu},{p}}} = 0 contradicts the key lemma")
    return val


# 0 < 1 - G_{nu,p} <= c_nu / p^2 for every prime p >= 3 (the spec's
# p^{-(nu-1)} shape diverges for nu=2); proven from the closed forms, per nu
# and residue class, by TestLocalFactors.test_G_tail_constant_proof in
# tests/test_boundary.py
G_TAIL_C = {2: Fraction(4), 4: Fraction(4), 8: Fraction(4)}

# the smallest P with c_nu/P^2 <= 1/2, which g_tail_log_bound needs: exact
# G factors at the primes p <= P, the proven tail bound beyond
_G_TAIL_FROM = 3


def g_tail_log_bound(nu: int, P: int) -> float:
    """An upper bound on |sum_{p > P} log G_{nu,p}|.

    Uses |1 - G_{nu,p}| <= c/p^2 <= 1/2 and |log(1-x)| <= 2|x| for |x| <= 1/2,
    and sum_{p > P} p^{-2} <= 1/P.
    """
    c = float(G_TAIL_C[nu])
    if c / P**2 > 0.5:
        raise ValueError(f"P = {P} is too small for the tail bound (needs c/P^2 <= 1/2)")
    return 2.0 * c / P


# ---------------------------------------------------------------------------
# float series route
# ---------------------------------------------------------------------------


# one table rtilde_nu(k^2), k = 0..K, per (nu, K); every m and n reads it
_SIEVE_CACHE: dict = {}


def _rtilde_squares(nu: int, K: int) -> np.ndarray:
    """f[k] = rtilde_nu(k^2) = r_nu(k^2)/(2 nu) as float64 for k = 0..K (f[0] unused).

    float64, because rtilde_8(k^2) ~ k^6 leaves int64 near k ~ 2e5.
    """
    key = (nu, K)
    if key not in _SIEVE_CACHE:
        _SIEVE_CACHE[key] = multiplicative_table(
            K, lambda p, a: float(rtilde_prime_power(nu, p, a)), np.float64
        )
    return _SIEVE_CACHE[key]


def R_coeff_series(nu: int, m_tilde: int, n_tilde: int, K: int = 200_000) -> float:
    """R_nu(m/n) = n^{-(nu+1)} sum_{k<=K} gamma(k n) r_nu(k^2 m^2) k^{-(nu+1)}."""
    _check_nu(nu)
    if math.gcd(m_tilde, n_tilde) != 1:
        raise NotCoprime(f"gcd({m_tilde}, {n_tilde}) != 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    # rtilde((k m)^2) from rtilde(k^2): at each p^e || m, a k with v_p(k) = a
    # takes rtilde(p^{2(a+e)}) / rtilde(p^{2a}); rtilde > 0 for nu = 2, 4, 8
    f = _rtilde_squares(nu, K)
    for p, e in factorize(m_tilde).items():
        ratio = np.full(K + 1, float(rtilde_prime_power(nu, p, e)))
        pa, a = p, 1
        while pa <= K:  # each multiple of p^a overwrites its value at a - 1
            ratio[pa::pa] = float(rtilde_prime_power(nu, p, a + e)) / float(rtilde_prime_power(nu, p, a))
            pa *= p
            a += 1
        f = f * ratio
    # gamma(k n) = gamma(k) prod_{q | n, q not | k} (1 - q)
    g = ensure_sieve(K).gam[: K + 1].astype(np.float64)
    for q in factorize(n_tilde):
        factor = np.full(K + 1, float(1 - q))
        factor[::q] = 1.0
        g *= factor
    k = np.arange(0, K + 1, dtype=np.float64)
    k[0] = 1.0
    terms = g * (2.0 * nu * f) / k ** (nu + 1)
    terms[0] = 0.0
    return float(terms.sum()) / float(n_tilde) ** (nu + 1)


_G_FLOAT_PMAX = 10**7


def _g_log_sum_float(nu: int, pmax: int = _G_FLOAT_PMAX) -> tuple[float, np.ndarray]:
    """(sum_p log G_{nu,p} over p <= pmax, the prime array).  Cached per nu."""
    key = (nu, pmax)
    if key in _G_LOG_CACHE:
        return _G_LOG_CACHE[key]
    P = primes_upto(pmax).astype(np.float64)
    x = P ** (-(nu + 1.0))
    if nu == 2:
        s = np.where(P % 4 == 1, x * (3.0 - x) / (1.0 - x) ** 2, x / (1.0 - x))
        s[P == 2] = (1.0 / 8.0) / (1.0 - 1.0 / 8.0)
        ssum = 4.0 * s  # = key_lhs float
    elif nu == 4:
        px = P * P * x
        ssum = 8.0 / (P - 1.0) * (P * px / (1.0 - px) - x / (1.0 - x))
        ssum[P == 2] = 24.0 * (x[0] / (1.0 - x[0]))
    else:
        px = P**6 * x
        ssum = 16.0 / (P**3 - 1.0) * (P**3 * px / (1.0 - px) - x / (1.0 - x))
        i2 = P == 2
        ssum[i2] = (16.0 / 7.0) * (8.0 * px[i2] / (1.0 - px[i2]) - 15.0 * x[i2] / (1.0 - x[i2]))
    Gp = 1.0 - (P - 1.0) / (2.0 * nu) * ssum
    _G_LOG_CACHE[key] = (float(np.log(Gp).sum()), P)
    return _G_LOG_CACHE[key]


_G_LOG_CACHE: dict = {}


def _log_G_at(nu: int, p: int) -> float:
    return math.log(float(local_G(nu, p)))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    nu: int
    m_tilde: int
    n_tilde: int
    E_factors: list[tuple[int, Fraction]] = field(default_factory=list)
    F_factors: list[tuple[int, int, Fraction]] = field(default_factory=list)  # (p, e, value)
    G_partial: Fraction = Fraction(1)
    g_tail_bound: float = 0.0
    exact_value: Fraction = Fraction(0)
    series_value: float = 0.0
    factored_value: float = 0.0
    verdict: bool = False

    def to_json_dict(self) -> dict:
        factors = []
        for q, v in self.E_factors:
            factors.append({"kind": "E", "p": q, "num": str(v.numerator), "den": str(v.denominator)})
        for p, e, v in self.F_factors:
            factors.append({"kind": "F", "p": p, "e": e, "num": str(v.numerator), "den": str(v.denominator)})
        factors.append(
            {
                "kind": "G",
                "p": _G_TAIL_FROM,
                "num": str(self.G_partial.numerator),
                "den": str(self.G_partial.denominator),
            }
        )
        return {
            "nu": self.nu,
            "m": self.m_tilde,
            "n": self.n_tilde,
            "prime_limit": _G_TAIL_FROM,
            "factors": factors,
            "g_tail_bound": self.g_tail_bound,
            "series_value": self.series_value,
            "factored_value": self.factored_value,
            "verdict": self.verdict,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by base name."""
    import importlib.resources as res

    with res.files("latzeta").joinpath(f"schemas/{name}.schema.json").open() as fh:
        return json.load(fh)


def certificate_schema() -> dict:
    """The shipped JSON schema for serialized certificates."""
    return load_schema("certificate")


def certify_nonvanishing(
    nu: int,
    m_tilde: int,
    n_tilde: int,
    *,
    series_K: int = 200_000,
) -> Certificate:
    """Certify R_nu(m/n) != 0 through the exact E*F*G factorization.

    n^{nu+1} R_nu(m/n) = prod_q [(1-q)/(2nu) E_{nu,q}] * prod_p [F_{nu,p}/(2nu)]
                         * 2 nu prod_{p' not | mn} G_{nu,p'},

    q over primes of n, p over primes of m (with e = v_p(m)).  The verdict is
    true iff every exact factor is nonzero: E and F at the primes of m*n, G
    at the primes 2 and 3 that do not divide m*n.  Every G_{nu,p'} with
    p' > 3 has 0 < 1 - G_{nu,p'} <= 4/p'^2 by the proven G_TAIL_C, so their
    product converges to a nonzero value, whose log is bounded by
    g_tail_bound.  The float cross-check compares against the direct series.
    """
    _check_nu(nu)
    if math.gcd(m_tilde, n_tilde) != 1:
        raise NotCoprime(f"gcd({m_tilde}, {n_tilde}) != 1")
    mf = factorize(m_tilde)
    nf = factorize(n_tilde)

    cert = Certificate(nu=nu, m_tilde=m_tilde, n_tilde=n_tilde)
    exact = Fraction(1)
    for q in sorted(nf):
        Eq = local_E(nu, q)
        cert.E_factors.append((q, Eq))
        exact *= Fraction(1 - q, 2 * nu) * Eq
    for p in sorted(mf):
        Fp = local_F(nu, p, mf[p])
        cert.F_factors.append((p, mf[p], Fp))
        exact *= Fp / (2 * nu)
    Gpart = Fraction(1)
    gprimes = []
    for p in primes_upto(_G_TAIL_FROM):
        p = int(p)
        if p in mf or p in nf:
            continue
        Gpart *= local_G(nu, p)
        gprimes.append(p)
    cert.G_partial = Gpart
    exact *= 2 * nu * Gpart
    cert.exact_value = exact

    cert.g_tail_bound = g_tail_log_bound(nu, _G_TAIL_FROM)
    nonzero = all(v != 0 for _, v in cert.E_factors)
    nonzero &= all(v != 0 for _, _, v in cert.F_factors)
    nonzero &= Gpart != 0
    # tail: |sum_{p>3} log G| <= bound < inf keeps prod_{p>3} G in
    # [e^-bound, 1), in particular nonzero
    cert.verdict = bool(nonzero and exact != 0)

    # float cross-check
    cert.series_value = R_coeff_series(nu, m_tilde, n_tilde, K=series_K)
    logsum, _ = _g_log_sum_float(nu)
    excl = 0.0
    for p in sorted(set(mf) | set(nf) | set(gprimes)):
        excl += _log_G_at(nu, p)
    # factored = exact(E, F, G at p <= 3) * exp(sum_{3 < p <= 1e7, p not | mn} log G)
    rest = logsum - excl
    cert.factored_value = (
        float(exact) * math.exp(rest) / float(n_tilde) ** (nu + 1)
    )
    return cert
