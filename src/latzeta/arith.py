"""Multiplicative arithmetic: mu, gamma(n) = prod_{p|n}(1-p), sums of squares
representation numbers (counting and closed forms), twisted/primitive shell
sums, the gcd-weighted shell sums M_nu(n, alpha, x), and Bernoulli numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import lattice
from .errors import CheckFailed, UnsupportedDimension
from .lattice import Character, _as_character

__all__ = [
    "SieveTable",
    "ensure_sieve",
    "primes_upto",
    "moebius",
    "gamma_mult",
    "chi4",
    "factorize",
    "divisors",
    "r_count",
    "r_table",
    "r_closed",
    "r_closed_table",
    "rtilde_prime_power",
    "r_twisted",
    "r_primitive",
    "M_value",
    "g_weight",
    "bernoulli",
]

DEFAULT_SIEVE_LIMIT = 10**6


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n (numpy sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if s[p]:
            s[p * p :: p] = False
    return np.nonzero(s)[0].astype(np.int64)


@dataclass
class SieveTable:
    """Per-integer mu(n), gamma(n), and smallest prime factor up to ``limit``."""

    limit: int
    mu: np.ndarray
    gam: np.ndarray
    spf: np.ndarray
    primes: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "SieveTable":
        limit = max(limit, 3)
        mu = np.ones(limit + 1, dtype=np.int64)
        gam = np.ones(limit + 1, dtype=np.int64)
        spf = np.zeros(limit + 1, dtype=np.int64)
        ps = primes_upto(limit)
        for p in ps:
            p = int(p)
            mu[p::p] *= -1
            gam[p::p] *= 1 - p
            sl = spf[p::p]
            sl[sl == 0] = p
            if p * p <= limit:
                mu[p * p :: p * p] = 0
        spf[1] = 1
        return cls(limit=limit, mu=mu, gam=gam, spf=spf, primes=ps)


_SIEVE: SieveTable | None = None


def ensure_sieve(limit: int = DEFAULT_SIEVE_LIMIT) -> SieveTable:
    """Build (or extend) the shared sieve table; it at least doubles when it
    grows, so rising requests rebuild it only logarithmically often."""
    global _SIEVE
    if _SIEVE is None:
        _SIEVE = SieveTable.build(limit)
    elif _SIEVE.limit < limit:
        _SIEVE = SieveTable.build(max(limit, 2 * _SIEVE.limit))
    return _SIEVE


def _trial_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e}; sieve-backed below the sieve limit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return {}
    if n <= DEFAULT_SIEVE_LIMIT:
        st = ensure_sieve(n)
        out: dict[int, int] = {}
        while n > 1:
            p = int(st.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out
    return _trial_factorize(n)  # slow path above the sieve limit


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= DEFAULT_SIEVE_LIMIT:
        return int(ensure_sieve(n).mu[n])
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def gamma_mult(n: int) -> int:
    """gamma(n) = prod_{p|n} (1-p) = sum_{m|n} m mu(m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= DEFAULT_SIEVE_LIMIT:
        return int(ensure_sieve(n).gam[n])
    out = 1
    for p in factorize(n):
        out *= 1 - p
    return out


def chi4(n: int) -> int:
    """The primitive Dirichlet character mod 4."""
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


# ---------------------------------------------------------------------------
# representation numbers r_nu(n)
# ---------------------------------------------------------------------------


def r_count(nu: int, n: int) -> int:
    """#{m in Z^nu : |m|^2 = n} by direct shell enumeration."""
    if nu < 1 or n < 1:
        raise ValueError("need nu >= 1 and n >= 1")
    return lattice.shell_array(nu, n).shape[0]


@lru_cache(maxsize=16)
def r_table(nu: int, N: int) -> np.ndarray:
    """Exact table [r_nu(0), ..., r_nu(N)] by repeated 1-D counting convolution.

    This is pure counting (no closed forms): starting from the
    number-of-ways-one-coordinate table r_1, each step convolves with r_1.
    int64 throughout; a guard refuses ranges whose counts could overflow.
    """
    if nu < 1 or N < 0:
        raise ValueError("need nu >= 1 and N >= 0")
    t = np.zeros(N + 1, dtype=np.int64)
    t[0] = 1
    t[np.arange(1, math.isqrt(N) + 1) ** 2] = 2
    shifts = 2 * math.isqrt(N) + 1
    for _ in range(nu - 1):
        if int(t.max()) > (1 << 62) // max(shifts, 1):
            raise OverflowError("r_table counts would exceed int64")
        nxt = t.copy()
        j = 1
        while j * j <= N:
            nxt[j * j :] += 2 * t[: N + 1 - j * j]
            j += 1
        t = nxt
    t.setflags(write=False)
    return t


def _r_closed_pp(nu: int, p: int, e: int) -> int:
    """r_nu(p^e)/(2 nu) from the prime-power closed forms (nu in {2,4,8}).

    The only source of r_nu at prime powers: `r_closed`, `r_closed_table` and
    `rtilde_prime_power` (and so the boundary certificates) read it.
    """
    if e == 0:
        return 1
    if nu == 2:
        if p == 2:
            return 1
        if p % 4 == 1:
            return e + 1
        return 1 if e % 2 == 0 else 0
    if nu == 4:
        if p == 2:
            return 3
        return (p ** (e + 1) - 1) // (p - 1)
    if nu == 8:
        if p == 2:
            return (2 ** (3 * (e + 1)) - 15) // 7
        return (p ** (3 * (e + 1)) - 1) // (p**3 - 1)
    raise UnsupportedDimension(f"prime-power closed form only for nu in {{2,4,8}}, got {nu}")


def rtilde_prime_power(nu: int, p: int, a: int) -> int:
    """r_nu(p^{2a}) / (2 nu) from the prime-power closed forms, nu in {2,4,8}."""
    return _r_closed_pp(nu, p, 2 * a)


def multiplicative_table(N: int, local, dtype) -> np.ndarray:
    """[f(0), ..., f(N)] for the multiplicative f with f(p^a) = local(p, a).

    f(0) is 1.  One pass per prime p <= N: each multiple of p takes local(p, a)
    for the largest a with p^a dividing it.
    """
    out = np.ones(N + 1, dtype=dtype)
    for p in primes_upto(N):
        p = int(p)
        f = np.empty(N // p, dtype=dtype)  # f[j] belongs to k = (j + 1) p
        pa, a = p, 1
        while pa <= N:
            f[pa // p - 1 :: pa // p] = local(p, a)
            pa *= p
            a += 1
        out[p::p] *= f
    return out


def r_closed(nu: int, n: int) -> int:
    """r_nu(n) via closed forms; nu in {2, 4, 6, 8}, exact integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if nu == 6:
        # r_6(n) = 16 sum_{m|n} chi4(n/m) m^2 - 4 sum_{m|n} chi4(m) m^2
        s1 = sum(chi4(n // m) * m * m for m in divisors(n))
        s2 = sum(chi4(m) * m * m for m in divisors(n))
        return 16 * s1 - 4 * s2
    if nu not in (2, 4, 8):
        raise UnsupportedDimension(f"closed form only for nu in {{2,4,6,8}}, got {nu}")
    return 2 * nu * math.prod(_r_closed_pp(nu, p, e) for p, e in factorize(n).items())


def r_closed_table(nu: int, N: int) -> np.ndarray:
    """[r_nu(0..N)] from the closed forms, as multiplicative tables.  Exact int64."""
    if nu == 6:
        # the divisor sums chi4 * id^2 and (chi4 id^2) * 1 are multiplicative
        s1 = multiplicative_table(
            N, lambda p, a: sum(chi4(p) ** (a - k) * p ** (2 * k) for k in range(a + 1)), np.int64
        )
        s2 = multiplicative_table(N, lambda p, a: sum((chi4(p) * p * p) ** k for k in range(a + 1)), np.int64)
        out = 16 * s1 - 4 * s2
        out[0] = 1
        return out
    if nu not in (2, 4, 8):
        raise UnsupportedDimension(f"closed form only for nu in {{2,4,6,8}}, got {nu}")
    if nu == 8 and N > 700_000:
        raise OverflowError("r_8 values beyond n ~ 7e5 exceed int64; use r_closed")
    out = multiplicative_table(N, lambda p, a: _r_closed_pp(nu, p, a), np.int64)
    out *= 2 * nu
    out[0] = 1
    return out


# ---------------------------------------------------------------------------
# twisted and primitive shell sums
# ---------------------------------------------------------------------------


def _real_if_close(z: complex) -> complex:
    if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
        return complex(z.real, 0.0)
    return z


def r_twisted(nu: int, n: int, chi: Character | None) -> complex:
    """r_nu(n, alpha) = sum over the shell of exp(2 pi i <m, alpha>)."""
    chi = _as_character(chi, nu)
    arr = lattice.shell_array(nu, n)
    if arr.shape[0] == 0:
        return 0j
    if chi.is_zero():
        return complex(arr.shape[0])
    ph = lattice.pairing_phases(arr, chi)
    return _real_if_close(complex(ph.sum()))


def r_primitive(nu: int, n: int, chi: Character | None) -> complex:
    """Primitive twisted count: shell vectors with gcd 1 only."""
    chi = _as_character(chi, nu)
    arr = lattice.shell_array(nu, n)
    if arr.shape[0] == 0:
        return 0j
    arr = arr[lattice.row_gcd(arr) == 1]
    if arr.shape[0] == 0:
        return 0j
    if chi.is_zero():
        return complex(arr.shape[0])
    ph = lattice.pairing_phases(arr, chi)
    return _real_if_close(complex(ph.sum()))


def g_weight(n: int, x: float) -> float:
    """g_x(n): k^{-x} when n = k^2, else 0."""
    k = math.isqrt(n)
    if k * k != n:
        return 0.0
    return float(k) ** (-x)


def M_value(nu: int, n: int, chi: Character | None, x: float) -> complex:
    """Gcd-weighted twisted shell sum; computed two ways, which must agree.

    Direct route: sum over the shell of gcd(m)^{-x} exp(2 pi i <m, alpha>).
    Convolution route: sum over l^2 | n of g_x(l^2) rtilde(n/l^2, l alpha).
    """
    chi = _as_character(chi, nu)
    arr = lattice.shell_array(nu, n)
    if arr.shape[0] == 0:
        return 0j
    g = lattice.row_gcd(arr)
    w = g.astype(np.float64) ** (-float(x))
    if chi.is_zero():
        direct = complex(w.sum())
    else:
        direct = complex((w * lattice.pairing_phases(arr, chi)).sum())
    conv = 0j
    ell = 1
    while ell * ell <= n:
        if n % (ell * ell) == 0:
            conv += float(ell) ** (-float(x)) * r_primitive(nu, n // (ell * ell), chi.scaled(ell))
        ell += 1
    if abs(direct - conv) > 1e-12 * max(1.0, abs(direct)):
        raise CheckFailed(
            f"M_value routes disagree: direct={direct}, convolution={conv} (nu={nu}, n={n}, x={x})"
        )
    return _real_if_close(direct)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2), by the textbook recurrence, cached."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]
