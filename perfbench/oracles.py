"""The benchmark's own reference computations.

Each one is written here from the definitions, with plain numpy box
enumeration, so a check compares latzeta against code that shares none of its
lattice, arith or special-function layers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def box_slabs(nu: int, R: int):
    """The box {-R..R}^nu as int64 slabs of rows, one slab per leading pair
    of coordinates (per leading coordinate when nu <= 3)."""
    line = np.arange(-R, R + 1, dtype=np.int64)
    lead = 1 if nu <= 3 else 2
    rest = nu - lead
    if rest == 0:
        yield line[:, None]
        return
    grids = np.meshgrid(*[line] * rest, indexing="ij")
    sub = np.stack([g.ravel() for g in grids], axis=1)
    leads = np.stack([g.ravel() for g in np.meshgrid(*[line] * lead, indexing="ij")], axis=1)
    for head in leads:
        out = np.empty((sub.shape[0], nu), dtype=np.int64)
        out[:, :lead] = head
        out[:, lead:] = sub
        yield out


def _phases(pts: np.ndarray, alpha: tuple[Fraction, ...]) -> np.ndarray:
    """exp(2 pi i <m, alpha>) with <m, alpha> reduced mod 1 in integers."""
    D = math.lcm(*(a.denominator for a in alpha))
    nums = np.array([int(a * D) for a in alpha], dtype=np.int64)
    return np.exp(2j * np.pi * ((pts @ nums) % D) / D)


def euler_product_log(nu: int, s: complex, alpha, R2: int) -> complex:
    """-sum over primitive m, 0 < |m|^2 <= R2, of log(1 - chi(m) e^{-s|m|})."""
    total = 0j
    for pts in box_slabs(nu, math.isqrt(R2)):
        sq = (pts * pts).sum(axis=1)
        pts = pts[(sq <= R2) & (np.gcd.reduce(np.abs(pts), axis=1) == 1)]
        norms = np.sqrt((pts * pts).sum(axis=1).astype(np.float64))
        total += complex(-np.log1p(-_phases(pts, alpha) * np.exp(-s * norms)).sum())
    return total


def shell_counts(nu: int, N: int) -> np.ndarray:
    """#{m in Z^nu : |m|^2 = n} for n = 0..N, adding one coordinate at a time."""
    out = np.zeros(N + 1, dtype=np.int64)
    out[0] = 1
    for _ in range(nu):
        prev = out.copy()
        for k in range(1, math.isqrt(N) + 1):
            out[k * k :] += 2 * prev[: N + 1 - k * k]
    return out


def gcd_weighted_count(nu: int, X: int, x: float) -> float:
    """sum over 0 < |m|^2 <= X of gcd(m)^(-x)."""
    total = 0.0
    for pts in box_slabs(nu, math.isqrt(X)):
        sq = (pts * pts).sum(axis=1)
        pts = pts[(sq <= X) & (sq > 0)]
        g = np.gcd.reduce(np.abs(pts), axis=1).astype(np.float64)
        total += float((g ** (-x)).sum())
    return total


def _radial_tail(nu: int, s: float, j: int, r0: float) -> float:
    """int_{r0}^inf r^{nu-1} (r^2 + s^2)^{-j} dr by Gauss-Legendre after
    r = r0 / t, which maps the tail onto (0, 1] with a smooth integrand."""
    t, w = np.polynomial.legendre.leggauss(200)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    r = r0 / t
    return float((w * r ** (nu - 1) * (r * r + s * s) ** (-float(j)) * r0 / (t * t)).sum())


def spectral_sum(nu: int, alpha, s: float, j: int, R: float) -> float:
    """sum over |m + alpha| <= R of (|m + alpha|^2 + s^2)^{-j}, plus the
    radial integral from R + 1/2 over the sphere area, as the library
    defines its truncation."""
    shift = np.array([float(a) for a in alpha])
    total = 0.0
    for pts in box_slabs(nu, int(math.ceil(R)) + 1):
        sq = ((pts.astype(np.float64) + shift) ** 2).sum(axis=1)
        total += float(np.sum((sq[sq <= R * R] + s * s) ** (-float(j))))
    area = 2.0 * math.pi ** (nu / 2) / math.gamma(nu / 2)
    return total + area * _radial_tail(nu, s, j, R + 0.5)
