"""Balls and shells of Z^nu, unitary characters, and twisted sums over the ball.

The lattice is Z^nu with the Euclidean squared norm; characters are points
alpha in [0,1)^nu with exact rational components, paired with vectors through
exp(2*pi*i <n, alpha>).  The pairing phase is reduced mod 1 in exact integer
arithmetic before being exponentiated, so long sums do not accumulate phase
drift.  Every lattice sum of the package runs here: point by point over the
ball (:func:`ball_weighted_sum`), per shell from a shell-by-residue table
built by convolution over the coordinates when the weight depends on |v|
alone (:func:`norm_sum`), per bin from a gcd-stratified table built by one
streamed enumeration when the term depends on |v|, gcd(v) and the phase
(:func:`gcd_sum`), or over the shifted ball by prefixes of sorted norms
(:func:`shifted_norm_sum`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Character",
    "ball_array",
    "ball_chunks",
    "ball_count",
    "shell_array",
    "ShellResidueTable",
    "shell_residue_table",
    "GcdResidueTable",
    "gcd_residue_table",
    "row_gcd",
    "pairing_phases",
    "ball_weighted_sum",
    "norm_sum",
    "gcd_sum",
    "shifted_norm_sum",
]


@dataclass(frozen=True)
class Character:
    """A unitary character of Z^nu, stored as alpha in [0,1)^nu exactly."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        reduced = tuple(Fraction(a) % 1 for a in self.alpha)
        object.__setattr__(self, "alpha", reduced)

    @classmethod
    def zero(cls, nu: int) -> "Character":
        return cls(tuple(Fraction(0) for _ in range(nu)))

    @classmethod
    def from_string(cls, text: str) -> "Character":
        """Parse comma-separated exact fractions, e.g. ``"1/3,0,1/2"``."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty character string")
        return cls(tuple(Fraction(p) for p in parts))

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.alpha)

    def scaled(self, m: int) -> "Character":
        """The character of n -> exp(2 pi i <n, m*alpha>), reduced mod 1."""
        return Character(tuple((m * a) % 1 for a in self.alpha))

    def negated(self) -> "Character":
        return Character(tuple((-a) % 1 for a in self.alpha))

    def numerators_denominator(self) -> tuple[np.ndarray, int]:
        """Common-denominator representation (a_1..a_nu, D) with alpha_j = a_j/D."""
        D = 1
        for a in self.alpha:
            D = D * a.denominator // math.gcd(D, a.denominator)
        nums = np.array([int(a * D) for a in self.alpha], dtype=np.int64)
        return nums, D


def _as_character(chi: "Character | Sequence | int | None", nu: int) -> Character:
    if chi is None or (isinstance(chi, int) and chi == 0):
        return Character.zero(nu)
    if isinstance(chi, Character):
        if chi.dim != nu:
            raise DimensionMismatch(f"character dim {chi.dim} != {nu}")
        return chi
    return Character(tuple(Fraction(a) for a in chi))


# ---------------------------------------------------------------------------
# the ball enumerator: every lattice point set is a view of this recursion
# ---------------------------------------------------------------------------

CHUNK_ROWS = 1 << 18  # ~8 MB of int64 rows per streamed chunk at nu = 4


def _isqrt(a: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(a)) of a non-negative int64 array, exact."""
    r = np.sqrt(a).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


def _lines(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lengths 2r+1 of lines with half-lengths r, and the coordinates
    -r..r of every line, concatenated."""
    lengths = 2 * r + 1
    return lengths, np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths + r, lengths)


def _complete(prefix: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Each prefix row followed by every last coordinate -r..r, lexicographic."""
    lengths, last = _lines(r)
    out = np.empty((last.shape[0], prefix.shape[1] + 1), dtype=np.int64)
    for j in range(prefix.shape[1]):
        out[:, j] = np.repeat(prefix[:, j], lengths)
    out[:, -1] = last
    return out


def _ball_lines(nu: int, R2: int, max_rows: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ball |v|^2 <= R2 including 0, lexicographic, as its lines in the
    last coordinate: consecutive groups (prefix, r) of (N, nu-1) int64 rows
    of the (nu-1)-ball and each row's line half-length r, of at most
    ``max_rows`` points a group (more only when a single line is longer).

    Each block of the (nu-1)-ball is cut into groups without splitting a line.
    """
    if nu == 1:
        yield np.zeros((1, 0), dtype=np.int64), np.array([math.isqrt(R2)], dtype=np.int64)
        return
    for prefix in _ball_blocks(nu - 1, R2, max_rows):
        r = _isqrt(R2 - (prefix * prefix).sum(axis=1))
        ends = np.cumsum(2 * r + 1)
        start = 0
        while start < prefix.shape[0]:
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + max_rows, side="right")))
            yield prefix[start:stop], r[start:stop]
            start = stop


def _ball_blocks(nu: int, R2: int, max_rows: float) -> Iterator[np.ndarray]:
    """The ball |v|^2 <= R2 including 0, lexicographic, as consecutive
    (N, nu) int64 blocks of at most ``max_rows`` rows (more only when a
    single 1-D line is longer): the groups of :func:`_ball_lines`, completed.
    """
    for prefix, r in _ball_lines(nu, R2, max_rows):
        yield _complete(prefix, r)


def _ball_with_origin(nu: int, R2: int) -> np.ndarray:
    """All |v|^2 <= R2 including 0, lexicographic, as an (N, nu) int64 array.

    The ball is symmetric under v -> -v, which reverses lexicographic order,
    so the origin is the middle row.
    """
    (ball,) = _ball_blocks(nu, R2, math.inf)
    return ball


_BALL_CACHE: dict[tuple[int, int], np.ndarray] = {}
_BALL_CACHE_ROWS = 0
_BALL_CACHE_MAX_ROWS = 6_000_000  # ~150 MB worst case
CACHED_BALL_ROWS = 2_000_000  # larger balls are streamed, never cached


def ball_array(nu: int, R2: int) -> np.ndarray:
    """Nonzero ball as an (N, nu) int64 array in lexicographic order.

    Results are kept in a row-budgeted cache; oversized balls are returned
    uncached (prefer :func:`ball_chunks` for those).
    """
    global _BALL_CACHE_ROWS
    key = (nu, R2)
    if key in _BALL_CACHE:
        return _BALL_CACHE[key]
    full = _ball_with_origin(nu, R2)
    arr = np.delete(full, full.shape[0] // 2, axis=0)
    arr.setflags(write=False)
    if arr.shape[0] <= CACHED_BALL_ROWS and _BALL_CACHE_ROWS + arr.shape[0] <= _BALL_CACHE_MAX_ROWS:
        _BALL_CACHE[key] = arr
        _BALL_CACHE_ROWS += arr.shape[0]
    return arr


def ball_chunks(nu: int, R2: int, max_rows: int = CHUNK_ROWS) -> Iterator[np.ndarray]:
    """Yield the nonzero ball in lexicographic chunks of at most ``max_rows``
    rows (more only when a single 1-D line is longer), never holding it whole."""
    origin = (0,) * nu
    for block in _ball_blocks(nu, R2, max_rows):
        if tuple(block[0]) <= origin <= tuple(block[-1]):
            block = block[block.any(axis=1)]
        if block.shape[0]:
            yield block


def ball_count(nu: int, R2: int) -> int:
    """Number of nonzero points with |v|^2 <= R2, from the line lengths over
    the (nu-1)-ball, without enumerating the ball itself."""
    return sum(int((2 * r + 1).sum()) for _, r in _ball_lines(nu, R2, CHUNK_ROWS)) - 1


def _shell_rows(sub: np.ndarray, n: int) -> np.ndarray:
    """The rows of ``sub`` completed to |v|^2 = n by one more coordinate."""
    rem = n - (sub * sub).sum(axis=1)
    r = _isqrt(rem)
    hit = r * r == rem
    sub, r = sub[hit], r[hit]
    reps = np.where(r > 0, 2, 1)
    last = np.repeat(r, reps)
    last[(np.cumsum(reps) - reps)[r > 0]] *= -1
    out = np.empty((last.shape[0], sub.shape[1] + 1), dtype=np.int64)
    out[:, :-1] = np.repeat(sub, reps, axis=0)
    out[:, -1] = last
    return out


def shell_array(nu: int, n: int) -> np.ndarray:
    """The shell |v|^2 = n as an (N, nu) int64 array in lexicographic order.

    Each row of the (nu-1)-ball, streamed in chunks, whose remainder
    n - |row|^2 is a square r^2 completes to the rows (row, -r) and (row, r),
    or to (row, 0) when r = 0.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if n < 0:
        return np.empty((0, nu), dtype=np.int64)
    if nu == 1:
        return _shell_rows(np.zeros((1, 0), dtype=np.int64), n)
    return np.concatenate([_shell_rows(sub, n) for sub in _ball_blocks(nu - 1, n, CHUNK_ROWS)])


def row_gcd(rows: np.ndarray) -> np.ndarray:
    """gcd of |coords| for every row (0 for the zero row), by folding columns."""
    g = np.abs(rows[:, 0])
    for j in range(1, rows.shape[1]):
        g = np.gcd(g, rows[:, j])
    return g


def pairing_phases(chunk: np.ndarray, chi: Character) -> np.ndarray:
    """exp(2 pi i <n, alpha>) for every row, phases reduced mod 1 exactly."""
    if chi.is_zero():
        return np.ones(chunk.shape[0])
    nums, D = chi.numerators_denominator()
    ph = (chunk @ nums) % D
    return np.exp((2j * np.pi / D) * ph)


# ---------------------------------------------------------------------------
# residue tables: twisted sums over the ball whose weight needs no coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShellResidueTable:
    """The nonzero ball |v|^2 <= R2 binned by (n, r) with n = |v|^2 and
    r = <v, a> mod D, where alpha = a/D.

    A twisted sum whose weight depends on |v| alone reads the table: the
    character k*alpha pairs v to exp(2 pi i k r / D), so every multiple of
    alpha permutes the residue columns of one table, and every smaller ball
    is a prefix of it.  Bins are sorted by n, then r; the bins of one shell
    are contiguous.
    """

    R2: int
    D: int
    shell_n: np.ndarray  # each nonempty shell's n, increasing
    starts: np.ndarray  # index of each shell's first bin
    points: np.ndarray  # cumulative number of points on shells up to each one
    r: np.ndarray  # residue of each bin
    count: np.ndarray  # number of points in each bin, as float64
    roots: np.ndarray  # exp(2 pi i j / D) for j < D

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.shell_n, self.starts, self.points, self.r, self.count, self.roots))

    def fold(self, mult, R2: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(norms, sums, terms) over the shells n <= R2: each shell's norm
        sqrt(n), the sum of exp(2 pi i mult <v, alpha>) over its points, and
        the number of points summed.  An array of multipliers gives one row
        of sums per multiplier, from one pass over the bins."""
        k = int(np.searchsorted(self.shell_n, R2, side="right"))
        if k == 0:
            return np.empty(0), np.empty(np.shape(mult) + (0,), dtype=complex), 0
        stop = int(self.starts[k]) if k < self.starts.shape[0] else self.r.shape[0]
        phase = ((np.asarray(mult)[..., None] % self.D) * self.r[:stop]) % self.D
        sums = np.add.reduceat(self.count[:stop] * self.roots[phase], self.starts[:k], axis=-1)
        return np.sqrt(self.shell_n[:k].astype(np.float64)), sums, int(self.points[k - 1])


@dataclass(frozen=True, eq=False)
class GcdResidueTable:
    """The nonzero ball |v|^2 <= R2 binned by (n, g, r) with n = |v|^2,
    g = gcd(v) and r = <v, a> mod D, where alpha = a/D.

    A twisted sum whose term depends on |v|, gcd(v) and the phase alone
    reads one term per bin.  Bins are sorted by n, then g, then r, so every
    smaller ball is a prefix of the table.
    """

    R2: int
    D: int
    n: np.ndarray  # norm of each bin
    g: np.ndarray  # gcd of each bin
    r: np.ndarray  # residue of each bin
    count: np.ndarray  # number of points in each bin, as float64
    roots: np.ndarray  # exp(2 pi i j / D) for j < D

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.n, self.g, self.r, self.count, self.roots))


_TABLE_CACHE: "OrderedDict[tuple, ShellResidueTable | GcdResidueTable]" = OrderedDict()
_TABLE_CACHE_BYTES = 0
TABLE_CACHE_MAX_BYTES = 64 << 20


def _cached_table(key: tuple, R2: int, build):
    """The cached table under ``key`` when it covers R2; otherwise ``build()``,
    which replaces it, or None (caching nothing) when ``build`` refuses.

    Tables share one LRU cache of at most ``TABLE_CACHE_MAX_BYTES``.
    """
    global _TABLE_CACHE_BYTES
    table = _TABLE_CACHE.get(key)
    if table is not None and table.R2 >= R2:
        _TABLE_CACHE.move_to_end(key)
        return table
    new = build()
    if new is None:
        return None
    if table is not None:  # the larger table replaces it
        _TABLE_CACHE_BYTES -= _TABLE_CACHE.pop(key).nbytes
    _TABLE_CACHE[key] = new
    _TABLE_CACHE_BYTES += new.nbytes
    while _TABLE_CACHE_BYTES > TABLE_CACHE_MAX_BYTES:
        _, old = _TABLE_CACHE.popitem(last=False)
        _TABLE_CACHE_BYTES -= old.nbytes
    return new


def _tally(parts, size: int, items: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys in [0, size) and their float64 totals over the
    (keys, counts) pairs of ``parts``, which hold ``items`` keys in all.

    A dense accumulator of ``size`` slots when that is no more than
    ``items``, otherwise one sort of all the keys: neither holds more than
    ``items`` entries.
    """
    if size <= items:
        acc = np.zeros(size)
        for key, count in parts:
            np.add.at(acc, key, count)
        key = np.flatnonzero(acc)
        return key, acc[key]
    keys, counts = zip(*parts)
    key, inv = np.unique(np.concatenate(keys), return_inverse=True)
    return key, np.bincount(inv, weights=np.concatenate([np.broadcast_to(c, k.shape) for k, c in zip(keys, counts)]))


def _convolve_ball(nu: int, R2: int, nums: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys n*D + r of the nonzero ball and their counts, one
    coordinate at a time: T_{j+1}(n, r) = sum_m T_j(n - m^2, r - a_j m mod D),
    from T_0 = the origin.

    Each (bin, m) pair a step forms extends a distinct point of the ball, so
    no step forms more pairs than the ball has points.
    """
    R = math.isqrt(R2)
    m = np.arange(-R, R + 1, dtype=np.int64)
    key, count = np.zeros(1, dtype=np.int64), np.ones(1)
    for a in nums.tolist():
        n, r = np.divmod(key, D)
        stops = np.searchsorted(key, (R2 + 1 - m * m) * D)  # the bins with n + m^2 <= R2
        parts = (((n[:k] + j * j) * D + (r[:k] + a * j) % D, count[:k]) for j, k in zip(m.tolist(), stops.tolist()))
        key, count = _tally(parts, (R2 + 1) * D, int(stops.sum()))
    return key[1:], count[1:]


def _gcd_bins(nu: int, R2: int, nums: np.ndarray, D: int, points: int) -> tuple[np.ndarray, ...]:
    """(n, g, r, count) of the ``points`` nonzero points of the ball, binned
    by norm, gcd and residue and sorted by n, g, r, in one streamed pass.

    A point with gcd g has g^2 | n, so (n, g) is the slot offset[g] + n/g^2
    of a compact index; slot 0 is the origin, the one point with g = 0.
    """
    R = math.isqrt(R2)
    gs = np.arange(R + 1)
    sizes = R2 // np.maximum(gs, 1) ** 2 + 1
    sizes[0] = 1
    offset = np.cumsum(sizes) - sizes

    def blocks():
        for prefix, r in _ball_lines(nu, R2, CHUNK_ROWS):
            lengths, last = _lines(r)
            g = np.gcd(np.repeat(np.gcd.reduce(prefix, axis=1), lengths), last)
            n = np.repeat((prefix * prefix).sum(axis=1), lengths) + last * last
            res = (np.repeat(prefix @ nums[:-1], lengths) + nums[-1] * last) % D
            yield (offset[g] + n // np.maximum(g, 1) ** 2) * D + res, 1.0

    key, count = _tally(blocks(), int(sizes.sum()) * D, points + 1)
    slot, r = np.divmod(key[1:], D)
    g = np.repeat(gs, sizes)[slot]
    n = (slot - offset[g]) * g * g
    order = np.lexsort((r, g, n))
    return n[order], g[order], r[order], count[1:][order]


def shell_residue_table(nu: int, R2: int, chi: Character) -> ShellResidueTable | None:
    """A shell-by-residue table for ``chi`` of a nonzero ball |v|^2 <= R2' with
    R2' >= R2, built by convolution over the coordinates (no point of the
    ball is enumerated).

    The cache holds one table per (nu, alpha), the largest built so far; a
    request beyond it builds the table at R2 and replaces it.  Returns None,
    building nothing, when a request beyond the cached table could outgrow
    the cache budget (a table has at most one bin per point and D bins per
    shell, plus D roots of unity); :func:`norm_sum` then sums the ball point
    by point.
    """

    def build() -> ShellResidueTable | None:
        nums, D = chi.numerators_denominator()
        # 16 bytes per bin (r, count), 24 per shell (shell_n, starts, points), 16
        # per root; the point count is needed only when R2 * D bins would not fit
        budget = TABLE_CACHE_MAX_BYTES - 24 * R2 - 16 * D
        if 16 * R2 * D > budget and 16 * ball_count(nu, R2) > budget:
            return None
        keys, count = _convolve_ball(nu, R2, nums, D)
        n = keys // D
        starts = np.flatnonzero(np.diff(n, prepend=-1))
        return ShellResidueTable(
            R2=R2,
            D=D,
            shell_n=n[starts],
            starts=starts,
            points=np.cumsum(np.add.reduceat(count, starts)).astype(np.int64),
            r=keys % D,
            count=count,
            roots=np.exp((2j * np.pi / D) * np.arange(D)),
        )

    return _cached_table((nu, chi.alpha), R2, build)


def gcd_residue_table(nu: int, R2: int, chi: Character) -> GcdResidueTable | None:
    """A gcd-stratified table for ``chi`` of a nonzero ball |v|^2 <= R2' with
    R2' >= R2, built by enumerating the ball once in streamed blocks.

    Cached and grown per (nu, alpha) beside the shell-residue table, in the
    same budgeted cache.  Returns None, building nothing, when a request
    beyond the cached table could outgrow the budget (a table has at most
    one bin per point and D bins per (n, g) with g^2 | n); :func:`gcd_sum`
    then sums the ball point by point.
    """

    def build() -> GcdResidueTable | None:
        nums, D = chi.numerators_denominator()
        points = ball_count(nu, R2)
        slots = sum(R2 // (g * g) for g in range(1, math.isqrt(R2) + 1))
        # 32 bytes per bin (n, g, r, count) and 16 per root
        if 32 * min(points, slots * D) + 16 * D > TABLE_CACHE_MAX_BYTES:
            return None
        n, g, r, count = _gcd_bins(nu, R2, nums, D, points)
        return GcdResidueTable(R2=R2, D=D, n=n, g=g, r=r, count=count, roots=np.exp((2j * np.pi / D) * np.arange(D)))

    return _cached_table((nu, chi.alpha, "gcd"), R2, build)


def ball_weighted_sum(nu: int, R2: int, chi: Character, weight) -> tuple[complex, int]:
    """sum over nonzero |n|^2 <= R2 of weight(|n|, n) * exp(2 pi i <n, alpha>),
    and the number of points summed.

    ``weight(norms, rows)`` receives the float64 norms and the int64 rows and
    returns weights, or a stack of weights summed each along the last axis.
    Deterministic (lexicographic order); the ball is the cached array when it
    has at most ``CACHED_BALL_ROWS`` points and streamed in chunks otherwise.
    """
    small = ball_count(nu, R2) <= CACHED_BALL_ROWS
    total = 0j
    terms = 0
    for chunk in (ball_array(nu, R2),) if small else ball_chunks(nu, R2):
        norms = np.sqrt((chunk.astype(np.float64) ** 2).sum(axis=1))
        total = total + (weight(norms, chunk) * pairing_phases(chunk, chi)).sum(axis=-1)
        terms += chunk.shape[0]
    return total, terms


def norm_sum(weight, nu: int, R2: int, chi: Character, mult=1) -> tuple[complex, int]:
    """sum over nonzero |n|^2 <= R2 of weight(|n|) * exp(2 pi i mult <n, alpha>),
    and the number of points summed.

    Read per shell from the one cached shell-residue table of (nu, alpha),
    which serves every smaller ball and every multiple of alpha, when a table
    covering R2 fits the table cache; otherwise summed over the ball point by
    point.  ``weight`` may return a stack of weights, as for
    :func:`ball_weighted_sum`.  An array of multipliers gives one sum per
    multiplier, with ``weight`` returning one row of weights per multiplier
    (last but one axis).
    """
    table = shell_residue_table(nu, R2, chi)
    if table is None:

        def weight_phases(norms, rows):
            phases = [pairing_phases(rows, chi.scaled(m)) for m in np.ravel(mult).tolist()]
            return weight(norms) * np.reshape(phases, np.shape(mult) + (-1,))

        return ball_weighted_sum(nu, R2, Character.zero(nu), weight_phases)
    norms, sums, terms = table.fold(mult, R2)
    return (weight(norms) * sums).sum(axis=-1), terms


def gcd_sum(term, nu: int, R2: int, chi: Character, primitive: bool = False) -> tuple[complex, int]:
    """sum over nonzero |v|^2 <= R2, only the primitive ones (gcd 1) when
    ``primitive``, of term(|v|, gcd(v), exp(2 pi i <v, alpha>)), and the
    number of points summed.

    ``term(norms, gcds, phases)`` works elementwise.  Read once per bin,
    weighted by its count, from the one cached gcd-stratified table of
    (nu, alpha) when a table covering R2 fits the table cache; otherwise
    summed over the ball point by point.
    """
    table = gcd_residue_table(nu, R2, chi)
    if table is None:
        total, terms = 0j, 0
        for chunk in ball_chunks(nu, R2):
            g = row_gcd(chunk)
            if primitive:
                chunk, g = chunk[g == 1], g[g == 1]
            norms = np.sqrt((chunk.astype(np.float64) ** 2).sum(axis=1))
            total += complex(term(norms, g, pairing_phases(chunk, chi)).sum())
            terms += chunk.shape[0]
        return total, terms
    stop = int(np.searchsorted(table.n, R2, side="right"))
    n, g, r, count = table.n[:stop], table.g[:stop], table.r[:stop], table.count[:stop]
    if primitive:
        keep = g == 1
        n, g, r, count = n[keep], g[keep], r[keep], count[keep]
    total = (count * term(np.sqrt(n.astype(np.float64)), g, table.roots[r])).sum()
    return complex(total), int(count.sum())


# ---------------------------------------------------------------------------
# shifted balls: sums of a weight of |m + alpha|^2
# ---------------------------------------------------------------------------

HEAD_POINTS = 1 << 22  # norms held at once by a shifted-ball sum (32 MB)


def shifted_norm_sum(weight, nu: int, chi: Character, R: float) -> tuple[complex, int]:
    """sum of weight(|m + alpha|^2) over every m in Z^nu with |m + alpha|^2 <= R^2,
    origin included, and the number of points summed.

    |m + alpha|^2 is the float sum of the (m_j + a_j)^2 taken left to right,
    as numpy sums a row.  The first h <= 3 coordinates' pruned outer sum is
    sorted into a head of norms (fewer coordinates when it would pass
    ``HEAD_POINTS``).  Adding the other coordinates is monotone in the head
    norm, so the ball's points over each tail point are a prefix of the head:
    ``searchsorted`` finds it and a few steps make it exact.  ``weight`` is
    called once per prefix; no integer rows are enumerated.
    """
    R2 = float(R) * float(R)
    lines = [(np.arange(math.floor(-R - a) - 1, math.ceil(R - a) + 2) + float(a)) ** 2 for a in chi.alpha]
    lines = [q[q <= R2] for q in lines]
    head, h = lines[0], 1
    while h < min(nu - 1, 3) and head.size * lines[h].size <= HEAD_POINTS:
        head = (head[:, None] + lines[h]).ravel()
        head, h = head[head <= R2], h + 1
    if not head.size:
        return 0.0, 0
    head = np.sort(head)
    tail, tsum = np.zeros((1, 0)), np.zeros(1)
    for q in lines[h:]:
        i, j = np.divmod(np.flatnonzero((tsum[:, None] + q).ravel() <= R2), q.size)
        tail, tsum = np.column_stack([tail[i], q[j]]), tsum[i] + q[j]

    def inside(k: np.ndarray) -> np.ndarray:
        x = head[np.clip(k, 0, head.size - 1)]
        for col in tail.T:
            x = x + col
        return x <= R2

    k = np.searchsorted(head, R2 - tsum, side="right")
    while (up := (k < head.size) & inside(k)).any():
        k += up
    while (down := (k > 0) & ~inside(k - 1)).any():
        k -= down
    total = 0.0
    for n, row in zip(k.tolist(), tail):
        if n:
            x = head[:n]
            for u in row:
                x = x + u
            total += weight(x).sum()
    return total, int(k.sum())
