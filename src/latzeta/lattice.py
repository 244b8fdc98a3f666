"""Balls and shells of Z^nu, unitary characters, and twisted sums over the ball.

The lattice is Z^nu with the Euclidean squared norm; characters are points
alpha in [0,1)^nu with exact rational components, paired with vectors through
exp(2*pi*i <n, alpha>).  The pairing phase is reduced mod 1 in exact integer
arithmetic before being exponentiated, so long sums do not accumulate phase
drift.  Every lattice sum of the package runs here: point by point over the
ball (:func:`ball_weighted_sum`), per shell from a shell-by-residue table
when the weight depends on |v| alone (:func:`norm_sum`), or over the shifted
ball by prefixes of sorted norms (:func:`shifted_norm_sum`).
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
    "row_gcd",
    "pairing_phases",
    "ball_weighted_sum",
    "norm_sum",
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


def _complete(prefix: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Each prefix row followed by every last coordinate -r..r, lexicographic."""
    lengths = 2 * r + 1
    starts = np.cumsum(lengths) - lengths
    out = np.empty((int(lengths.sum()), prefix.shape[1] + 1), dtype=np.int64)
    for j in range(prefix.shape[1]):
        out[:, j] = np.repeat(prefix[:, j], lengths)
    out[:, -1] = np.arange(out.shape[0]) - np.repeat(starts + r, lengths)
    return out


def _ball_blocks(nu: int, R2: int, max_rows: float) -> Iterator[np.ndarray]:
    """The ball |v|^2 <= R2 including 0, lexicographic, as consecutive
    (N, nu) int64 blocks of at most ``max_rows`` rows (more only when a
    single 1-D line is longer).

    Each block of the (nu-1)-ball is completed by its lines in the last
    coordinate, and the lines are cut into blocks without splitting a line.
    """
    R = math.isqrt(R2)
    if nu == 1:
        yield np.arange(-R, R + 1, dtype=np.int64)[:, None]
        return
    for prefix in _ball_blocks(nu - 1, R2, max_rows):
        r = _isqrt(R2 - (prefix * prefix).sum(axis=1))
        ends = np.cumsum(2 * r + 1)
        start = 0
        while start < prefix.shape[0]:
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + max_rows, side="right")))
            yield _complete(prefix[start:stop], r[start:stop])
            start = stop


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
    if nu == 1:
        return 2 * math.isqrt(R2)
    total = -1
    for prefix in _ball_blocks(nu - 1, R2, CHUNK_ROWS):
        total += int((2 * _isqrt(R2 - (prefix * prefix).sum(axis=1)) + 1).sum())
    return total


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
# shell-by-residue tables: norm-only twisted sums over the ball
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

    def fold(self, mult: int, R2: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(norms, sums, terms) over the shells n <= R2: each shell's norm
        sqrt(n), the sum of exp(2 pi i mult <v, alpha>) over its points, and
        the number of points summed."""
        k = int(np.searchsorted(self.shell_n, R2, side="right"))
        if k == 0:
            return np.empty(0), np.empty(0, dtype=complex), 0
        stop = int(self.starts[k]) if k < self.starts.shape[0] else self.r.shape[0]
        w = self.count[:stop] * self.roots[((mult % self.D) * self.r[:stop]) % self.D]
        sums = np.add.reduceat(w, self.starts[:k])
        return np.sqrt(self.shell_n[:k].astype(np.float64)), sums, int(self.points[k - 1])


_TABLE_CACHE: "OrderedDict[tuple, ShellResidueTable]" = OrderedDict()
_TABLE_CACHE_BYTES = 0
TABLE_CACHE_MAX_BYTES = 64 << 20


def _bin_ball(nu: int, R2: int, nums: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys n*D + r of the nonzero ball and their counts, in
    one pass over the ball.

    The pass reads the ball from the ball cache when another pass put it
    there, and otherwise streams it without caching it: the table is what
    stays cached.  A streamed ball includes the origin, the lone key 0.
    """
    cached = _BALL_CACHE.get((nu, R2))
    keys, counts = [], []
    for chunk in (cached,) if cached is not None else _ball_blocks(nu, R2, CHUNK_ROWS):
        key, count = np.unique((chunk * chunk).sum(axis=1) * D + (chunk @ nums) % D, return_counts=True)
        keys.append(key)
        counts.append(count)
    if len(keys) == 1:
        key, count = keys[0], counts[0].astype(np.float64)
    else:
        key, inv = np.unique(np.concatenate(keys), return_inverse=True)
        count = np.bincount(inv, weights=np.concatenate(counts))
    origin = int(key.size > 0 and key[0] == 0)
    return key[origin:], count[origin:]


def shell_residue_table(nu: int, R2: int, chi: Character) -> ShellResidueTable | None:
    """A shell-by-residue table for ``chi`` of a nonzero ball |v|^2 <= R2' with
    R2' >= R2.

    The cache holds one table per (nu, alpha), the largest built so far; a
    request beyond it builds the table at R2 and replaces it.  Tables are
    kept in an LRU cache of at most ``TABLE_CACHE_MAX_BYTES``.  Returns None,
    building nothing, when a request beyond the cached table could outgrow
    that budget (a table has at most one bin per point and D bins per shell,
    plus D roots of unity); :func:`norm_sum` then sums the ball point by point.
    """
    global _TABLE_CACHE_BYTES
    key = (nu, chi.alpha)
    table = _TABLE_CACHE.get(key)
    if table is not None and table.R2 >= R2:
        _TABLE_CACHE.move_to_end(key)
        return table
    nums, D = chi.numerators_denominator()
    # 16 bytes per bin (r, count), 24 per shell (shell_n, starts, points), 16
    # per root; the point count is needed only when R2 * D bins would not fit
    budget = TABLE_CACHE_MAX_BYTES - 24 * R2 - 16 * D
    if 16 * R2 * D > budget and 16 * ball_count(nu, R2) > budget:
        return None
    keys, count = _bin_ball(nu, R2, nums, D)
    if table is not None:  # the larger table replaces it
        _TABLE_CACHE_BYTES -= _TABLE_CACHE.pop(key).nbytes
    n = keys // D
    starts = np.flatnonzero(np.diff(n, prepend=-1))
    table = ShellResidueTable(
        R2=R2,
        D=D,
        shell_n=n[starts],
        starts=starts,
        points=np.cumsum(np.add.reduceat(count, starts)).astype(np.int64),
        r=keys % D,
        count=count,
        roots=np.exp((2j * np.pi / D) * np.arange(D)),
    )
    _TABLE_CACHE[key] = table
    _TABLE_CACHE_BYTES += table.nbytes
    while _TABLE_CACHE_BYTES > TABLE_CACHE_MAX_BYTES:
        _, old = _TABLE_CACHE.popitem(last=False)
        _TABLE_CACHE_BYTES -= old.nbytes
    return table


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


def norm_sum(weight, nu: int, R2: int, chi: Character, mult: int = 1) -> tuple[complex, int]:
    """sum over nonzero |n|^2 <= R2 of weight(|n|) * exp(2 pi i mult <n, alpha>),
    and the number of points summed.

    Read per shell from the one cached shell-residue table of (nu, alpha),
    which serves every smaller ball and every multiple of alpha, when a table
    covering R2 fits the table cache; otherwise summed over the ball point by
    point.  ``weight`` may return a stack of weights, as for
    :func:`ball_weighted_sum`.
    """
    table = shell_residue_table(nu, R2, chi)
    if table is None:
        return ball_weighted_sum(nu, R2, chi.scaled(mult), lambda norms, rows: weight(norms))
    norms, sums, terms = table.fold(mult, R2)
    return (weight(norms) * sums).sum(axis=-1), terms


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
