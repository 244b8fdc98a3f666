import math
from collections import Counter, OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta import arith, lattice
from latzeta.errors import DimensionMismatch
from latzeta.lattice import Character


def rows(arr):
    return [tuple(int(c) for c in row) for row in arr]


# Brute oracle: a pure-Python recursion over coordinates, independent of the
# numpy enumerator it checks; lexicographic because each coordinate ascends.


def brute_shell(nu, n):
    """All v in Z^nu with |v|^2 = n, in lexicographic order."""
    if n < 0:
        return []
    out = []
    coords = [0] * nu

    def descend(j, remaining):
        if j == nu - 1:
            r = math.isqrt(remaining)
            if r * r == remaining:
                for c in sorted({-r, r}):
                    coords[j] = c
                    out.append(tuple(coords))
            return
        bound = math.isqrt(remaining)
        for c in range(-bound, bound + 1):
            coords[j] = c
            descend(j + 1, remaining - c * c)

    descend(0, n)
    return out


def brute_ball(nu, R2):
    """All nonzero v in Z^nu with |v|^2 <= R2, in lexicographic order."""
    out = []
    coords = [0] * nu

    def descend(j, remaining):
        bound = math.isqrt(remaining)
        for c in range(-bound, bound + 1):
            coords[j] = c
            if j == nu - 1:
                if any(coords):
                    out.append(tuple(coords))
            else:
                descend(j + 1, remaining - c * c)

    descend(0, R2)
    return out


class TestEnumerateShell:
    def test_norm_one_in_2d(self):
        assert rows(lattice.shell_array(2, 1)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_zero_shell(self):
        assert rows(lattice.shell_array(2, 0)) == [(0, 0)]

    def test_count_n25(self):
        # brute-force oracle over |m_i| <= 5
        brute = [
            (a, b)
            for a in range(-5, 6)
            for b in range(-5, 6)
            if a * a + b * b == 25
        ]
        got = lattice.shell_array(2, 25)
        assert len(got) == len(brute) == 12
        assert rows(got) == sorted(brute)

    def test_deterministic_and_sorted(self):
        a = rows(lattice.shell_array(3, 14))
        b = rows(lattice.shell_array(3, 14))
        assert a == b == sorted(a)

    def test_empty_shell(self):
        assert rows(lattice.shell_array(2, 3)) == []

    @given(st.integers(1, 4), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_shell_members_have_requested_norm(self, nu, n):
        arr = lattice.shell_array(nu, n)
        assert np.all((arr * arr).sum(axis=1) == n)

    def test_count_invariant_under_coordinate_permutation(self):
        # the shell is symmetric under coordinate permutation
        for n in (5, 9, 14):
            vs = set(rows(lattice.shell_array(3, n)))
            assert all(tuple(reversed(v)) in vs for v in vs)

    def test_matches_brute_oracle(self):
        for nu in range(1, 9):
            for n in (-1, 0, 1, 2, 3, 4, 7, 9, 12) + ((25, 50) if nu <= 4 else ()):
                got = lattice.shell_array(nu, n)
                assert got.shape == (len(brute_shell(nu, n)), nu)
                assert rows(got) == brute_shell(nu, n), (nu, n)


class TestEnumerateBall:
    def test_dim1(self):
        assert rows(lattice.ball_array(1, 4)) == [(-2,), (-1,), (1,), (2,)]

    def test_count_2d(self):
        assert lattice.ball_array(2, 2).shape[0] == 8

    def test_count_3d(self):
        assert lattice.ball_array(3, 1).shape[0] == 6

    def test_excludes_origin_and_matches_shells(self):
        R2 = 12
        ball = rows(lattice.ball_array(3, R2))
        assert (0, 0, 0) not in ball
        assert len(ball) == len(set(ball))
        by_shell = sum(lattice.shell_array(3, n).shape[0] for n in range(1, R2 + 1))
        assert len(ball) == by_shell

    def test_ball_array_matches_iterator(self):
        assert rows(lattice.ball_array(2, 9)) == brute_ball(2, 9)

    def test_ball_chunks_concatenate_to_ball_array(self):
        chunks = list(lattice.ball_chunks(3, 16, max_rows=50))
        cat = np.concatenate(chunks, axis=0)
        assert np.array_equal(cat, lattice.ball_array(3, 16))

    def test_matches_brute_oracle(self):
        for nu in range(1, 9):
            for R2 in (0, 1, 2, 3, 5) + ((9, 17, 25) if nu <= 5 else ()):
                want = np.array(brute_ball(nu, R2), dtype=np.int64).reshape(-1, nu)
                assert np.array_equal(lattice.ball_array(nu, R2), want), (nu, R2)
                line = 2 * math.isqrt(R2) + 1
                for max_rows in (1, 7, 50, 10**6):
                    chunks = list(lattice.ball_chunks(nu, R2, max_rows=max_rows))
                    assert all(0 < c.shape[0] <= max(max_rows, line) for c in chunks)
                    got = np.concatenate(chunks) if chunks else np.empty((0, nu), dtype=np.int64)
                    assert np.array_equal(got, want), (nu, R2, max_rows)

    def test_chunks_bounded_in_five_dimensions(self):
        # every chunk stays within max_rows even where one lead slice is a
        # whole 4-ball of ~8e5 rows; the stream is the ball in strictly
        # increasing lexicographic order (checked through an order-preserving
        # integer key) with the exact point count, so it equals
        # ball_array(5, 400) without holding its 1.7e7 rows at once
        R2, max_rows = 400, 1000
        weights = 43 ** np.arange(4, -1, -1)  # coordinates lie in -20..20
        count, last = 0, -1
        for chunk in lattice.ball_chunks(5, R2, max_rows=max_rows):
            assert chunk.shape[0] <= max_rows
            sq = (chunk * chunk).sum(axis=1)
            assert sq.min() >= 1 and sq.max() <= R2
            keys = (chunk + 21) @ weights
            assert keys[0] > last and np.all(np.diff(keys) > 0)
            last = keys[-1]
            count += chunk.shape[0]
        assert count == int(arith.r_table(5, R2)[1:].sum())


def gcd_of(v):
    """row_gcd of the single row v."""
    return int(lattice.row_gcd(np.array([v], dtype=np.int64))[0])


class TestGcdPrimitive:
    def test_examples(self):
        # zero entries are ignored, so rows padded with zeros keep their gcd
        got = lattice.row_gcd(np.array([(2, 4, 0, 0), (3, 0, 5, 0), (-6, 9, 0, 15)]))
        assert got.tolist() == [2, 1, 3]

    def test_zero_row_has_gcd_zero(self):
        # no primitivity test (gcd == 1) accepts the zero row
        assert lattice.row_gcd(np.zeros((2, 3), dtype=np.int64)).tolist() == [0, 0]
        assert gcd_of((0, 0)) == 0

    def test_is_primitive(self):
        assert gcd_of((1, 0)) == 1
        assert gcd_of((2, 2)) != 1
        assert gcd_of((3, 5)) == 1

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_unique_factorization(self, cs):
        v = tuple(cs)
        if not any(v):
            return
        d = gcd_of(v)
        u = tuple(c // d for c in v)
        assert gcd_of(u) == 1
        assert tuple(d * c for c in u) == v


def exact_phase(v, chi):
    """exp(2 pi i <v, alpha>) with the phase reduced mod 1 in exact rationals
    first, one vector at a time."""
    phase = sum((c * a for c, a in zip(v, chi.alpha)), Fraction(0)) % 1
    return complex(np.exp(2j * np.pi * float(phase)))


class TestCharacter:
    def test_reduction_into_unit_box(self):
        c = Character((Fraction(5, 4), Fraction(-1, 3)))
        assert c.alpha == (Fraction(1, 4), Fraction(2, 3))

    def test_from_string(self):
        c = Character.from_string("1/3,0,1/2")
        assert c.alpha == (Fraction(1, 3), Fraction(0), Fraction(1, 2))

    def test_scaled_reduces_mod_one(self):
        c = Character((Fraction(1, 3), Fraction(1, 2)))
        assert c.scaled(2).alpha == (Fraction(2, 3), Fraction(0))

    def test_pairing_trivial_character_is_exactly_one(self):
        assert lattice.pairing_phases(np.array([(3, -7), (0, 5)]), Character.zero(2)).tolist() == [1.0, 1.0]

    def test_pairing_examples(self):
        c = Character((Fraction(1, 2), Fraction(1, 3)))
        assert lattice.pairing_phases(np.array([(1, 0)]), c)[0] == pytest.approx(-1.0)
        c2 = Character((Fraction(1, 4), Fraction(1, 4)))
        # exponent 1/4 + 1/4 = 1/2 gives -1
        assert lattice.pairing_phases(np.array([(1, 1)]), c2)[0] == pytest.approx(-1.0)

    def test_pairing_unit_modulus(self):
        c = Character((Fraction(2, 7), Fraction(5, 11)))
        for z in lattice.pairing_phases(np.array([(1, 2), (-3, 4), (6, -5)]), c):
            assert abs(abs(z) - 1.0) < 1e-15

    def test_dimension_mismatch(self):
        # a character is checked against the lattice dimension where a sum takes it
        with pytest.raises(DimensionMismatch):
            arith.r_twisted(3, 14, Character.zero(2))

    def test_pairing_phases_match_scalar(self):
        c = Character((Fraction(1, 3), Fraction(2, 5)))
        arr = lattice.ball_array(2, 8)
        vec = lattice.pairing_phases(arr, c)
        for row, z in zip(arr, vec):
            assert z == pytest.approx(exact_phase(tuple(int(x) for x in row), c), abs=1e-14)


class TestLatticeVector:
    def test_norms(self):
        # the norms every point-by-point lattice sum hands to its weight
        seen = {}

        def weight(norms, rows):
            seen.update(zip(map(tuple, rows.tolist()), norms))
            return norms

        lattice.ball_weighted_sum(2, 25, Character.zero(2), weight)
        assert seen[(3, 4)] == pytest.approx(5.0)
        assert all(n * n == pytest.approx(sum(c * c for c in v)) for v, n in seen.items())

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            lattice.shell_array(0, 1)


def characters(nu):
    """Characters of denominator 1, 6, 60 and 997 in nu dimensions."""
    parts = {6: (1, 3, 4, 2, 5), 60: (7, 15, 20, 0, 59), 997: (1, 3, 996, 500, 0)}
    return [Character.zero(nu)] + [Character(tuple(Fraction(a, D) for a in parts[D][:nu])) for D in parts]


def shell_bins(table, R2):
    """(n, r, count) of the shell-residue table's bins with n <= R2."""
    n = np.repeat(table.shell_n, np.diff(table.starts, append=table.r.shape[0]))
    stop = int(np.searchsorted(n, R2, side="right"))
    return n[:stop], table.r[:stop], table.count[:stop]


class TestShellResidueTable:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)

    def test_ball_count_matches_r_table(self):
        for nu in range(1, 6):
            for R2 in (0, 1, 7, 30, 100):
                assert lattice.ball_count(nu, R2) == int(arith.r_table(nu, R2)[1:].sum()), (nu, R2)

    def test_shell_counts_match_r_table(self):
        for nu in range(1, 6):
            R2 = 120 if nu <= 3 else 40
            counts = arith.r_table(nu, R2)
            for chi in (Character.zero(nu), Character(tuple(Fraction(j + 1, 6) for j in range(nu)))):
                t = lattice.shell_residue_table(nu, R2, chi)
                want_n = np.flatnonzero(counts[1:]) + 1
                assert np.array_equal(t.shell_n, want_n), (nu, chi)
                assert np.array_equal(np.diff(t.points, prepend=0), counts[want_n]), (nu, chi)
                assert t.r.min() >= 0 and t.r.max() < t.D

    def brute_fold(self, nu, R2, chi, mult):
        """Per-shell sums of the character mult*alpha over the cached ball."""
        arr = lattice.ball_array(nu, R2)
        n = (arr * arr).sum(axis=1)
        ph = lattice.pairing_phases(arr, chi.scaled(mult))
        shells = np.unique(n)
        sums = np.array([ph[n == k].sum() for k in shells], dtype=complex)
        return shells, sums

    def test_fold_matches_brute_sum(self):
        # denominator 6 with multipliers sharing a factor with it, and one
        # coprime multiplier larger than D
        chi = Character((Fraction(1, 6), Fraction(1, 2), Fraction(2, 3)))
        t = lattice.shell_residue_table(3, 64, chi)
        assert t.D == 6
        for mult in (1, 2, 3, 6, 7):
            for R2 in (64, 17, 4):
                norms, sums, terms = t.fold(mult, R2)
                shells, want = self.brute_fold(3, R2, chi, mult)
                assert np.array_equal(norms, np.sqrt(shells.astype(np.float64)))
                assert np.abs(sums - want).max() < 1e-12, (mult, R2)
                assert terms == lattice.ball_count(3, R2)
        # an array of multipliers folds each one as a fold of its own would
        mults = np.array([1, 2, 3, 6, 7])
        for R2 in (64, 17, 4):
            norms, sums, terms = t.fold(mults, R2)
            assert sums.shape == (mults.shape[0], norms.shape[0])
            for mult, row in zip(mults.tolist(), sums):
                assert np.array_equal(row, t.fold(mult, R2)[1])

    def test_large_denominator_bins_bounded_by_points(self):
        chi = Character((Fraction(1, 997), Fraction(3, 997)))
        t = lattice.shell_residue_table(2, 2500, chi)
        assert t.D == 997
        assert t.r.shape[0] <= lattice.ball_count(2, 2500)
        for mult in (1, 5, 997):
            _, sums, _ = t.fold(mult, 400)
            _, want = self.brute_fold(2, 400, chi, mult)
            assert np.abs(sums - want).max() < 1e-12

    def test_byte_budget_evicts(self, monkeypatch):
        chars = [Character((Fraction(a, 3), Fraction(b, 4))) for a in (1, 2) for b in (1, 3)]
        first = lattice.shell_residue_table(2, 400, chars[0])
        monkeypatch.setattr(lattice, "TABLE_CACHE_MAX_BYTES", int(2.5 * first.nbytes))
        last = [lattice.shell_residue_table(2, 400, chi) for chi in chars[1:]][-1]
        cache = lattice._TABLE_CACHE
        assert (2, chars[0].alpha) not in cache and 1 <= len(cache) < len(chars)
        assert list(cache)[-1] == (2, chars[-1].alpha)
        assert lattice._TABLE_CACHE_BYTES == sum(t.nbytes for t in cache.values()) <= lattice.TABLE_CACHE_MAX_BYTES
        # a hit returns the cached object; a rebuilt table reads the same
        assert lattice.shell_residue_table(2, 400, chars[-1]) is last
        again = lattice.shell_residue_table(2, 400, chars[0])
        assert again is not first and np.array_equal(again.count, first.count)

    def test_one_table_per_character_grows(self):
        # a request beyond the cached table replaces it by a larger build; a
        # smaller request reads the larger table, and fold reads the same bins
        # from it as from a table of its own size
        chi = Character((Fraction(1, 6), Fraction(1, 2), Fraction(2, 3)))
        small = lattice.shell_residue_table(3, 17, chi)
        big = lattice.shell_residue_table(3, 64, chi)
        assert big is not small and (small.R2, big.R2) == (17, 64)
        assert lattice.shell_residue_table(3, 30, chi) is big
        assert list(lattice._TABLE_CACHE.items()) == [((3, chi.alpha), big)]
        assert lattice._TABLE_CACHE_BYTES == big.nbytes
        for mult in (1, 2, 7):
            for R2 in (17, 5):
                for a, b in zip(small.fold(mult, R2), big.fold(mult, R2)):
                    assert np.array_equal(a, b), (mult, R2)

    def test_table_over_budget_is_not_built(self, monkeypatch):
        monkeypatch.setattr(lattice, "TABLE_CACHE_MAX_BYTES", 1000)
        assert lattice.shell_residue_table(3, 100, Character.zero(3)) is None
        assert not lattice._TABLE_CACHE
        # a cached table that a larger request cannot replace still serves
        # the requests it covers
        small = lattice.shell_residue_table(1, 9, Character.zero(1))
        assert lattice.shell_residue_table(1, 10**6, Character.zero(1)) is None
        assert lattice.shell_residue_table(1, 4, Character.zero(1)) is small

    def test_convolution_matches_binned_enumeration(self):
        # the table is built by convolution over coordinates; the brute
        # pure-Python ball binned here by (n, <v, a> mod D) is the oracle
        for nu, R2 in ((1, 50), (2, 60), (3, 30), (4, 17), (5, 9)):
            for chi in characters(nu):
                nums, D = chi.numerators_denominator()
                want = Counter((sum(c * c for c in v), int(np.dot(v, nums)) % D) for v in brute_ball(nu, R2))
                n, r, count = shell_bins(lattice.shell_residue_table(nu, R2, chi), R2)
                assert dict(zip(zip(n.tolist(), r.tolist()), count.tolist())) == want, (nu, R2, D)

    def test_convolution_builds_no_ball(self, monkeypatch):
        # a build of 2.9e5 points caches no ball rows
        monkeypatch.setattr(lattice, "_BALL_CACHE", {})
        monkeypatch.setattr(lattice, "_BALL_CACHE_ROWS", 0)
        t = lattice.shell_residue_table(3, 1700, Character((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))))
        assert not lattice._BALL_CACHE
        assert t.points[-1] == lattice.ball_count(3, 1700) > lattice.CHUNK_ROWS


class TestGcdResidueTable:
    """The gcd-stratified table G(n, g, r), built by enumeration, against
    brute sums and against the convolution-built table F(n, r)."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)

    def test_matches_brute_enumeration(self):
        for nu, R2 in ((1, 50), (2, 60), (3, 30), (4, 17), (5, 9)):
            for chi in characters(nu):
                nums, D = chi.numerators_denominator()
                want = Counter(
                    (sum(c * c for c in v), math.gcd(*v), int(np.dot(v, nums)) % D) for v in brute_ball(nu, R2)
                )
                t = lattice.gcd_residue_table(nu, R2, chi)
                got = dict(zip(zip(t.n.tolist(), t.g.tolist(), t.r.tolist()), t.count.tolist()))
                assert got == want, (nu, R2, D)
                order = np.lexsort((t.r, t.g, t.n))
                assert np.array_equal(order, np.arange(order.shape[0]))

    def test_gcd_marginal_is_the_shell_table(self):
        # sum_g G(n, g, r) = F(n, r) bin for bin, in integers, read from
        # prefixes of grown tables (both kinds replaced by a larger build);
        # the nu = 3 ball of 2.9e5 points streams in several blocks
        assert lattice.ball_count(3, 1700) > lattice.CHUNK_ROWS
        sizes = {1: (90, 400, 10**4), 2: (40, 150, 900), 3: (12, 200, 1700), 4: (8, 25, 60), 5: (5, 12, 30)}
        for nu, (small, mid, big) in sizes.items():
            for chi in characters(nu):
                lattice.shell_residue_table(nu, small, chi)
                lattice.gcd_residue_table(nu, small, chi)
                F = lattice.shell_residue_table(nu, big, chi)
                G = lattice.gcd_residue_table(nu, big, chi)
                assert F.R2 == G.R2 == big
                for R2 in (small, mid, big):
                    n, r, count = shell_bins(F, R2)
                    stop = int(np.searchsorted(G.n, R2, side="right"))
                    key, inv = np.unique(G.n[:stop] * G.D + G.r[:stop], return_inverse=True)
                    assert np.array_equal(key, n * F.D + r), (nu, chi, R2)
                    assert np.array_equal(np.bincount(inv, weights=G.count[:stop]), count), (nu, chi, R2)

    def test_gcd_sum_matches_ball_sum(self):
        # a term of norm, gcd and phase, over all points and over primitive ones
        chi = Character((Fraction(1, 6), Fraction(1, 2), Fraction(2, 3)))
        term = lambda norms, g, ph: ph * np.exp(-0.7 * norms) / g**1.5
        rows = lattice.ball_array(3, 64)
        g = lattice.row_gcd(rows)
        each = term(np.sqrt((rows * rows).sum(axis=1)), g, lattice.pairing_phases(rows, chi))
        for R2 in (64, 20):
            inside = (rows * rows).sum(axis=1) <= R2
            for primitive, keep in ((False, inside), (True, inside & (g == 1))):
                got, terms = lattice.gcd_sum(term, 3, R2, chi, primitive=primitive)
                assert terms == keep.sum()
                assert abs(got - each[keep].sum()) < 1e-13 * abs(each[keep].sum())

    def test_shares_the_byte_budget(self, monkeypatch):
        chi = Character((Fraction(1, 3), Fraction(1, 4)))
        F = lattice.shell_residue_table(2, 400, chi)
        G = lattice.gcd_residue_table(2, 400, chi)
        assert list(lattice._TABLE_CACHE.values()) == [F, G]
        assert lattice._TABLE_CACHE_BYTES == F.nbytes + G.nbytes
        monkeypatch.setattr(lattice, "TABLE_CACHE_MAX_BYTES", G.nbytes + F.nbytes // 2)
        other = Character((Fraction(2, 3), Fraction(1, 4)))
        lattice.shell_residue_table(2, 100, other)
        assert (2, chi.alpha) not in lattice._TABLE_CACHE
        assert lattice._TABLE_CACHE_BYTES == sum(t.nbytes for t in lattice._TABLE_CACHE.values())

    def test_over_budget_is_not_built(self, monkeypatch):
        monkeypatch.setattr(lattice, "TABLE_CACHE_MAX_BYTES", 1000)
        assert lattice.gcd_residue_table(3, 100, Character.zero(3)) is None
        assert not lattice._TABLE_CACHE


class TestShiftedNormSum:
    """The shifted-ball kernel against a box masked to the ball, with the
    norms summed row by row as numpy sums them."""

    @staticmethod
    def box_and_mask(nu, alpha, R, weight):
        line = np.arange(-math.ceil(R) - 1, math.ceil(R) + 2, dtype=np.int64)
        box = np.stack(np.meshgrid(*[line] * nu, indexing="ij"), axis=-1).reshape(-1, nu)
        sq = ((box + np.array([float(a) for a in alpha])) ** 2).sum(axis=1)
        sq = sq[sq <= R * R]
        return weight(sq).sum(), sq.shape[0]

    def check(self, nu, alpha, R, weight=lambda sq: (sq + 0.36) ** -3.0):
        got, terms = lattice.shifted_norm_sum(weight, nu, Character(alpha), R)
        want, want_terms = self.box_and_mask(nu, alpha, R, weight)
        assert terms == want_terms
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    def test_zero_character_at_integer_radius(self, nu):
        # every coordinate square is an integer: many points lie on the sphere
        for R in (1, 3, 5 if nu < 5 else 4):
            self.check(nu, (0,) * nu, float(R))

    def test_half_character_on_the_sphere(self):
        # |m + (1/2, 1/2)|^2 = 12.5 at (2, 2), (3, 0) and their images
        self.check(2, (Fraction(1, 2),) * 2, math.sqrt(12.5))
        for nu in (1, 3, 4, 5):
            self.check(nu, (Fraction(1, 2),) * nu, 3.5)

    @pytest.mark.parametrize("nu", [2, 3, 4, 5])
    def test_radius_on_an_inexact_sphere(self, nu):
        # R^2 is an exact value of |m + alpha|^2 whose float sums round to
        # either side of R^2, so the prefix at R^2 - t is one point too short
        # or too long for some tail points
        cases = [(3, "29/9"), (3, "65/9"), (3, "2/3"), (3, "7/9"), (5, "4"), (5, "29/5"), (5, "101/5"), (7, "58/7")]
        for den, R2 in cases:
            self.check(nu, tuple(Fraction((i + 1) % den, den) for i in range(nu)), math.sqrt(Fraction(R2)))

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    def test_denominator_60(self, nu):
        alpha = (Fraction(7, 60), Fraction(1, 60), Fraction(59, 60), Fraction(13, 60), Fraction(31, 60))[:nu]
        for R in (0.1, 2.0, 4.3):
            self.check(nu, alpha, R)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    def test_complex_weight(self, nu):
        s = 0.2 + 1.5j
        alpha = (Fraction(1, 3), Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))[:nu]
        self.check(nu, alpha, 4.0, lambda sq: (s * s + 4.0 * math.pi**2 * sq) ** -((nu + 1) / 2.0))

    def test_small_head_budget_sums_the_same_ball(self, monkeypatch):
        # fewer head coordinates, so several tail coordinates per point
        monkeypatch.setattr(lattice, "HEAD_POINTS", 50)
        self.check(5, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1, 2)), 4.0)
        self.check(4, (0,) * 4, 5.0)
        sevenths = tuple(Fraction(i + 1, 7) for i in range(5))
        for R2 in ("230/49", "265/49", "279/49"):
            self.check(5, sevenths, math.sqrt(Fraction(R2)))
        self.check(4, sevenths[:4], math.sqrt(Fraction(212, 49)))

    def test_empty_ball(self):
        # at R = 0.6 every coordinate has a point, but no pair of them does
        for R in (0.3, 0.6):
            assert lattice.shifted_norm_sum(lambda sq: sq, 3, Character((Fraction(1, 2),) * 3), R) == (0.0, 0)
