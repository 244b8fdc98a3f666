import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta import arith
from latzeta.errors import CheckFailed, UnsupportedDimension
from latzeta.lattice import Character


class TestMoebiusGamma:
    def test_moebius_examples(self):
        assert arith.moebius(1) == 1
        assert arith.moebius(4) == 0
        assert arith.moebius(6) == 1

    def test_gamma_examples(self):
        assert arith.gamma_mult(1) == 1
        assert arith.gamma_mult(2) == -1
        assert arith.gamma_mult(6) == 2

    def test_moebius_divisor_sum_is_delta(self):
        # sum_{m|n} mu(m) = [n == 1], n <= 1e5 (sieve-convolved)
        N = 10**5
        st_ = arith.ensure_sieve(N)
        acc = np.zeros(N + 1, dtype=np.int64)
        for m in range(1, N + 1):
            acc[m::m] += st_.mu[m]
        assert acc[1] == 1
        assert not acc[2:].any()

    def test_gamma_equals_weighted_moebius_sum(self):
        N = 10**4
        st_ = arith.ensure_sieve(N)
        acc = np.zeros(N + 1, dtype=np.int64)
        for m in range(1, N + 1):
            acc[m::m] += m * st_.mu[m]
        assert np.array_equal(acc[1:], st_.gam[1 : N + 1])

    @given(st.integers(2, 10**4), st.integers(2, 10**4))
    @settings(max_examples=60, deadline=None)
    def test_multiplicativity(self, m, n):
        if math.gcd(m, n) != 1:
            return
        assert arith.moebius(m * n) == arith.moebius(m) * arith.moebius(n)
        assert arith.gamma_mult(m * n) == arith.gamma_mult(m) * arith.gamma_mult(n)

    def test_trial_division_fallback_above_sieve(self):
        # 1000003 is prime and may exceed the default table
        assert arith.gamma_mult(1000003) == -1000002
        assert arith.moebius(1000003) == -1

    def test_sieve_sized_to_request_and_doubling(self, monkeypatch):
        monkeypatch.setattr(arith, "_SIEVE", None)
        assert arith.moebius(7) == -1 and arith.gamma_mult(6) == 2
        small = arith._SIEVE.limit
        assert small < 1000
        grown = arith.ensure_sieve(small + 1)
        assert grown.limit >= 2 * small
        builds = 0
        for d in range(1, 601):
            before = arith._SIEVE
            arith.moebius(d)
            builds += arith._SIEVE is not before
        assert builds <= 10

    def test_sieve_table_invariants(self):
        N = 10**4
        st_ = arith.ensure_sieve(N)  # shared table; may extend beyond N
        assert st_.mu[1] == 1
        assert np.all(st_.mu[arith.primes_upto(N)] == -1)
        # mu(n) = 0 exactly when n has a square factor
        has_square = np.zeros(N + 1, dtype=bool)
        for d in range(2, math.isqrt(N) + 1):
            has_square[d * d :: d * d] = True
        assert np.array_equal(st_.mu[1 : N + 1] == 0, has_square[1:])
        # gamma via the sieve equals the definition for a sample
        for n in (12, 99, 1024, 9973):
            want = 1
            for p in arith.factorize(n):
                want *= 1 - p
            assert st_.gam[n] == want


class TestRepresentationCounts:
    def test_r_count_examples(self):
        assert arith.r_count(2, 1) == 4
        assert arith.r_count(8, 1) == 16
        assert arith.r_count(6, 2) == 60

    def test_r_closed_examples(self):
        assert arith.r_closed(4, 2) == 24
        assert arith.r_closed(2, 25) == 12
        assert arith.r_closed(8, 2) == 112

    def test_closed_equals_count_tables(self):
        for nu in (2, 4, 6, 8):
            assert np.array_equal(arith.r_table(nu, 2000), arith.r_closed_table(nu, 2000))

    def test_r_table_matches_shell_enumeration(self):
        for nu in (2, 3, 5):
            t = arith.r_table(nu, 40)
            for n in range(1, 41):
                assert t[n] == arith.r_count(nu, n)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            arith.r_closed(3, 5)
        with pytest.raises(UnsupportedDimension):
            arith.r_closed_table(5, 10)

    def test_prime_power_closed_form_names_its_dimensions(self):
        # nu = 6 has divisor-sum closed forms, but no prime-power one
        with pytest.raises(UnsupportedDimension, match=r"nu in \{2,4,8\}, got 6"):
            arith.rtilde_prime_power(6, 3, 1)

    def test_normalized_multiplicativity(self):
        # r_nu(mn)/(2nu) = r_nu(m)/(2nu) * r_nu(n)/(2nu) for coprime m, n;
        # exhaustive over m, n <= 200, plus larger spot checks in Python ints
        # (the nu=8 values near 1e6 exceed int64, so scalars are used there)
        for nu in (2, 4, 8):
            t = [Fraction(arith.r_closed(nu, k), 2 * nu) for k in range(1, 201)]
            for m in range(1, 201):
                for n in range(1, 201):
                    if math.gcd(m, n) == 1:
                        assert Fraction(arith.r_closed(nu, m * n), 2 * nu) == t[m - 1] * t[n - 1]
            for m, n in ((997, 999), (841, 1000), (729, 1000)):
                assert math.gcd(m, n) == 1
                lhs = Fraction(arith.r_closed(nu, m * n), 2 * nu)
                assert lhs == Fraction(arith.r_closed(nu, m), 2 * nu) * Fraction(
                    arith.r_closed(nu, n), 2 * nu
                )

    def test_ball_volume_sanity(self):
        # sum_{n<=X} r_nu(n) / X^{nu/2} -> pi^{nu/2}/Gamma(nu/2+1) within 2%
        X = 10**5
        from latzeta.special import gamma_half

        for nu in (2, 3, 4):
            total = float(arith.r_table(nu, X)[1:].sum())
            pred = math.pi ** (nu / 2) / gamma_half(nu + 2)
            assert abs(total / X ** (nu / 2) / pred - 1.0) < 0.02


class TestTwistedSums:
    def test_r_twisted_trivial_character(self):
        for nu, n in ((2, 5), (3, 6), (4, 4)):
            assert arith.r_twisted(nu, n, None) == arith.r_count(nu, n)

    def test_r_twisted_examples(self):
        half = Character((Fraction(1, 2), Fraction(1, 2)))
        assert arith.r_twisted(2, 1, half) == pytest.approx(-4.0)
        assert arith.r_twisted(2, 2, half) == pytest.approx(4.0)

    def test_r_twisted_real(self):
        chi = Character((Fraction(1, 3), Fraction(2, 7)))
        for n in (1, 2, 4, 5, 8):
            z = arith.r_twisted(2, n, chi)
            assert z.imag == pytest.approx(0.0, abs=1e-12)

    def test_r_primitive_examples(self):
        assert arith.r_primitive(2, 4, None) == 0
        assert arith.r_primitive(2, 1, None) == 4
        assert arith.r_primitive(2, 5, None) == 8

    def test_primitive_decomposition_identity(self):
        # r_twisted(n, alpha) = sum_{l^2 | n} r_primitive(n/l^2, l alpha)
        chis = [Character.zero(2), Character((Fraction(1, 3), Fraction(1, 2)))]
        for chi in chis:
            for n in range(1, 1001):
                lhs = arith.r_twisted(2, n, chi)
                rhs = 0j
                ell = 1
                while ell * ell <= n:
                    if n % (ell * ell) == 0:
                        rhs += arith.r_primitive(2, n // (ell * ell), chi.scaled(ell))
                    ell += 1
                assert abs(lhs - rhs) < 1e-10

    def test_primitive_decomposition_3d_sample(self):
        chi = Character((Fraction(1, 4), Fraction(0), Fraction(1, 3)))
        for n in (1, 4, 9, 12, 36, 100):
            lhs = arith.r_twisted(3, n, chi)
            rhs = 0j
            ell = 1
            while ell * ell <= n:
                if n % (ell * ell) == 0:
                    rhs += arith.r_primitive(3, n // (ell * ell), chi.scaled(ell))
                ell += 1
            assert abs(lhs - rhs) < 1e-10


class TestMValue:
    def test_examples(self):
        assert arith.M_value(2, 4, None, 1.0) == pytest.approx(2.0)
        assert arith.M_value(2, 1, None, 7.0) == pytest.approx(4.0)
        for nu, n in ((2, 9), (3, 6)):
            assert arith.M_value(nu, n, None, 0.0) == pytest.approx(arith.r_count(nu, n))

    def test_route_agreement_all_n_up_to_1000(self):
        # the two computation routes are asserted internally to 1e-12
        for n in range(1, 1001):
            arith.M_value(2, n, None, 1.0)

    def test_route_agreement_twisted_sample(self):
        chi = Character((Fraction(1, 3), Fraction(1, 5)))
        for n in (1, 2, 4, 8, 9, 16, 36, 72, 100, 144):
            arith.M_value(2, n, chi, 0.5)

    def test_route_disagreement_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(arith, "r_primitive", lambda nu, n, chi: arith.r_count(nu, n) + 1)
        with pytest.raises(CheckFailed, match="M_value routes disagree"):
            arith.M_value(2, 5, None, 1.0)

    def test_g_weight(self):
        assert arith.g_weight(9, 2.0) == pytest.approx(1 / 9)
        assert arith.g_weight(8, 2.0) == 0.0


class TestBernoulli:
    def test_examples(self):
        assert arith.bernoulli(0) == 1
        assert arith.bernoulli(1) == Fraction(-1, 2)
        assert arith.bernoulli(2) == Fraction(1, 6)
        assert arith.bernoulli(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        for n in (3, 5, 7, 9, 11):
            assert arith.bernoulli(n) == 0

    def test_b12(self):
        assert arith.bernoulli(12) == Fraction(-691, 2730)
