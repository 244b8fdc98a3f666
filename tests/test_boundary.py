import json
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from latzeta import arith, boundary
from latzeta.arith import primes_upto, rtilde_prime_power
from latzeta.errors import CheckFailed, NotCoprime, NotPrime, UnsupportedDimension


def lhs_partial_sum(nu, p, e, N):
    """Exact-rational N-term partial sum of the key-lemma left side."""
    acc = Fraction(0)
    for n in range(1, N + 1):
        acc += Fraction(2 * nu * rtilde_prime_power(nu, p, n + e), p ** (n * (nu + 1)))
    return acc


class TestKeyLemma:
    def test_exact_anchor_values(self):
        r = boundary.key_lemma_sides(2, 2, 0)
        assert (r.lhs, r.rhs) == (Fraction(4, 7), Fraction(4))
        r = boundary.key_lemma_sides(4, 2, 0)
        assert (r.lhs, r.rhs) == (Fraction(24, 31), Fraction(8))
        r = boundary.key_lemma_sides(4, 2, 1)
        assert (r.lhs, r.rhs) == (Fraction(24, 31), Fraction(24))
        r = boundary.key_lemma_sides(2, 3, 0)
        assert (r.lhs, r.rhs) == (Fraction(2, 13), Fraction(2))

    def test_e_independence_for_nu2_p2(self):
        for e in range(6):
            assert boundary.key_lhs(2, 2, e) == Fraction(4, 7)

    def test_exhaustive_distinct(self):
        for nu in (2, 4, 8):
            for p in primes_upto(101):
                for e in range(6):
                    r = boundary.key_lemma_sides(nu, int(p), e)
                    assert r.distinct
                    assert r.lhs > 0 and r.rhs > 0

    def test_closed_form_contains_partial_sums(self):
        # partial sums increase to the closed value; the gap is inside the
        # exact geometric tail bound (first omitted term over 1 - ratio)
        for nu, p, e in ((2, 2, 0), (2, 5, 1), (4, 3, 2), (8, 3, 0), (8, 2, 4)):
            closed = boundary.key_lhs(nu, p, e)
            part = lhs_partial_sum(nu, p, e, 300)
            assert part < closed
            first_omitted = Fraction(
                2 * nu * rtilde_prime_power(nu, p, 301 + e), p ** (301 * (nu + 1))
            )
            # term ratio is below p^2 * p^{-(nu+1)} <= 1/2 in all cases here
            tail_bound = first_omitted * 2
            assert closed - part <= tail_bound

    def test_input_validation(self):
        with pytest.raises(UnsupportedDimension):
            boundary.key_lemma_sides(6, 2, 0)
        with pytest.raises(NotPrime):
            boundary.key_lemma_sides(2, 9, 0)
        with pytest.raises(ValueError):
            boundary.key_lhs(2, 2, -1)


def _poly_at(coeffs, x):
    return sum(a * x**k for k, a in enumerate(coeffs))


def _taylor_shift(coeffs, x0):
    """Coefficients in t of the polynomial at x0 + t (coefficients from t^0 up)."""
    out = [0] * len(coeffs)
    for k, a in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += a * math.comb(k, j) * x0 ** (k - j)
    return out


# 1 - G_{nu,p} = N(p)/D(p) per (nu, p mod `mod` == `res`), one row per
# residue-class branch of key_lhs at odd p; coefficients from p^0 up
_ONE_MINUS_G = [
    # 1/(p^2 + p + 1)
    (2, 4, 3, [1], [1, 1, 1]),
    # (3p^3 - 1)/((p - 1)(p^2 + p + 1)^2)
    (2, 4, 1, [-1, 0, 0, 3], [-1, -1, -1, 1, 1, 1]),
    # (p^2 + 1)(p^3 + p^2 - 1)/((p - 1)(p^2 + p + 1)(p^4 + p^3 + p^2 + p + 1))
    (4, 2, 1, [-1, 0, 0, 1, 1, 1], [-1, -1, -1, 0, 0, 1, 1, 1]),
    # (p^9 + p^6 + p^3 - 1)/((p - 1)(p^2 + p + 1)^2 (p^6 + p^3 + 1))
    (8, 2, 1, [-1, 0, 0, 1, 0, 0, 1, 0, 0, 1], [-1, -1, -1, 0, 0, 0, 0, 0, 0, 1, 1, 1]),
]


class TestLocalFactors:
    def test_E_examples(self):
        assert boundary.local_E(2, 2) == Fraction(4) + Fraction(4, 7)  # 32/7
        assert boundary.local_E(2, 3) == Fraction(54, 13)

    def test_E_large_q_tends_to_2nu(self):
        for nu in (2, 4, 8):
            val = boundary.local_E(nu, 9973)
            assert abs(float(val) - 2 * nu) < 1e-6

    def test_E_oracle_200_terms(self):
        for nu, q in ((2, 2), (4, 3), (8, 5)):
            partial = Fraction(2 * nu) + lhs_partial_sum(nu, q, 0, 200)
            closed = boundary.local_E(nu, q)
            assert partial < closed
            assert closed - partial < Fraction(1, 10**100)

    def test_F_examples(self):
        assert boundary.local_F(2, 2, 0) == Fraction(24, 7)
        assert boundary.local_F(4, 2, 0) == Fraction(224, 31)

    def test_F_positive_large_p(self):
        for nu in (2, 4, 8):
            assert boundary.local_F(nu, 9973, 0) > 0

    def test_G_examples(self):
        assert boundary.local_G(2, 2) == Fraction(6, 7)
        assert boundary.local_G(4, 2) == Fraction(28, 31)

    def test_zero_F_raises_typed_error(self, monkeypatch):
        # force the left side the key lemma excludes: r(p^2e) = (p-1) key_lhs
        monkeypatch.setattr(boundary, "key_lhs", lambda nu, p, e: Fraction(boundary._r_pp(nu, p, e), p - 1))
        with pytest.raises(CheckFailed):
            boundary.local_F(2, 3, 1)

    def test_zero_G_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(boundary, "key_lhs", lambda nu, p, e: Fraction(2 * nu, p - 1))
        with pytest.raises(CheckFailed):
            boundary.local_G(4, 5)

    def test_G_tends_to_one(self):
        for nu in (2, 4, 8):
            assert abs(float(boundary.local_G(nu, 9973)) - 1.0) < 1e-6

    @pytest.mark.parametrize("nu, mod, res, N, D", _ONE_MINUS_G)
    def test_G_tail_constant_proof(self, nu, mod, res, N, D):
        # 1 - G_{nu,p} = N(p)/D(p) on the class: (p-1)/(2 nu) key_lhs is a
        # ratio of integer polynomials of degree <= 15 in p there, so the
        # cross-multiplied difference has degree < 40 and vanishes identically
        # once it vanishes at 40 primes
        primes = [int(p) for p in primes_upto(2000) if p >= 3 and p % mod == res][:40]
        assert len(primes) == 40
        for p in primes:
            assert 1 - boundary.local_G(nu, p) == Fraction(_poly_at(N, p), _poly_at(D, p))
        # with p = 3 + t, t >= 0: D > 0 and N > 0, and c D - p^2 N >= 0, so
        # 0 < 1 - G_{nu,p} <= c/p^2 for every prime p >= 3 of the class
        c = boundary.G_TAIL_C[nu]
        gap = [c * d for d in D] + [0] * max(0, len(N) + 2 - len(D))
        for k, a in enumerate(N):
            gap[k + 2] -= a
        shifted_D, shifted_N, shifted_gap = (_taylor_shift(f, 3) for f in (D, N, gap))
        assert shifted_D[0] > 0 and shifted_N[0] > 0
        assert min(shifted_D + shifted_N + shifted_gap) >= 0

    def test_G_tail_constant_numerically(self):
        # |1 - G_{nu,p}| <= c_nu / p^2 for p <= 1e4 (the bound the tail uses)
        for nu in (2, 4, 8):
            c = float(boundary.G_TAIL_C[nu])
            for p in primes_upto(10**4):
                p = int(p)
                dev = abs(1.0 - float(boundary.local_G(nu, p)))
                assert dev <= c / p**2


class TestRSeries:
    def test_single_term(self):
        # K=1: gamma(n) r_nu(m^2) / n^{nu+1}
        from latzeta.arith import gamma_mult, r_closed

        for nu, mt, nt in ((2, 1, 1), (2, 3, 2), (4, 1, 2)):
            got = boundary.R_coeff_series(nu, mt, nt, K=1)
            want = gamma_mult(nt) * r_closed(nu, mt * mt) / nt ** (nu + 1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_against_counted_direct_sum(self):
        # K = 40 against gamma(kn) r_nu(k^2 m^2) summed term by term: r_2 and
        # r_4 counted (r_4 as the convolution r_2 * r_2 at each needed n, since
        # arith.r_table up to (40 * 97)^2 would take minutes), r_8 from the
        # closed form; m = 12, 72 repeat primes and 97 is a prime above K
        K = 40
        N = (K * 97) ** 2
        root = math.isqrt(N)
        r2 = np.zeros(N + 1, dtype=np.int32)  # r_4(n) < 2^31 for every n <= N, so np.dot stays exact
        ys = np.arange(root + 1) ** 2
        weight = np.full(root + 1, 2, dtype=np.int32)
        weight[0] = 1  # y = 0 has no mirror image
        for x in range(-root, root + 1):
            row = x * x + ys
            keep = row <= N
            r2[row[keep]] += weight[keep]
        count = {
            2: lambda t: int(r2[t]),
            4: lambda t: int(np.dot(r2[: t + 1], r2[t::-1])),
            8: lambda t: arith.r_closed(8, t),
        }
        for nu in (2, 4, 8):
            for mt in (12, 72, 97):
                r = [count[nu]((k * mt) ** 2) for k in range(1, K + 1)]
                for nt in (1, 6, 35):
                    if math.gcd(mt, nt) != 1:
                        continue
                    want = 0.0
                    for k in range(1, K + 1):
                        gamma_kn = math.prod(1 - q for q in arith.factorize(k * nt))
                        want += gamma_kn * r[k - 1] / k ** (nu + 1)
                    want /= nt ** (nu + 1)
                    got = boundary.R_coeff_series(nu, mt, nt, K=K)
                    assert got == pytest.approx(want, rel=1e-12), (nu, mt, nt)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            boundary.R_coeff_series(2, 2, 4)

    def test_series_converges_to_factored(self):
        for nu, mt, nt in ((2, 1, 1), (4, 1, 2), (8, 3, 5)):
            c = boundary.certify_nonvanishing(nu, mt, nt)
            assert abs(c.series_value - c.factored_value) / abs(c.series_value) < 1e-6


class TestCertificates:
    def test_verdicts(self):
        c = boundary.certify_nonvanishing(2, 1, 1)
        assert c.verdict and not c.E_factors and not c.F_factors
        c = boundary.certify_nonvanishing(4, 1, 2)
        assert c.verdict
        assert [q for q, _ in c.E_factors] == [2]
        c = boundary.certify_nonvanishing(8, 3, 5)
        assert c.verdict
        assert [p for p, _, _ in c.F_factors] == [3]
        assert [q for q, _ in c.E_factors] == [5]

    def test_factorization_consistency_small_pairs(self):
        # all coprime pairs with m*n <= 30
        for mt in range(1, 31):
            for nt in range(1, 31):
                if mt * nt > 30 or math.gcd(mt, nt) != 1:
                    continue
                for nu in (2, 4, 8):
                    c = boundary.certify_nonvanishing(nu, mt, nt, series_K=100_000)
                    assert c.verdict
                    rel = abs(c.series_value - c.factored_value) / abs(c.series_value)
                    assert rel < 1e-6

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            boundary.certify_nonvanishing(2, 2, 4)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            boundary.certify_nonvanishing(6, 1, 1)

    def test_prime_factor_above_100_certifies(self):
        c = boundary.certify_nonvanishing(2, 101, 1)
        assert c.verdict
        assert [p for p, _, _ in c.F_factors] == [101]
        assert abs(c.series_value - c.factored_value) / abs(c.series_value) < 1e-6

    def test_json_schema(self):
        schema = boundary.certificate_schema()
        for nu, mt, nt in ((2, 1, 1), (8, 3, 5)):
            doc = json.loads(boundary.certify_nonvanishing(nu, mt, nt).to_json())
            jsonschema.validate(doc, schema)

    def test_tail_bound_starts_above_3(self):
        for nu in (2, 4, 8):
            c = boundary.certify_nonvanishing(nu, 1, 1, series_K=20_000)
            assert c.verdict
            assert c.g_tail_bound == 2 * float(boundary.G_TAIL_C[nu]) / 3
            # 3 is the smallest P the bound accepts
            with pytest.raises(ValueError):
                boundary.g_tail_log_bound(nu, 2)

    def test_constant_size(self):
        # the G factor depends on nu only once m*n is coprime to 6, so the
        # certificate grows only with the primes of m*n
        for nu in (2, 4, 8):
            entries = set()
            for mt, nt in ((1, 1), (5, 7), (101, 1), (1, 97), (35, 11), (1009, 25)):
                doc = json.loads(boundary.certify_nonvanishing(nu, mt, nt, series_K=20_000).to_json())
                assert doc["prime_limit"] == 3
                (g,) = [f for f in doc["factors"] if f["kind"] == "G"]
                entries.add(json.dumps(g))
            assert len(entries) == 1
        for mt in (5, 101, 1009, 2003, 4099):
            c = boundary.certify_nonvanishing(8, mt, 1)
            assert c.verdict
            assert len(c.to_json()) < 1024

    def test_sieve_cache_bounded_over_fresh_m(self):
        boundary.certify_nonvanishing(2, 1, 1, series_K=20_000)
        keys = len(boundary._SIEVE_CACHE)
        for mt in range(2, 32):
            nt = next(n for n in (35, 6, 1) if math.gcd(mt, n) == 1)
            boundary.certify_nonvanishing(2, mt, nt, series_K=20_000)
        assert len(boundary._SIEVE_CACHE) <= keys

    def test_json_independent_of_earlier_certificates(self, monkeypatch):
        monkeypatch.setattr(boundary, "_SIEVE_CACHE", {})
        monkeypatch.setattr(arith, "_SIEVE", None)
        first = boundary.certify_nonvanishing(8, 12, 35).to_json()
        for nu, mt, nt in ((8, 97, 6), (4, 12, 35), (8, 35, 12), (2, 4096, 3)):
            boundary.certify_nonvanishing(nu, mt, nt)
        assert boundary.certify_nonvanishing(8, 12, 35).to_json() == first
