import cmath
import math
import time
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from latzeta import arith, lattice, ruelle
from latzeta.errors import DomainError
from latzeta.lattice import Character
from latzeta.ruelle import Truncation
from latzeta.special import sphere_area

GRID_S = (0.8, 1.5, 3.0)


def grid_chars(nu):
    return (
        Character.zero(nu),
        Character.from_string(",".join(["1/3"] * nu)),
        Character.from_string(",".join(["1/2"] * nu)),
    )


class TestGDirect:
    def test_one_dim_geometric(self):
        g = ruelle.g_direct(1.0, None, 1)
        want = 2 * math.exp(-1) / (1 - math.exp(-1))
        assert g.value.real == pytest.approx(want, rel=1e-13)
        assert abs(g.value - want) <= 10 * g.tail_estimate + 1e-13

    def test_large_s_leading_shell(self):
        # dominated by the 2 nu unit vectors; the next shell contributes
        # relatively e^{-(sqrt(2)-1) s}
        s = 20.0
        for nu in (1, 2, 3):
            g = ruelle.g_direct(s, None, nu)
            lead = 2 * nu * math.exp(-s)
            second = math.exp(-(math.sqrt(2) - 1) * s)
            assert abs(g.value.real - lead) <= 4 * nu**2 * lead * second

    def test_tail_estimate_covers_truncation_error(self):
        # coarse truncation: the reported tail must cover the actual gap to
        # a converged evaluation
        s, nu = 1.0, 2
        coarse = ruelle.g_direct(s, None, nu, Truncation(radius=5, ell_limit=1))
        fine = ruelle.g_direct(s, None, nu, Truncation(radius=45, ell_limit=1))
        gap = abs(coarse.value - fine.value)
        assert 0 < gap < coarse.tail_estimate

    def test_domain(self):
        with pytest.raises(DomainError):
            ruelle.g_direct(-0.5, None, 2)


class TestGPoisson:
    def test_coth_identity(self):
        # nu=1, alpha=0: 1 + g = coth(pi t) at s = 2 pi t
        for t in (0.5, 1.0, 2.0):
            g = ruelle.g_poisson(2 * math.pi * t, None, 1)
            assert 1 + g.value.real == pytest.approx(1 / math.tanh(math.pi * t), rel=1e-10)

    def test_half_shift_tanh_identity(self):
        # nu=1, alpha=1/2: 1 + g = tanh(pi t), equivalently (t/pi) sum (t^2+(m+1/2)^2)^-1
        chi = Character((Fraction(1, 2),))
        t = 1.0
        g = ruelle.g_poisson(2 * math.pi * t, chi, 1)
        assert 1 + g.value.real == pytest.approx(math.tanh(math.pi * t), rel=1e-10)
        m = np.arange(-200000, 200001, dtype=np.float64)
        partial_fraction = (t / math.pi) * float(np.sum(1.0 / (t * t + (m + 0.5) ** 2)))
        assert 1 + g.value.real == pytest.approx(partial_fraction, rel=1e-5)

    def test_agrees_with_direct_on_grid(self):
        for nu in (1, 2, 3):
            for s in GRID_S:
                for chi in grid_chars(nu):
                    a = ruelle.g_direct(s, chi, nu)
                    b = ruelle.g_poisson(s, chi, nu)
                    tol = max(1e-8, a.tail_estimate + b.tail_estimate)
                    assert abs(a.value - b.value) < tol
                    assert abs(a.value - b.value) < 1e-8

    def test_complex_s_in_ewald_region(self):
        # Re(s^2) > 0: the theta split applies directly
        s = 1.0 + 0.4j
        for nu in (1, 2):
            a = ruelle.g_direct(s, None, nu)
            b = ruelle.g_poisson(s, None, nu)
            assert abs(a.value - b.value) < 1e-9

    def test_truncated_fallback_for_wide_angle_s(self):
        # Re(s^2) < 0 falls back to the slow dual sum with an honest tail
        s = 0.3 + 1.0j
        g = ruelle.g_poisson(s, None, 1, Truncation(radius=4000, ell_limit=5))
        d = ruelle.g_direct(s, None, 1)
        assert abs(g.value - d.value) < g.tail_estimate + d.tail_estimate

    def test_truncated_fallback_sums_the_ball(self):
        # nu = 2: the dual sum runs over |m| <= 200 only, and its tail estimate
        # still covers the gap to a converged direct sum
        s = 0.2 + 1.5j
        g = ruelle.g_poisson(s, None, 2)
        assert g.terms == int(arith.r_table(2, 200**2).sum())
        d = ruelle.g_direct(s, None, 2, Truncation(radius=220, ell_limit=1))
        assert abs(g.value - d.value) < g.tail_estimate


class TestLogG:
    def test_one_dim_value(self):
        # log G(s) = sum_d log L(ds) = -2 sum_d log(1 - e^{-ds}) in 1-D
        lg = ruelle.log_G(1.0, None, 1)
        want = -2 * sum(math.log(1 - math.exp(-d)) for d in range(1, 200))
        assert lg.value.real == pytest.approx(want, rel=1e-12)

    def test_exp_log_G_equals_product(self):
        lg = ruelle.log_G(1.0, None, 1)
        prod = 1.0
        for n in range(1, 80):
            prod *= (1 - math.exp(-n)) ** -2
        assert math.exp(lg.value.real) == pytest.approx(prod, rel=1e-9)

    def test_large_s_dominant_term(self):
        for nu in (1, 2):
            lg = ruelle.log_G(25.0, None, nu)
            assert lg.value.real == pytest.approx(2 * nu * math.exp(-25.0), rel=1e-4)

    def test_ell_decomposition_double_sum(self):
        # direct double sum over (n, ell) of e^{2 pi i l n a} e^{-s l |n|}/l
        s = 1.2
        nu = 2
        chi = Character((Fraction(1, 3), Fraction(1, 2)))
        lg = ruelle.log_G(s, chi, nu)
        acc = 0j
        arr = lattice.ball_array(nu, int(math.ceil((40.0 / s) ** 2)))
        norms = np.sqrt((arr.astype(np.float64) ** 2).sum(axis=1))
        for ell in range(1, 40):
            ph = lattice.pairing_phases(arr, chi.scaled(ell))
            acc += complex((ph * np.exp(-s * ell * norms)).sum()) / ell
        assert abs(lg.value - acc) < 1e-10


class TestLogL:
    def test_one_dim_closed_form(self):
        r = ruelle.log_L(1.0, None, 1)
        assert r.value.real == pytest.approx(-2 * math.log(1 - math.exp(-1)), rel=1e-13)

    def test_three_routes_agree(self):
        for nu in (1, 2, 3):
            for s in GRID_S:
                for chi in grid_chars(nu):
                    r = ruelle.log_L_routes(s, chi, nu)
                    vals = [r[k].value for k in ("euler", "mobius", "series")]
                    assert abs(vals[0] - vals[1]) < 1e-8
                    assert abs(vals[0] - vals[2]) < 1e-8
                    assert abs(vals[1] - vals[2]) < 1e-8

    def test_sign_flip_symmetry(self):
        chi = Character((Fraction(1, 3), Fraction(1, 5)))
        flipped = Character((Fraction(-1, 3) % 1, Fraction(1, 5)))
        a = ruelle.log_L(1.1, chi, 2)
        b = ruelle.log_L(1.1, flipped, 2)
        assert abs(a.value - b.value) < 1e-12

    def test_conjugation_symmetry(self):
        # real s: log L(s, -alpha) = conj(log L(s, alpha)) = log L(s, alpha)
        chi = Character((Fraction(2, 7), Fraction(3, 11)))
        a = ruelle.log_L(1.3, chi, 2)
        b = ruelle.log_L(1.3, chi.negated(), 2)
        assert abs(a.value - b.value.conjugate()) < 1e-12
        assert abs(a.value.imag) < 1e-12

    def test_complex_s(self):
        s = 1.5 + 0.5j
        r = ruelle.log_L_routes(s, None, 2)
        assert abs(r["euler"].value - r["series"].value) < 1e-9
        assert r["series"].value.imag != 0.0

    def test_routes_meet_near_the_axis(self):
        # at Re s = 0.1 the Moebius k-sum runs to ell_limit = 400, past the
        # point where its omitted k could show at 1e-9
        r = ruelle.log_L_routes(0.1, None, 2)
        vals = [r[k].value for k in ("euler", "mobius", "series")]
        assert max(abs(a - b) for a in vals for b in vals) < 1e-9
        assert abs(r["mobius"].value - r["series"].value) <= r["mobius"].tail_estimate

    def test_mobius_route_matches_brute_double_loop(self):
        # sum over squarefree m of mu(m) log G(m s, m alpha), with log G's
        # l-sum cut at l m <= ell_limit, summed point by point over the full
        # ball (the route's balls of radius R/(l m) omit terms below e^{-s R})
        s, nu = 1.2, 2
        chi = Character((Fraction(1, 3), Fraction(1, 2)))
        tr = ruelle.default_truncation(s)
        K = tr.ell_limit
        arr = lattice.ball_array(nu, int(math.ceil(tr.radius**2)))
        norms = np.sqrt((arr.astype(np.float64) ** 2).sum(axis=1))
        acc = 0j
        for m in range(1, K + 1):
            mu = arith.moebius(m)
            if mu == 0:
                continue
            for ell in range(1, K // m + 1):
                ph = lattice.pairing_phases(arr, chi.scaled(ell * m))
                acc += mu * complex((ph * np.exp(-ell * m * s * norms)).sum()) / ell
        got = ruelle.log_L_routes(s, chi, nu, tr)["mobius"]
        assert abs(got.value - acc) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            ruelle.log_L(0.0, None, 2)


def phi_blocks_1d(s, a, N):
    """The paper's Phi(s, a, 1) and Phi(s, a, 2) at nu = 1 over n <= N, with
    Phi(s, a, t) = sum_n gamma(n) n^{-2} sum_m (s^2 + (2 pi (m/n + a))^2)^{-t}.

    Each m-sum is a partial fraction in closed form, so the Phi_1 n-term is
    gamma(n) sinh(ns) / (2ns (cosh ns - cos 2 pi n a)), and Phi_2 is
    -(1/2s) d/ds Phi_1 term by term."""
    st = arith.ensure_sieve(N)
    p1 = p2 = 0j
    for n in range(1, N + 1):
        c = math.cos(2 * math.pi * n * a)
        sh, ch = cmath.sinh(n * s), cmath.cosh(n * s)
        t1 = sh / (2 * n * s * (ch - c))
        dt1 = (1 - c * ch) / (2 * s * (ch - c) ** 2) - t1 / s
        p1 += int(st.gam[n]) * t1
        p2 += int(st.gam[n]) * -dt1 / (2 * s)
    return p1, p2


def c_const(nu):
    """C(nu) = 2 (2 sqrt(pi))^{nu-1} Gamma((nu+1)/2), the paper's prefactor of L'/L."""
    return 2.0 * (2.0 * math.sqrt(math.pi)) ** (nu - 1) * math.gamma((nu + 1) / 2)


class TestPhi:
    """L'/L against the paper's Phi combination C(nu) [Phi(s, alpha, (nu+1)/2)
    - (nu+1) s^2 Phi(s, alpha, (nu+3)/2)], with Phi evaluated in the test."""

    def test_one_n_term_partial_fraction(self):
        # n = 1 only, nu = 1, s = 1: the m-sums of Phi_1 and Phi_2 summed
        # directly; Phi_1's is coth(1/2)/2.  The lattice sum carries e^{-|v|},
        # so radius 40 is converged
        s = 1.0
        m = np.arange(-200000, 200001, dtype=np.float64)
        q = s * s + (2 * math.pi * m) ** 2
        p1, p2 = float(np.sum(1 / q)), float(np.sum(1 / q**2))
        assert p1 == pytest.approx(1 / math.tanh(0.5) / 2, rel=1e-4)
        ld = ruelle.log_deriv_L(s, None, 1, Truncation(radius=40.0, ell_limit=1))
        assert ld.value.real == pytest.approx(c_const(1) * (p1 - 2 * s * s * p2), rel=1e-4)

    def test_matches_phi_closed_form_1d(self):
        # the n-sum of both sides stops at ell_limit; the k = 0 parts of the
        # two Phi values cancel in the combination
        for a in (Fraction(0), Fraction(1, 3), Fraction(1, 4)):
            for s in (0.35 + 0.2j, 0.8, 1.5):
                ld = ruelle.log_deriv_L(s, Character((a,)), 1)
                p1, p2 = phi_blocks_1d(s, float(a), ruelle.default_truncation(s).ell_limit)
                want = c_const(1) * (p1 - 2 * s * s * p2)
                assert abs(ld.value - want) < 1e-12 * abs(want), (a, s)

    def test_monotone_decrease_in_s_positive_terms(self):
        # with one k block at alpha = 0, -L'/L = sum_v |v| e^{-s|v|} has only
        # positive terms, each decreasing in s
        tr = Truncation(radius=30.0, ell_limit=1)
        vals = [-ruelle.log_deriv_L(s, None, 1, tr).value.real for s in (1.0, 1.5, 2.0, 3.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_shell_grouping_matches_naive_loop(self):
        # alpha = 0: the k-blocks -gamma(k) sum_v |v| e^{-k s |v|} regrouped
        # by shells through the exact count tables
        s, nu = 1.1, 2
        tr = Truncation(radius=40.0, ell_limit=3)
        got = ruelle.log_deriv_L(s, Character.zero(nu), nu, tr).value
        st = arith.ensure_sieve(3)
        want = 0.0
        for k in (1, 2, 3):
            R2 = int(math.ceil(max(2.0, tr.radius / k) ** 2))
            counts = arith.r_table(nu, R2)[1:]
            norms = np.sqrt(np.arange(1, R2 + 1, dtype=np.float64))
            want -= float(st.gam[k]) * float((counts * norms * np.exp(-k * s * norms)).sum())
        assert abs(got - want) < 1e-12 * abs(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            ruelle.log_deriv_L(0.0, None, 2, None)


class TestLogDerivL:
    def test_one_dim_closed_form(self):
        ld = ruelle.log_deriv_L(1.0, None, 1)
        want = -2 * math.exp(-1) / (1 - math.exp(-1))
        assert ld.value.real == pytest.approx(want, rel=1e-12)

    def test_one_dim_closed_form_at_large_s(self):
        # -2 e^{-s} / (1 - e^{-s}); the k-sum has no parts that cancel, so its
        # relative error does not grow with s
        for s in (5.0, 12.0, 18.0, 30.0):
            ld = ruelle.log_deriv_L(s, None, 1)
            want = -2 * math.exp(-s) / (1 - math.exp(-s))
            assert abs(ld.value - want) <= 1e-12 * abs(want), s

    def test_large_s_sign_and_magnitude(self):
        s = 18.0
        for nu in (1, 2):
            ld = ruelle.log_deriv_L(s, None, nu)
            lead = -2 * nu * math.exp(-s)
            assert ld.value.real < 0
            second = math.exp(-(math.sqrt(2) - 1) * s)
            assert abs(ld.value.real - lead) <= 6 * nu**2 * abs(lead) * second

    def test_matches_finite_difference(self):
        def fd(s, chi, nu, h=1e-2):
            f = lambda t: ruelle.log_L(t, chi, nu).value
            return (f(s - 2 * h) - 8 * f(s - h) + 8 * f(s + h) - f(s + 2 * h)) / (12 * h)

        for nu in (1, 2, 3):
            for s in (0.8, 1.5):
                for chi in (Character.zero(nu), grid_chars(nu)[1]):
                    a = ruelle.log_deriv_L(s, chi, nu).value
                    b = fd(s, chi, nu)
                    assert abs(a - b) / abs(b) < 1e-5

    def test_tail_covers_n_truncation_near_the_axis(self):
        # the reference is the same sum with n <= 1000
        for s in (0.1, 0.35 + 0.2j):
            tr = ruelle.default_truncation(s)
            ld = ruelle.log_deriv_L(s, None, 2, tr)
            ref = ruelle.log_deriv_L(s, None, 2, Truncation(tr.radius, 1000))
            assert abs(ld.value - ref.value) <= ld.tail_estimate + 1e-14 * abs(ld.value)

    def test_tail_covers_radius_truncation(self):
        # the tail is that of the summed weight |v| e^{-k sigma |v|} over every
        # k; the reference sums balls of three times the radius
        cases = (
            (2, 0.35 + 0.2j, 40.0, None),
            (2, 0.8, 15.0, None),
            (1, 0.35, 30.0, None),
            (3, 0.8, 12.0, None),
            (3, 2.0, 6.0, None),
            (4, 1.5, 8.0, None),
            (2, 1.5, 8.0, (Fraction(1, 3), Fraction(1, 2))),
            (1, 1.0, 10.0, (Fraction(1, 4),)),
        )
        for nu, s, R, alpha in cases:
            K = ruelle.default_truncation(s).ell_limit
            ld = ruelle.log_deriv_L(s, alpha, nu, Truncation(R, K))
            ref = ruelle.log_deriv_L(s, alpha, nu, Truncation(3 * R, K))
            assert abs(ld.value - ref.value) <= ld.tail_estimate, (nu, s, R)

    def test_terms_count_points_summed(self):
        s, nu = 1.2, 2
        tr = ruelle.default_truncation(s)
        want = sum(
            lattice.ball_count(nu, int(math.ceil(max(2.0, tr.radius / n) ** 2)))
            for n in range(1, tr.ell_limit + 1)
        )
        assert ruelle.log_deriv_L(s, None, nu, tr).terms == want

    def test_c_const(self):
        # C(nu) Area(S^nu) / (2 (2 pi)^nu) = 1 turns the Phi combination into
        # the s-derivative of the Moebius k-sum
        assert c_const(1) == pytest.approx(2.0, rel=1e-15)
        assert c_const(2) == pytest.approx(2 * math.pi, rel=1e-14)
        for nu in range(1, 9):
            assert c_const(nu) * sphere_area(nu) / (2 * (2 * math.pi) ** nu) == pytest.approx(1.0, rel=1e-14), nu


class TestTruncationDefaults:
    def test_default_truncation(self):
        tr = ruelle.default_truncation(0.5)
        assert tr.radius == pytest.approx(80.0)
        assert tr.ell_limit == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            Truncation(radius=0.5, ell_limit=1)

    def test_near_axis_runs_with_honest_tail(self):
        # Re(s) < 0.1: capped radius, larger reported tail, no failure
        s = 0.05
        g = ruelle.g_direct(s, None, 2)
        assert g.tail_estimate > 1e-6  # honestly large
        fine = ruelle.g_direct(s, None, 2, Truncation(radius=500, ell_limit=1))
        assert abs(g.value - fine.value) <= g.tail_estimate


class TestShellResidueReads:
    """g, log G, the Moebius route and L'/L read one shell-residue table."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)

    @staticmethod
    def brute_g(u, chi, mult, nu, R2):
        arr = lattice.ball_array(nu, R2)
        norms = np.sqrt((arr.astype(np.float64) ** 2).sum(axis=1))
        return complex((lattice.pairing_phases(arr, chi.scaled(mult)) * np.exp(-u * norms)).sum())

    def test_g_from_table_matches_brute_sum(self):
        cases = (
            (Character((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))), (1, 2, 3, 6)),
            (Character((Fraction(1, 997), Fraction(0), Fraction(5, 997))), (1, 2, 996)),
        )
        for chi, mults in cases:
            table = lattice.shell_residue_table(3, 144, chi)
            assert table is not None
            for mult in mults:
                for u, R2 in ((0.9 + 0.3j, 144), (2.7, 16)):
                    got, terms = lattice.norm_sum(lambda r: np.exp(-u * r), 3, R2, chi, mult)
                    assert lattice._TABLE_CACHE[(3, chi.alpha)] is table
                    want = self.brute_g(u, chi, mult, 3, R2)
                    assert abs(got - want) < 1e-13 * max(1.0, abs(want)), (chi, mult, u)
                    assert terms == lattice.ball_count(3, R2)
                    # g_direct reads its own table of the scaled character
                    gd = ruelle.g_direct(u, chi.scaled(mult), 3, Truncation(math.sqrt(R2), 1))
                    assert abs(gd.value - want) < 1e-13 * max(1.0, abs(want))

    def test_large_radius_terms_without_count_table(self):
        # the term count comes from the summed rows, not from r_table
        t0 = time.perf_counter()
        g = ruelle.g_direct(1.0, None, 1, Truncation(radius=2000, ell_limit=1))
        assert time.perf_counter() - t0 < 1.0
        assert g.terms == 4000
        assert g.value.real == pytest.approx(2 * math.exp(-1) / (1 - math.exp(-1)), rel=1e-13)

    def test_direct_sums_without_table_agree(self, monkeypatch):
        # a table that could outgrow the cache budget is not built; the same
        # sums then come from the ball, point by point
        s, nu = 0.9 + 0.2j, 2
        chi = Character((Fraction(1, 3), Fraction(1, 4)))

        def sums():
            routes = ruelle.log_L_routes(s, chi, nu)
            return (ruelle.g_direct(s, chi, nu), routes["mobius"], ruelle.log_deriv_L(s, chi, nu),
                    routes["euler"], routes["series"])

        with_table = sums()
        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)
        monkeypatch.setattr(lattice, "TABLE_CACHE_MAX_BYTES", 0)
        without = sums()
        assert not lattice._TABLE_CACHE
        for a, b in zip(with_table, without):
            assert abs(a.value - b.value) < 1e-13 * abs(b.value)
            assert (a.terms, a.tail_estimate) == (b.terms, b.tail_estimate)

    def test_k_sum_folds_each_ball_once(self, monkeypatch):
        # at Re s = 0.1 the 400 k's read 81 distinct balls (251 of them the
        # radius-2 ball); each ball is folded once, for all of its k's
        calls = []
        norm_sum = lattice.norm_sum

        def counted(weight, nu, R2, chi, mult=1):
            calls.append((R2, np.size(mult)))
            return norm_sum(weight, nu, R2, chi, mult)

        monkeypatch.setattr(lattice, "norm_sum", counted)
        tr = ruelle.default_truncation(0.1)
        ruelle.log_G(0.1, None, 2, tr)
        R2s = [math.ceil(max(2.0, tr.radius / k) ** 2) for k in range(1, tr.ell_limit + 1)]
        assert [R2 for R2, _ in calls] == sorted(set(R2s), reverse=True)
        assert [m for _, m in calls] == [R2s.count(R2) for R2, _ in calls]

    def test_byte_identical_after_cache_clear(self, monkeypatch):
        s, nu = 1.1 + 0.4j, 3
        chi = Character((Fraction(1, 3), Fraction(0), Fraction(1, 6)))

        def outputs():
            return repr((ruelle.log_L_routes(s, chi, nu), ruelle.log_deriv_L(s, chi, nu),
                         ruelle.g_direct(s, chi, nu), ruelle.log_G(s, chi, nu)))

        first = outputs()
        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)
        monkeypatch.setattr(lattice, "_BALL_CACHE", {})
        monkeypatch.setattr(lattice, "_BALL_CACHE_ROWS", 0)
        assert outputs() == first
