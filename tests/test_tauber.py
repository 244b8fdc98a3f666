import math

import mpmath
import numpy as np
import pytest

from latzeta import arith, lattice, tauber
from latzeta.errors import DomainError, UnsupportedRegime
from latzeta.special import dirichlet_L4, riemann_zeta, zeta_even_exact

Z3 = 1.2020569031595943
Z5 = 1.0369277551433699
Z7 = 1.0083492773819228


class TestScriptL:
    def test_closed_values(self):
        got = tauber.script_L(2, 3.0).value.real
        want = 4 * Z3 * dirichlet_L4(3.0).value.real
        assert got == pytest.approx(want, rel=1e-13)
        got = tauber.script_L(4, 4.0).value.real
        want = 8 * (1 - 4.0 ** (-3)) * zeta_even_exact(2) * Z3
        assert got == pytest.approx(want, rel=1e-12)

    def test_closed_vs_direct(self):
        for nu, s in ((2, 3.0), (4, 4.0), (6, 4.5), (8, 5.5)):
            a = tauber.script_L(nu, s).value.real
            b = tauber.script_L_direct(nu, s)
            assert abs(a - b.value.real) / a < 1e-6
            assert abs(a - b.value.real) <= 10 * b.est_error + 1e-12 * a

    def test_direct_fallback_for_open_dimensions(self):
        v = tauber.script_L(3, 2.5)
        assert v.value.real == pytest.approx(10.3774619985, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            tauber.script_L(4, 2.0)


class TestScriptLTilde:
    def test_composition(self):
        got = tauber.script_L_tilde(2, 3.0).value.real
        want = 4 * Z3 * dirichlet_L4(3.0).value.real / zeta_even_exact(3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_direct_primitive_oracle(self):
        # direct sum of primitive counts over n <= 3000 (exponent 3: fast decay)
        got = tauber.script_L_tilde(2, 3.0).value.real
        acc = 0.0
        for n in range(1, 3001):
            acc += arith.r_primitive(2, n, None).real * n ** (-3.0)
        assert got == pytest.approx(acc, rel=1e-6)

    def test_one_dim(self):
        # primitive vectors of Z are +-1 only
        got = tauber.script_L_tilde(1, 2.0).value.real
        assert got == pytest.approx(2.0, rel=1e-6)


class TestDSeries:
    def test_x_zero_reduces_to_script_L(self):
        for nu in (2, 4):
            s = nu / 2 + 1.0
            a = tauber.D_series(nu, s, 0.0).value.real
            b = tauber.script_L(nu, s).value.real
            assert a == pytest.approx(b, rel=1e-12)

    def test_composition_value(self):
        got = tauber.D_series(2, 3.0, 1.0).value.real
        want = riemann_zeta(7.0).value.real / zeta_even_exact(3) * 4 * Z3 * dirichlet_L4(3.0).value.real
        assert got == pytest.approx(want, rel=1e-12)

    def test_direct_sum_oracle(self):
        # sum M_2(n, 1) n^{-2.5} over n <= 20000
        got = tauber.D_series(2, 2.5, 1.0).value.real
        acc = 0.0
        for n in range(1, 20001):
            acc += arith.M_value(2, n, None, 1.0).real * n ** (-2.5)
        assert got == pytest.approx(acc, rel=1e-6)

    def test_identity_chain(self):
        # D(s;x) zeta(2s) = zeta(x+2s) L(s) on a grid, 1e-10
        for nu in (2, 4, 6, 8):
            for ds in (0.75, 1.5):
                s = nu / 2 + ds
                for x in (0.0, 1.0, 2.5):
                    lhs = tauber.D_series(nu, s, x).value * riemann_zeta(2 * s).value
                    rhs = riemann_zeta(x + 2 * s).value * tauber.script_L(nu, s).value
                    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def partial_sum_sweep(nu, X, x):
    """Brute oracle for partial_sum_M: one pass over the ball |m|^2 <= X
    accumulating gcd(m)^{-x} (origin excluded), slice by leading coordinate."""
    R = math.isqrt(X)
    if nu == 1:
        ks = np.arange(1, R + 1, dtype=np.float64)
        return float(2.0 * (ks ** (-float(x))).sum())
    total = 0.0
    for lead in range(-R, R + 1):
        rem = X - lead * lead
        g = np.gcd(np.int64(abs(lead)), lattice.row_gcd(lattice._ball_with_origin(nu - 1, rem)))
        w = g.astype(np.float64)
        total += float((w[g > 0] ** (-float(x))).sum())
    return total


class TestPartialSums:
    def test_tiny_values(self):
        assert tauber.partial_sum_M(2, 1, 3.7) == pytest.approx(4.0)
        assert tauber.partial_sum_M(2, 4, 1.0) == pytest.approx(10.0)

    def test_sweep_equals_count_route(self):
        for nu, X in ((1, 10**5), (2, 2500), (3, 700), (4, 250)):
            a = partial_sum_sweep(nu, X, 1.0)
            b = tauber.partial_sum_M(nu, X, 1.0)
            assert a == pytest.approx(b, rel=1e-12)
        for x in (0.0, -1.0, 2.0):
            a = partial_sum_sweep(2, 1500, x)
            b = tauber.partial_sum_M(2, 1500, x)
            assert a == pytest.approx(b, rel=1e-12)
        # the size of the benchmark's nu = 2 reports
        a = partial_sum_sweep(2, 2 * 10**6, 1.0)
        b = tauber.partial_sum_M(2, 2 * 10**6, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nu1_matches_exact_sum(self):
        # 2 sum_{k <= sqrt X} k^{-x}, exact in mpmath; the Moebius square-class
        # route cancels at nu = 1 and was 2.3e-13 off at X = 10^6, x = 2
        with mpmath.workdps(40):
            for X in (10**6, 123456):
                for x in (2.0, 1.0, 0.5, 0.0, -1.0, 3.7):
                    want = 2 * mpmath.fsum(mpmath.mpf(k) ** -mpmath.mpf(x) for k in range(1, math.isqrt(X) + 1))
                    got = tauber.partial_sum_M(1, X, x)
                    assert abs(got - want) <= 1e-15 * abs(want), (X, x)

    def test_nu2_builds_no_count_table(self):
        # N_1(Z) = 2 isqrt(Z) + 1 needs no table; an r_table per fresh X
        # would fill the table cache
        misses = arith.r_table.cache_info().misses
        for x in (1.0, -1.0):
            tauber.partial_sum_M(2, 10**6, x)
        assert arith.r_table.cache_info().misses == misses

    def test_x_zero_counts_lattice_points(self):
        X = 5000
        assert tauber.partial_sum_M(2, X, 0.0) == pytest.approx(
            float(arith.r_table(2, X)[1:].sum())
        )


class TestAsymptoticConstants:
    def test_nu2_x1(self):
        C, power, logf = tauber.asymptotic_constant(2, 1.0)
        assert C == pytest.approx(6 * Z3 / math.pi, rel=1e-12)
        assert power == 1.0 and not logf

    def test_nu4_x1_corrected(self):
        C, power, logf = tauber.asymptotic_constant(4, 1.0)
        assert C == pytest.approx(45 * Z5 / math.pi**2, rel=1e-12)
        assert power == 2.0 and not logf

    def test_nu3_x1_corrected(self):
        C, power, logf = tauber.asymptotic_constant(3, 1.0)
        assert C == pytest.approx(math.pi**5 / (67.5 * Z3), rel=1e-10)
        assert power == 1.5 and not logf

    def test_nu6_x1_corrected(self):
        C, _, _ = tauber.asymptotic_constant(6, 1.0)
        assert C == pytest.approx(157.5 * Z7 / math.pi**3, rel=1e-10)

    def test_log_regime_nu2(self):
        C, power, logf = tauber.asymptotic_constant(2, -1.0)
        assert C == pytest.approx(3 / math.pi, rel=1e-13)
        assert power == 1.0 and logf

    def test_low_regime_constant(self):
        # x < 1 - nu: L_nu((1-x)/2) / ((1-x) zeta(1-x))
        C, power, logf = tauber.asymptotic_constant(2, -3.0)
        want = tauber.script_L(2, 2.0).value.real / (4 * zeta_even_exact(2))
        assert C == pytest.approx(want, rel=1e-12)
        assert power == 2.0 and not logf

    def test_low_regime_matches_measurement(self):
        # measured at X = 1e6 in development: ratio 1.0021
        C, power, _ = tauber.asymptotic_constant(2, -3.0)
        X = 10**5
        obs = tauber.partial_sum_M(2, X, -3.0)
        assert obs / (C * X**power) == pytest.approx(1.0, abs=0.02)

    def test_log_regime_band_and_trend(self):
        # convergence in the double-pole regime is ~ 1 + c/log X; at desk
        # scale only a wide band and a downward trend are checkable
        r1 = tauber.make_report(3, -2.0, 10**4)
        r2 = tauber.make_report(3, -2.0, 10**6)
        assert abs(r2.ratio - 1.0) < 0.25
        assert abs(r2.ratio - 1.0) < abs(r1.ratio - 1.0)

    def test_x_zero_is_ball_volume(self):
        from latzeta.special import gamma_half

        for nu in (2, 3, 4):
            C, power, logf = tauber.asymptotic_constant(nu, 0.0)
            assert C == pytest.approx(math.pi ** (nu / 2) / gamma_half(nu + 2), rel=1e-10)

    def test_unsupported(self):
        with pytest.raises(UnsupportedRegime):
            tauber.asymptotic_constant(3, -5.0)  # x < 1-nu needs closed form
        with pytest.raises(UnsupportedRegime):
            tauber.asymptotic_constant(1, 1.0)

    def test_source_constants_differ_by_2_over_nu(self):
        # the source text's x > 1-nu constants omit the 1/sigma_0 = 2/nu
        # Tauberian factor; document the exact relation here
        from latzeta.special import gamma_half

        for nu, zeta_nu in ((4, zeta_even_exact(2)), (6, zeta_even_exact(3))):
            printed = math.pi ** (nu / 2) * riemann_zeta(nu + 1.0).value.real / (
                zeta_nu * gamma_half(nu)
            )
            C, _, _ = tauber.asymptotic_constant(nu, 1.0)
            assert C == pytest.approx(printed * 2 / nu, rel=1e-12)


class TestBernoulliConstants:
    def test_ell1_even(self):
        assert tauber.bernoulli_constant(1, "even") == pytest.approx(6 * Z3 / math.pi, rel=1e-12)

    def test_ell2_even(self):
        assert tauber.bernoulli_constant(2, "even") == pytest.approx(45 * Z5 / math.pi**2, rel=1e-12)

    def test_ell1_odd(self):
        assert tauber.bernoulli_constant(1, "odd") == pytest.approx(
            math.pi**5 / (67.5 * Z3), rel=1e-10
        )

    def test_agrees_with_any_nu_route(self):
        for ell in range(1, 7):
            a = tauber.bernoulli_constant(ell, "even")
            b = tauber.asymptotic_constant(2 * ell, 1.0)[0]
            assert abs(a - b) / b < 1e-12
            a = tauber.bernoulli_constant(ell, "odd")
            b = tauber.asymptotic_constant(2 * ell + 1, 1.0)[0]
            assert abs(a - b) / b < 1e-12

    def test_remark_ratio_identity(self):
        # 6 zeta(3)/pi = pi zeta(3)/zeta(2), exactly via zeta(2) = pi^2/6
        lhs = 6 * Z3 / math.pi
        rhs = math.pi * Z3 / zeta_even_exact(1)
        assert abs(lhs - rhs) / rhs < 1e-14


class TestReports:
    def test_report_fields_and_csv(self):
        rep = tauber.make_report(2, 1.0, 2000)
        assert rep.predicted_power == 1.0 and not rep.log_factor
        text = tauber.report_csv([rep])
        lines = text.strip().split("\n")
        assert lines[0].split(",") == tauber.CSV_HEADER
        assert len(lines) == 2

    def test_log_flag_set_exactly_at_boundary(self):
        assert tauber.make_report(2, -1.0, 100).log_factor
        assert not tauber.make_report(2, -0.999, 100).log_factor
