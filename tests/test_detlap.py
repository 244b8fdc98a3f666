import cmath
import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import j0 as scipy_j0

from latzeta import arith, detlap, lattice
from latzeta.errors import DomainError
from latzeta.lattice import Character
from latzeta.special import bessel_K, bessel_K_array, sphere_area


class TestCCoeff:
    def test_examples(self):
        assert detlap.c_coeff(5, 0) == 1
        assert detlap.c_coeff(1, 1) == 1
        assert detlap.c_coeff(2, 2) == 3

    def test_recursion_exact_to_20(self):
        # c_k^(l) - c_k^(l-1) = (l - k + 1) c_{k-1}^(l)
        for ell in range(1, 21):
            for k in range(1, ell + 1):
                prev = detlap.c_coeff(ell - 1, k) if k <= ell - 1 else Fraction(0)
                assert detlap.c_coeff(ell, k) - prev == (ell - k + 1) * detlap.c_coeff(ell, k - 1)

    def test_index_error(self):
        with pytest.raises(IndexError):
            detlap.c_coeff(2, 3)


class TestPQLadders:
    def test_P_values(self):
        s = 1.7
        assert detlap.P_poly(0, s, 0.0) == pytest.approx(2 * s)
        assert detlap.P_poly(0, s, 4.0) == pytest.approx(-0.5)

    def test_P_ladder(self):
        # d/ds (1/(2s) d/ds)^l [e^{-as} P_l(s,a)] = 2 e^{-as} at l in {1,2}
        a, s = 2 * math.pi, 1.3
        for ell in (1, 2):
            f = lambda t: math.exp(-a * t) * detlap.P_poly(ell, t, a).real
            got = detlap.ladder_mixed(f, ell, s).real
            assert got == pytest.approx(2 * math.exp(-a * s), rel=1e-5)

    def test_Q_values(self):
        assert detlap.Q_func(1, 2.0, 0.0) == pytest.approx(4 * math.log(2))
        assert detlap.Q_func(1, 1.0, 1.0) == pytest.approx(2 * bessel_K(1, 1.0), rel=1e-12)
        assert detlap.Q_func(0, 1.5, 0.0) == pytest.approx(math.log(1.5))

    def test_Q_ladder(self):
        # d/ds (1/(2s) d/ds)^l Q_l(s,a) = a K_1(a s) at l in {1,2}
        a, s = 2.0, 1.2
        for ell in (1, 2):
            f = lambda t: detlap.Q_func(ell, t, a)
            got = detlap.ladder_mixed(f, ell, s).real
            assert got == pytest.approx(a * bessel_K(1, a * s), rel=1e-4)

    def test_Q_ladder_a_zero(self):
        s = 1.4
        for ell in (1, 2):
            f = lambda t: detlap.Q_func(ell, t, 0.0)
            assert detlap.ladder_mixed(f, ell, s).real == pytest.approx(1 / s, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            detlap.Q_func(1, -1.0, 1.0)


class TestDimOne:
    GRID_A = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    GRID_S = (0.5, 1.0, 2.0)

    def test_exact_identity_grid(self):
        # det_odd(l=0) = closed product = 4 sin pi(a+is) sin pi(a-is), 1e-12
        for a in self.GRID_A:
            for s in self.GRID_S:
                chi = Character((a,))
                v1 = detlap.det_odd(0, chi, s)
                v2 = detlap.det_dim1_exact(a, s)
                v3 = 4 * cmath.sin(math.pi * (float(a) + 1j * s)) * cmath.sin(
                    math.pi * (float(a) - 1j * s)
                )
                assert abs(v1 - v2) <= 1e-12 * abs(v2)
                assert abs(v2 - v3) <= 1e-12 * abs(v3)

    def test_alpha_zero_value(self):
        want = math.exp(2 * math.pi) * (1 - math.exp(-2 * math.pi)) ** 2
        assert detlap.det_dim1_exact(Fraction(0), 1.0).real == pytest.approx(want, rel=1e-14)

    def test_alpha_half_value(self):
        want = math.exp(2 * math.pi) * (1 + math.exp(-2 * math.pi)) ** 2
        got = detlap.det_odd(0, Character((Fraction(1, 2),)), 1.0)
        assert got.real == pytest.approx(want, rel=1e-12)

    def test_no_zero_mode_at_small_s(self):
        # alpha = 1/2: det -> 4 as s -> 0+
        v = detlap.det_dim1_exact(Fraction(1, 2), 1e-8)
        assert v.real == pytest.approx(4.0, rel=1e-6)

    def test_complex_s(self):
        s = 1.0 + 0.3j
        v1 = detlap.det_odd(0, None, s)
        v2 = detlap.det_dim1_exact(Fraction(0), s)
        assert abs(v1 - v2) < 1e-12 * abs(v2)


class TestDerivativeIdentities:
    def test_psf_odd(self):
        # d/ds (1/(2s) d/ds)^l log det_odd = 2 (-1)^l pi^{l+1} sum e^{2pi i n a} e^{-2pi s|n|}
        for ell in (0, 1):
            for s in (0.8, 1.2):
                for chi in (None, Character.from_string(",".join(["1/3"] * (2 * ell + 1)))):
                    f = lambda t: detlap.log_det_odd(ell, chi, t).real
                    got = detlap.ladder_mixed(f, ell, s).real
                    want = detlap.psf_odd_rhs(ell, chi, s).real
                    assert got == pytest.approx(want, rel=1e-4)

    def test_psf_even_corrected_constant(self):
        # d/ds (1/(2s) d/ds)^l log det_even = 2 (-1)^l pi^l (1/s + sum (2pi|n|) K_1)
        ell = 1
        for s in (0.8, 1.2):
            for chi in (None, Character((Fraction(1, 2), Fraction(1, 2)))):
                f = lambda t: detlap.log_det_even(ell, chi, t)
                got = detlap.ladder_mixed(f, ell, s).real
                want = detlap.psf_even_rhs(ell, chi, s)
                assert got == pytest.approx(want, rel=1e-4)

    def test_even_odd_spectral_tie_back(self):
        # (1/(2s) d/ds)^{l+1} log det = (-1)^l l! sum_m (|m+a|^2+s^2)^{-l-1}
        for nu, s in ((2, 0.9), (2, 1.2), (3, 0.9), (3, 1.2)):
            ell = nu // 2 if nu % 2 == 0 else (nu - 1) // 2
            if nu % 2 == 0:
                f = lambda t: detlap.log_det_even(ell, None, t)
            else:
                f = lambda t: detlap.log_det_odd(ell, None, t).real
            got = detlap.ladder_pure(f, ell + 1, s).real
            want = (-1) ** ell * math.factorial(ell) * detlap.spectral_sum(
                nu, None, s, ell + 1, radius=150.0
            )
            assert got == pytest.approx(want, rel=1e-4)

    def test_even_odd_tie_back_ell2(self):
        # nu = 4 probes the corrected even-case constants at a second ell,
        # where the correction factor (2 ell) differs from the ell = 1 case
        s = 1.0
        f = lambda t: detlap.log_det_even(2, None, t)
        got = detlap.ladder_pure(f, 3, s).real
        want = 2.0 * detlap.spectral_sum(4, None, s, 3, radius=40.0)
        assert got == pytest.approx(want, rel=1e-4)

    def test_even_odd_with_character(self):
        chi = Character((Fraction(1, 3), Fraction(1, 2)))
        s = 1.1
        f = lambda t: detlap.log_det_even(1, chi, t)
        got = detlap.ladder_pure(f, 2, s).real
        want = -detlap.spectral_sum(2, chi, s, 2, radius=150.0)
        assert got == pytest.approx(want, rel=1e-4)


class TestSpectralSum:
    def test_one_dim_coth(self):
        # sum_m (m^2+t^2)^{-1} = (pi/t) coth(pi t)
        t = 1.0
        got = detlap.spectral_sum(1, None, t, 1, radius=50000.0)
        assert got == pytest.approx(math.pi / math.tanh(math.pi), rel=1e-8)

    def test_large_s_limit(self):
        # the continuum term dominates: sum ~ pi^{nu/2} Gamma(j-nu/2)/Gamma(j) s^{nu-2j}
        # (for nu=2, j=2: pi/s^2; the single m=0 term s^{-2j} is smaller by s^-nu)
        s = 40.0
        got = detlap.spectral_sum(2, None, s, 2, radius=500.0)
        assert got == pytest.approx(math.pi / s**2, rel=1e-2)

    def test_poisson_dual_oracle(self):
        a = detlap.spectral_sum(2, None, 1.0, 2, radius=300.0)
        b = detlap.spectral_sum_dual_even(1, None, 1.0)
        assert a == pytest.approx(b, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            detlap.spectral_sum(3, None, 1.0, 1)  # j <= nu/2

    def test_streamed_ball_equals_box_and_mask(self):
        # the box {-ceil(R)-1..ceil(R)+1}^nu masked to |m + alpha| <= R holds
        # the same points as the streamed shifted ball; only the summation
        # order differs
        cases = [(2, (Fraction(1, 3), Fraction(1, 2)), 0.8, 2, 120.0),
                 (3, (Fraction(1, 4), Fraction(2, 3), Fraction(0)), 1.1, 2, 40.0)]
        for nu, alpha, s, j, R in cases:
            alphas = np.array([float(a) for a in alpha])
            line = np.arange(-math.ceil(R) - 1, math.ceil(R) + 2, dtype=np.float64)
            box = np.stack(np.meshgrid(*[line] * nu, indexing="ij"), axis=-1).reshape(-1, nu)
            sq = ((box + alphas) ** 2).sum(axis=1)
            want = float(np.sum((sq[sq <= R * R] + s * s) ** (-float(j))))
            tail, _ = integrate.quad(lambda r: r ** (nu - 1) * (r * r + s * s) ** (-float(j)), R + 0.5, np.inf)
            want += sphere_area(nu - 1) * tail
            got = detlap.spectral_sum(nu, Character(alpha), s, j, radius=R)
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    def test_radial_tail_matches_quadrature(self, nu):
        # the closed form at spectral_sum's default radii, and at j one above
        # the smallest, where the n = 0 base is the series or the recurrence
        for j in (nu // 2 + 1, nu // 2 + 2):
            for s in (0.3, 1.0, 40.0):
                for R in (max({1: 50000.0, 2: 250.0, 3: 150.0}.get(nu, 40.0), 12.0 * s), 2.0):
                    want, _ = integrate.quad(
                        lambda r: r ** (nu - 1) * (r * r + s * s) ** (-float(j)),
                        R + 0.5, np.inf, epsabs=0.0, epsrel=1e-13, limit=200,
                    )
                    got = detlap._radial_tail(nu, s, j, R + 0.5)
                    assert abs(got - want) <= 1e-12 * want, (j, s, R)


class TestLadderTables:
    def test_one_ladder_reads_one_table(self, monkeypatch):
        # below s ~ 0.795 each node of a ladder has its own R2 (49..63 here);
        # all of them read the one table of (nu, alpha), built at the largest,
        # and fold reads the same bins as from a table of each node's own R2
        chi = Character((Fraction(1, 7),) * 4)
        f = lambda t: detlap.log_det_even(2, chi, t)

        def fresh():
            monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
            monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)

        own_R2 = set()

        def own_table(t):
            fresh()
            value = f(t)
            own_R2.add(lattice._TABLE_CACHE[(4, chi.alpha)].R2)
            return value

        nodes = 0.645 * (1.0 + 0.01 * np.arange(-6, 7))
        fresh()
        shared = [repr(v) for v in [f(t) for t in nodes] + [detlap.ladder_pure(f, 3, 0.645)]]
        assert [table.R2 for table in lattice._TABLE_CACHE.values()] == [63]
        per_node = [repr(v) for v in [own_table(t) for t in nodes] + [detlap.ladder_pure(own_table, 3, 0.645)]]
        assert len(own_R2) == 13
        assert shared == per_node


def log_det_odd_by_shell(ell, chi, s):
    """log_det_odd with its lattice sum grouped by shells through r_twisted."""
    nu = 2 * ell + 1
    R2 = int(math.ceil(detlap.det_truncation(s).radius ** 2))
    cs = [float(detlap.c_coeff(ell, k)) for k in range(ell + 1)]
    dfact = math.prod(range(2 * ell + 1, 0, -2))
    lead = -((-2.0 * math.pi) ** (ell + 1)) / dfact * s ** (2 * ell + 1)
    acc = 0j
    for n in range(1, R2 + 1):
        rt = arith.r_twisted(nu, n, chi)
        if rt == 0:
            continue
        rn = math.sqrt(n)
        poly = sum(c * (2.0 * math.pi * rn) ** (-k) * s ** (ell - k) for k, c in enumerate(cs))
        acc += rt * rn ** (-(ell + 1)) * poly * np.exp(-2.0 * math.pi * rn * s)
    return lead - acc


def log_det_even_by_shell(ell, chi, s):
    """log_det_even with its lattice sum grouped by shells through r_twisted."""
    nu = 2 * ell
    R2 = int(math.ceil(detlap.det_truncation(s).radius ** 2))
    lead = 2.0 * (-1.0) ** ell * math.pi**ell / math.factorial(ell) * s ** (2 * ell) * math.log(s)
    acc = 0.0
    for n in range(1, R2 + 1):
        rt = arith.r_twisted(nu, n, chi)
        if rt == 0:
            continue
        rn = math.sqrt(n)
        kv = float(bessel_K_array(ell, np.array([2.0 * math.pi * rn * s]))[0])
        acc += rt.real * rn ** (-ell) * kv
    return lead - 2.0 * s**ell * acc


class TestShellRegrouping:
    def test_odd_vectorwise_equals_shell(self):
        chi = Character((Fraction(1, 3), Fraction(0), Fraction(1, 2)))
        for s in (0.9, 1.4):
            a = detlap.log_det_odd(1, chi, s)
            b = log_det_odd_by_shell(1, chi, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_even_vectorwise_equals_shell(self):
        chi = Character((Fraction(1, 4), Fraction(1, 3)))
        for s in (0.9, 1.4):
            a = detlap.log_det_even(1, chi, s)
            b = log_det_even_by_shell(1, chi, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestTableFallback:
    def test_log_det_without_table_agrees(self, monkeypatch):
        # a table that could outgrow the cache budget is not built; the
        # determinants' sums then come from the ball, point by point
        cases = [
            (detlap.log_det_odd, 1, Character((Fraction(1, 3), Fraction(0), Fraction(1, 2)))),
            (detlap.log_det_odd, 1, None),
            (detlap.log_det_even, 1, Character((Fraction(1, 4), Fraction(1, 3)))),
            (detlap.log_det_even, 2, Character((Fraction(1, 7),) * 4)),
        ]

        def values():
            return [f(ell, chi, s) for f, ell, chi in cases for s in (0.6, 1.3)]

        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)
        with_table = values()
        assert lattice._TABLE_CACHE
        monkeypatch.setattr(lattice, "_TABLE_CACHE", OrderedDict())
        monkeypatch.setattr(lattice, "_TABLE_CACHE_BYTES", 0)
        monkeypatch.setattr(lattice, "TABLE_CACHE_MAX_BYTES", 0)
        without = values()
        assert not lattice._TABLE_CACHE
        for a, b in zip(with_table, without):
            assert abs(a - b) <= 1e-13 * abs(b)


class TestDetEven:
    def test_real_for_symmetric_character(self):
        chi = Character((Fraction(1, 2), Fraction(1, 2)))
        v = detlap.det_even(1, chi, 1.0)
        assert isinstance(v, float) and v > 0

    def test_large_s_log_term_dominates(self):
        ell = 1
        s = 8.0
        got = detlap.log_det_even(ell, None, s)
        lead = 2 * (-1) ** ell * math.pi**ell / math.factorial(ell) * s ** (2 * ell) * math.log(s)
        assert got == pytest.approx(lead, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            detlap.det_even(1, None, -1.0)
        with pytest.raises(ValueError):
            detlap.det_even(0, None, 1.0)


class TestFourierKernel:
    def test_quadrature_oracle_ell1(self):
        # int_{R^2} e^{2 pi i x.y} (|x|^2+s^2)^{-2} dx at |y|=1, s=1,
        # radially 2 pi int r J0(2 pi r) (r^2+1)^{-2} dr
        quad, _ = integrate.quad(
            lambda r: r * scipy_j0(2 * math.pi * r) / (r * r + 1) ** 2, 0, 400, limit=4000
        )
        got = detlap.fourier_power_kernel(1, 1.0, 1.0)
        assert 2 * math.pi * quad == pytest.approx(got, abs=1e-6 * got)

    def test_quadrature_oracle_other_point(self):
        R, s = 0.7, 1.3
        quad, _ = integrate.quad(
            lambda r: r * scipy_j0(2 * math.pi * r * R) / (r * r + s * s) ** 2, 0, 400, limit=4000
        )
        assert 2 * math.pi * quad == pytest.approx(
            detlap.fourier_power_kernel(1, R, s), rel=1e-6
        )

    def test_zero_frequency_limit(self):
        # R -> 0: 2 pi^{l+1} R K_1(2 pi R s)/(s l!) -> pi^l/(l! s^2)
        for ell in (1, 2):
            got = detlap.fourier_power_kernel(ell, 1e-9, 1.3)
            want = math.pi**ell / (math.factorial(ell) * 1.3**2)
            assert got == pytest.approx(want, rel=1e-6)
