"""The four workloads: set-up, warm-up, seeded task rounds, tasks and checks.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")`` in
rounds; a round holds the same kinds of task in the same order for every
seed, so each run measures the same mix and its median lands on the same kind
of task.  Tasks run in the timed loop; ``check`` runs after it, outside the
timed region, and returns a list of problems (empty when the output is
right).  Peak RSS is read once ``RSS_ROUNDS`` rounds are done.  latzeta is
imported inside the functions so that importing this module costs nothing in
the set-up measurement.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

from oracles import euler_product_log, gcd_weighted_count, shell_counts, spectral_sum

ALPHA_PARTS = tuple(Fraction(a) for a in ("0", "1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "1/6"))


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a))


def _character(alpha):
    from latzeta.lattice import Character

    return Character(tuple(alpha))


def _alpha(rng: random.Random, nu: int) -> tuple[Fraction, ...]:
    """Small-denominator components, some of them zero, not all zero."""
    while True:
        alpha = tuple(rng.choice(ALPHA_PARTS) for _ in range(nu))
        if any(alpha):
            return alpha


class LFun:
    """log L by all three routes, L'/L, and g by both routes at one point.

    A round is one task per nu.  Re s bands put each kind near its own cost
    (nu=2 cheapest, nu=3 dearest), so the median is a nu=4 task.
    """

    name = "lfun"
    RSS_ROUNDS = 4
    BANDS = {2: (0.345, 0.355), 3: (1.12, 1.13), 4: (2.64, 2.66)}

    def setup(self):
        from latzeta import arith

        arith.moebius(1)  # the first Moebius value builds the shared sieve

    def warmup(self, tracer):
        for nu in self.BANDS:
            self.run((nu, complex(4.0, 1.0), (Fraction(1, 7),) * nu), tracer)

    def rounds(self, rng):
        while True:
            tasks = []
            for nu, (lo, hi) in self.BANDS.items():
                sigma = rng.uniform(lo, hi)
                s = complex(sigma, sigma * rng.uniform(0.0, 0.9))
                alpha = (Fraction(0),) * nu if nu == 2 else _alpha(rng, nu)
                tasks.append((nu, s, alpha))
            yield tasks

    @staticmethod
    def kind(task):
        return f"nu={task[0]}"

    def run(self, task, tracer):
        from latzeta import ruelle

        nu, s, alpha = task
        chi = _character(alpha)
        routes = ruelle.log_L_routes(s, chi, nu)
        return {
            "routes": {k: v.value for k, v in routes.items()},
            "dlog": ruelle.log_deriv_L(s, chi, nu).value,
            "g_direct": ruelle.g_direct(s, chi, nu).value,
            "g_poisson": ruelle.g_poisson(s, chi, nu).value,
        }

    def check(self, task, out, index):
        from latzeta import ruelle

        nu, s, alpha = task
        chi = _character(alpha)
        problems = []
        vals = out["routes"]
        for a in vals:
            for b in vals:
                if a < b and not _close(vals[a], vals[b], 1e-8):
                    problems.append(f"routes {a}/{b} differ: {vals[a]} vs {vals[b]}")
        h = 1e-3
        f = [ruelle.log_L(s + k * h, chi, nu).value for k in (-2, -1, 1, 2)]
        fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        if abs(out["dlog"] - fd) > 1e-5 * abs(out["dlog"]):
            problems.append(f"L'/L {out['dlog']} vs finite difference {fd}")
        if (s * s).real > 0 and not _close(out["g_direct"], out["g_poisson"], 1e-8):
            problems.append(f"g direct {out['g_direct']} vs Poisson {out['g_poisson']}")
        R2 = int(math.ceil(ruelle.default_truncation(s).radius ** 2))
        brute = euler_product_log(nu, s, alpha, R2)
        if not _close(vals["series"], brute, 1e-8):
            problems.append(f"log L {vals['series']} vs brute Euler product {brute}")
        return problems


class Certs:
    """Natural-boundary certificates, emitted as the CLI emits them.

    A task is one fresh numerator m against the first ``PER_M`` denominators
    coprime to it from the run's seeded start n0, for nu = 2, 4 and 8, so
    every task makes the same number of certificates.  The denominators, and
    so their sieves, are shared by all tasks of a run.
    """

    name = "certs"
    RSS_ROUNDS = 16
    NUS = (2, 4, 8)
    PER_M = 8
    M_MAX = 5000

    def __init__(self):
        self._pool = [m for m in range(2, self.M_MAX + 1) if max(_factor(m)) <= 97]

    def setup(self):
        from latzeta import boundary

        for nu in self.NUS:  # the first certificate per nu sums log G over primes to 1e7
            boundary.certify_nonvanishing(nu, 1, 1)

    def warmup(self, tracer):
        # m = 5 * 7 * 11 * 13 lies beyond the pool and n = 1 below every
        # window, so no sieve a timed task needs is built here
        self.run((5005, 1), tracer)

    def rounds(self, rng):
        pool = self._pool[:]
        rng.shuffle(pool)
        n0 = rng.randint(2, 40)
        for m in pool:
            yield [(m, n0)]

    @staticmethod
    def kind(task):
        return "m"

    def denominators(self, m, n0):
        ns, n = [], n0
        while len(ns) < self.PER_M:
            if math.gcd(m, n) == 1:
                ns.append(n)
            n += 1
        return ns

    def run(self, task, tracer):
        from latzeta import boundary

        m, n0 = task
        out = []
        for nu in self.NUS:
            for n in self.denominators(m, n0):
                cert = boundary.certify_nonvanishing(nu, m, n)
                with tracer.span("boundary.to_json"):
                    text = json.dumps(cert.to_json_dict(), indent=2, default=str)
                out.append((nu, n, cert, text))
        return out

    def check(self, task, out, index):
        from latzeta import arith

        validator = _certificate_validator()
        problems = []
        m, _ = task
        for nu, n, cert, text in out:
            tag = f"nu={nu} m={m} n={n}"
            if not cert.verdict:
                problems.append(f"{tag}: verdict false")
            if abs(cert.series_value - cert.factored_value) > 1e-6 * abs(cert.factored_value):
                problems.append(f"{tag}: series {cert.series_value} vs factored {cert.factored_value}")
            for err in validator.iter_errors(json.loads(text)):
                problems.append(f"{tag}: schema: {err.message}")
            counts = _shell_table(nu)
            for p in sorted(set(_factor(m)) | set(_factor(n))):
                a = 1
                while p ** (2 * a) < len(counts):
                    want = int(counts[p ** (2 * a)])
                    got = 2 * nu * arith.rtilde_prime_power(nu, p, a)
                    if got != want:
                        problems.append(f"{tag}: r_{nu}({p}^{2 * a}) = {got}, shells count {want}")
                    a += 1
        return problems


class Detlap:
    """Verified torus determinants, as ``latzeta detlap --verify`` computes
    them: the determinant, the ladder of log det, and the spectral-sum oracle.

    A round is nu = 3, 4, 3; the spectral sum sets each cost (a fixed box per
    nu), so the median is a nu = 3 task.
    """

    name = "detlap"
    RSS_ROUNDS = 2
    NUS = (3, 4, 3)
    ORACLE_RADIUS = {3: 150.0, 4: 40.0}  # spectral_sum's default radius

    def setup(self):
        pass  # nothing in detlap is built lazily once per process

    def warmup(self, tracer):
        from latzeta import detlap

        for nu in (3, 4):
            chi = _character((Fraction(1, 7),) * nu)
            ell = nu // 2
            f = self._log_det(detlap, nu, chi)
            detlap.ladder_pure(f, ell + 1, 2.0)
            detlap.spectral_sum(nu, chi, 2.0, ell + 1, radius=12.0)

    def rounds(self, rng):
        while True:
            yield [(nu, rng.uniform(0.6, 1.4), tuple(rng.choice(ALPHA_PARTS) for _ in range(nu))) for nu in self.NUS]

    @staticmethod
    def kind(task):
        return f"nu={task[0]}"

    @staticmethod
    def _log_det(detlap, nu, chi):
        if nu % 2:
            return lambda t: detlap.log_det_odd((nu - 1) // 2, chi, t).real
        return lambda t: detlap.log_det_even(nu // 2, chi, t)

    def run(self, task, tracer):
        from latzeta import detlap

        nu, s, alpha = task
        chi = _character(alpha)
        ell = nu // 2
        if nu % 2:
            det = detlap.det_odd(ell, chi, s)
        else:
            det = detlap.det_even(ell, chi, s)
        ladder = detlap.ladder_pure(self._log_det(detlap, nu, chi), ell + 1, s).real
        spectral = detlap.spectral_sum(nu, chi, s, ell + 1)
        return {"det": det, "ladder": ladder, "spectral": spectral}

    def check(self, task, out, index):
        from latzeta import detlap

        nu, s, alpha = task
        ell = nu // 2
        problems = []
        want = (-1) ** ell * math.factorial(ell) * out["spectral"]
        residual = abs(out["ladder"] - want) / abs(want)
        if not residual < 1e-4:
            problems.append(f"ladder residual {residual:.3e}")
        if not math.isfinite(abs(out["det"])) or out["det"] == 0:
            problems.append(f"determinant {out['det']}")
        if nu % 2 == 0:
            dual = detlap.spectral_sum_dual_even(ell, _character(alpha), s)
            if abs(out["spectral"] - dual) > 1e-4 * abs(dual):
                problems.append(f"spectral sum {out['spectral']} vs Poisson dual {dual}")
        if index == 0:  # one nu = 3 task per run; nu = 4 has the Poisson dual above
            R = max(self.ORACLE_RADIUS[nu], 12.0 * s)
            own = spectral_sum(nu, alpha, s, ell + 1, R)
            if abs(out["spectral"] - own) > 1e-9 * abs(own):
                problems.append(f"spectral sum {out['spectral']} vs own sum {own}")
        return problems


class Tauber:
    """Tauberian reports at fresh (nu, X): nu = 2 by the gcd sweep, nu = 3, 4
    by exact counts.  Each task covers x above the boundary x = 1 - nu, on it,
    and below it where a closed form exists (not for nu = 3).
    """

    name = "tauber"
    RSS_ROUNDS = 4
    BANDS = {2: (2_060_000, 2_140_000), 3: (315_000, 325_000), 4: (340_000, 350_000)}
    ABOVE = tuple(Fraction(a) for a in ("2", "3/2", "1", "1/2", "0"))
    BELOW = {2: (Fraction(-3), Fraction(-4)), 4: (Fraction(-5), Fraction(-6))}
    SMALL_X = {2: (2000, 4000), 3: (400, 800), 4: (150, 300)}

    def setup(self):
        from latzeta import arith

        arith.moebius(1)  # the first Moebius value builds the shared sieve

    def warmup(self, tracer):
        from latzeta import tauber

        for nu, X in ((2, 10_000), (3, 60_000), (4, 20_000)):
            tauber.make_report(nu, Fraction(1), X)

    def rounds(self, rng):
        while True:
            tasks = []
            for nu, (lo, hi) in self.BANDS.items():
                xs = rng.sample(self.ABOVE, 2) + [Fraction(1 - nu)]
                if nu in self.BELOW:
                    xs.append(rng.choice(self.BELOW[nu]))
                tasks.append((nu, rng.randint(lo, hi), tuple(xs), rng.randint(*self.SMALL_X[nu])))
            yield tasks

    @staticmethod
    def kind(task):
        return f"nu={task[0]}"

    def run(self, task, tracer):
        from latzeta import tauber

        nu, X, xs, _ = task
        return [tauber.make_report(nu, x, X) for x in xs]

    def check(self, task, out, index):
        from latzeta import tauber

        nu, X, xs, small_X = task
        problems = []
        for x, rep in zip(xs, out):
            if x == 1 - nu:
                # the double pole's log X term carries a 1 + O(1/log X) factor
                ok = abs(rep.ratio - 1.0) <= 3.0 / math.log(X)
            else:
                ok = abs(rep.ratio - 1.0) <= (0.02 if nu == 2 else 0.05)
            if not ok:
                problems.append(f"x={x}: observed/predicted {rep.ratio}")
        x = float(xs[0])
        got = tauber.partial_sum_M(nu, small_X, x)
        want = gcd_weighted_count(nu, small_X, x)
        if abs(got - want) > 1e-10 * abs(want):
            problems.append(f"partial sum at X={small_X}, x={x}: {got} vs brute {want}")
        return problems


WORKLOADS = {w.name: w for w in (LFun, Certs, Detlap, Tauber)}


# ---------------------------------------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.cache
def _shell_table(nu: int):
    return shell_counts(nu, 10_000)


@functools.cache
def _certificate_validator():
    import jsonschema
    from latzeta import boundary

    schema = boundary.certificate_schema()
    return jsonschema.validators.validator_for(schema)(schema)
