"""Three routes to log L(s, alpha; nu), and the Poisson identity behind them.

The Ruelle-type L-function is the Euler product over primitive lattice
vectors with factors (1 - chi(P) e^{-s|P|})^{-1}.  Its logarithm can be
computed three independent ways; they agree to ~1e-12 in double precision.
The lattice sum g(s, alpha) and its Poisson dual provide the fourth
cross-check; the logarithmic derivative is the s-derivative of the Moebius
route's sum, checked against a finite difference of the series route.
"""

import math

from latzeta import ruelle
from latzeta.lattice import Character

s, nu = 1.2, 2
chi = Character.from_string("1/3,1/2")

routes = ruelle.log_L_routes(s, chi, nu)
print(f"log L({s}, alpha=(1/3,1/2); nu={nu}) by route:")
for name, sv in routes.items():
    print(f"  {name:>7}: {sv.value.real:.15f}   (terms {sv.terms}, tail est {sv.tail_estimate:.1e})")
spread = max(
    abs(routes[a].value - routes[b].value)
    for a in routes
    for b in routes
)
print(f"  route spread: {spread:.2e}")

print("\n1-D sanity: the only primitive vectors of Z are +-1, so")
print("log zeta_sqrt(s; 1) = -2 log(1 - e^-s):")
r = ruelle.log_L(1.0, None, 1)
print(f"  computed {r.value.real:.15f} vs closed {-2 * math.log(1 - math.exp(-1)):.15f}")

print("\nPoisson identity: 1 + g(2 pi t, 0; 1) = coth(pi t)")
for t in (0.5, 1.0, 2.0):
    g = ruelle.g_poisson(2 * math.pi * t, None, 1)
    print(f"  t={t}: dual-sum value {1 + g.value.real:.12f} vs coth {1 / math.tanh(math.pi * t):.12f}")

print("\nlogarithmic derivative L'/L vs a finite difference of log L (nu=2):")
ld = ruelle.log_deriv_L(s, chi, nu)
h = 1e-2
f = lambda t: ruelle.log_L(t, chi, nu).value
fd = (f(s - 2 * h) - 8 * f(s - h) + 8 * f(s + h) - f(s + 2 * h)) / (12 * h)
print(f"  d/ds of the Moebius k-sum: {ld.value.real:.12f}")
print(f"  finite diff of log L:      {fd.real:.12f}   (rel delta {abs(ld.value - fd) / abs(fd):.1e})")
