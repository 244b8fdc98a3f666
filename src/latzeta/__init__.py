"""latzeta: Ruelle-type zeta/L-functions on integer lattices.

Subpackages
-----------
lattice   balls, shells, characters, exact pairing phases, lattice sums
arith     mu, gamma, sums-of-squares counts, M_nu(n, alpha, x), Bernoulli
special   zeta, L_{-4}, J/K Bessel, sphere areas
ruelle    log L routes, Poisson identity, logarithmic derivative (one k-sum)
boundary  exact nonvanishing certificates for the natural boundary
detlap    zeta-regularized torus determinants and ladder verification
tauber    Dirichlet-series identities and finite-X Tauberian averages
cli       `latzeta` command-line front end
"""

from . import arith, boundary, detlap, lattice, ruelle, special, tauber
from .lattice import Character

__all__ = [
    "arith",
    "boundary",
    "detlap",
    "lattice",
    "ruelle",
    "special",
    "tauber",
    "Character",
]

__version__ = "0.1.0"
