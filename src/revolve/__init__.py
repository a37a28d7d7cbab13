"""Monte-Carlo and operator laboratory for Markov random evolutions in R^n.

A particle moves at high speed along directions resampled uniformly (or from
a finite set) at Poisson epochs with intensity 1/eps^2; as eps -> 0 the
rescaled motion converges to a diffusion. The package simulates these
evolutions exactly, realizes the generator algebra on sphere quadrature
grids, computes the limiting drift and diffusion coefficients in closed
form, and tests the convergence statistically.
"""

__version__ = "0.1.0"

# cli is left out: importing it here would load it before
# `python -m revolve.cli` runs it as __main__, and runpy warns about that.
from . import ks, limits, operator_lab, profiles, rates, simulator, sphere, stats

__all__ = [
    "__version__",
    "sphere",
    "profiles",
    "operator_lab",
    "limits",
    "rates",
    "simulator",
    "ks",
    "stats",
]
