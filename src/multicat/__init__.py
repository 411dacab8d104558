"""Superpositions of coherent states on the position line.

Construction of multi-component cat states, their Wigner functions,
marginal distributions and photon-number statistics in closed form with
independent numerical oracles, plus a finite-difference eigensolver that
recovers such states as ground states of multi-Gaussian-well potentials.
The package exports each module's ``__all__``, its public API.
"""

from .states import *
from .wigner import *
from .marginals import *
from .photon import *
from .wellsolver import *

__version__ = "0.1.0"
