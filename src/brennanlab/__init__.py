"""Numerical laboratory for integrability exponents of conformal disc maps.

The package computes Brennan-type integrals, K_{p,q} distortion
functionals, empirical critical integrability exponents and verified
Sobolev composition-operator bounds for a catalog of closed-form
conformal maps of simply connected plane domains.
"""

from .catalog import *
from .exponents import *
from .functionals import *
from .operators import *
from .quadrature import *

__version__ = "0.1.0"
