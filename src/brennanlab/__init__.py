"""Numerical laboratory for integrability exponents of conformal disc maps.

The package computes Brennan-type integrals, K_{p,q} distortion
functionals, empirical critical integrability exponents and verified
Sobolev composition-operator bounds for a catalog of closed-form
conformal maps of simply connected plane domains.

``import brennanlab`` loads only the exponent algebra of
:mod:`~brennanlab.exponents`, which needs no numpy.  The first read of any
other name through the package, such as ``brennanlab.brennan_integral`` or
``from brennanlab import catalog``, imports the four numpy modules
``catalog``, ``quadrature``, ``functionals`` and ``operators`` together
(the module ``__getattr__`` of PEP 562) and binds their public names here;
the name of any other submodule, such as ``from brennanlab import cli``
asks for, loads none of them.  Each module's ``__all__`` is the one list
of its public names.
"""

import importlib.util

from .exponents import *

__version__ = "0.1.0"


_NUMPY_MODULES = ("catalog", "quadrature", "functionals", "operators")


def __getattr__(name):
    """Import the four numpy modules and return ``name`` from among their public names.

    The name of any other submodule raises AttributeError at once, for the
    import system to import that submodule.
    """
    if name not in _NUMPY_MODULES and importlib.util.find_spec(f".{name}", __name__):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _NUMPY_MODULES:
        loaded = importlib.import_module(f".{module}", __name__)
        globals().update((public, getattr(loaded, public)) for public in loaded.__all__)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
