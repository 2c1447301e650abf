"""Polyhedral cell complexes supporting minimal free resolutions of Borel
fixed ideals generated in one degree, with exact machine verification.

The package re-exports the public names of its modules, each listed once
in that module's __all__."""

__version__ = "0.1.0"

from . import (
    borel,
    builders,
    complexes,
    exact,
    koszul,
    lattice,
    monomials,
    resolution,
    serialize,
)
from .borel import *
from .builders import *
from .complexes import *
from .exact import *
from .koszul import *
from .lattice import *
from .monomials import *
from .resolution import *
from .serialize import *

__all__ = [
    "__version__",
    *monomials.__all__,
    *borel.__all__,
    *complexes.__all__,
    *builders.__all__,
    *exact.__all__,
    *resolution.__all__,
    *lattice.__all__,
    *koszul.__all__,
    *serialize.__all__,
]
