"""Polyhedral cell complexes supporting minimal free resolutions of Borel
fixed ideals generated in one degree, with exact machine verification.

The package exports the documented library, the names in the README's
Library section; every other name is imported from its module, e.g.
`from borelcell.lattice import LcmLattice`."""

__version__ = "0.1.0"

from .borel import eliahou_kervaire_betti, expand_principal, min_monomial
from .builders import borel_complex, induced_complex, power_complex
from .koszul import betti_via_koszul
from .lattice import build_lattice, is_ranked, natural_label_check
from .monomials import parse_monomial
from .resolution import betti_from_cells, check_minimal, verify_resolution

__all__ = [
    "__version__",
    "parse_monomial",
    "expand_principal",
    "min_monomial",
    "power_complex",
    "borel_complex",
    "induced_complex",
    "verify_resolution",
    "check_minimal",
    "betti_from_cells",
    "betti_via_koszul",
    "eliahou_kervaire_betti",
    "build_lattice",
    "is_ranked",
    "natural_label_check",
]
