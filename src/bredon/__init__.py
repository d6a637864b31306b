"""Exact calculus of bigraded C2-equivariant cohomology normal forms over F2.

The package represents the cohomology of a finite C2-complex by its two
multiplicity maps (free summands and antipodal-sphere summands), derives
the downstream invariants (fixed-locus Betti numbers, Borel cohomology,
singular cohomology with involution, forgetful images), classifies spaces
as Maximal / Galois-Maximal / neither, checks Poincare-duality symmetries,
and enumerates all decompositions consistent with topological constraints.
"""

from . import algebra, catalog, classification, exceptions, localization, solver
from .algebra import *
from .catalog import *
from .classification import *
from .exceptions import *
from .localization import *
from .solver import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (algebra, localization, classification, solver, catalog, exceptions)
    for name in module.__all__
]
