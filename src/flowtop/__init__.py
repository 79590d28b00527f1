"""Homology of sphere expressions and combinatorial flow validation.

The package has two halves that check each other.  The closed-form half
computes graded integer homology and Poincare polynomials for manifolds
written as sphere atoms, products and connected sums, and validates count
data of gradient-like flows without heteroclinic intersections (genus
formula with its count laws, middle-index exclusion, Morse inequalities,
Euler characteristic and, when given, saddle-to-node connections).  The
simplicial half triangulates the same manifolds and recomputes homology
from integer boundary matrices via Smith normal form, providing an
independent verification path.

Each module's ``__all__`` is its public surface, and the package exports
their union.
"""

from . import expressions, flows, homology, simplicial, snf

__version__ = "0.1.0"

# Read before the star imports: afterwards the name homology is the function.
__all__ = sorted({*expressions.__all__, *flows.__all__, *homology.__all__,
                  *simplicial.__all__, *snf.__all__})

from .expressions import *  # noqa: E402, F401, F403
from .flows import *  # noqa: E402, F401, F403
from .homology import *  # noqa: E402, F401, F403
from .simplicial import *  # noqa: E402, F401, F403
from .snf import *  # noqa: E402, F401, F403
