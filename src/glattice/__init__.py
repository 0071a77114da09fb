"""H^1 of finite group actions on integer lattices.

Exact integer linear algebra (Hermite/Smith forms, kernels, subquotients),
group cohomology of G-lattices, and the del Pezzo / conic-bundle actions
whose first cohomology detects obstructions to stable linearization.
"""

from . import cohomology, intlinalg, picard
from .cohomology import *
from .intlinalg import *
from .picard import *

__all__ = intlinalg.__all__ + cohomology.__all__ + picard.__all__
