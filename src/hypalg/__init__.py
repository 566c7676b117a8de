"""Exact calculus of labeled uniform hypergraph classes: a quotient algebra
of formal combinations, downward set functors with upward template
transformations, gadget subdivisions with their preimage-sum operators, host
densities, and a scripted verification harness for the identity chains the
constructions satisfy.

Everything is exact rational arithmetic; nothing floats except the final
decimal rendering in the CLI.
"""

from .errors import *
from .graphs import *
from .algebra import *
from .functors import *
from .constructions import *
from .densities import *
from .harness import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + graphs.__all__
    + algebra.__all__
    + functors.__all__
    + constructions.__all__
    + densities.__all__
    + harness.__all__
)
