"""Dynamic graph coloring toolkit.

A dynamic coloring is a proper vertex coloring in which every vertex with
at least two neighbors sees at least two distinct colors among them.  The
package provides generators and checkers for the objects involved, exact
solvers that serve as ground truth at small scale, resampling routines
that build the structures whose existence the probabilistic conditions
guarantee, and compositions that turn those structures into certified
colorings.
"""

# Each module's __all__ is the one list of its public names.
from .constructions import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .formats import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .lll import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
