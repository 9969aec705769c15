"""Jump times, their compensators, and the Cox construction.

The central fact exercised by this package: if tau is a finite jump time
whose indicator 1_{t >= tau} has continuous compensator A, then A(tau) is a
unit exponential random variable.  The modules provide compensator forms and
generalized inverses, a catalog of jump-time models, the Cox construction,
announcing sequences for predictable times, and a Monte Carlo verification
engine behind the ``jumptime`` command-line tool.

The package exports each module's ``__all__``: a public name is declared
once, in the module that defines it.
"""

from . import compensators, core, cox, predictable, processes, verify
from .compensators import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .cox import *  # noqa: F401,F403
from .predictable import *  # noqa: F401,F403
from .processes import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        *compensators.__all__,
        *core.__all__,
        *cox.__all__,
        *predictable.__all__,
        *processes.__all__,
        *verify.__all__,
    }
)
