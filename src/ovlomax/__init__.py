"""Overlap coefficients of two inverse Lomax populations.

The package centres on a single reduction: when two inverse Lomax
populations share a scale parameter, each of the three classical overlap
coefficients (Matusita's similarity, Weitzman's common area, and the
symmetrized divergence transform) is a closed-form function of the shape
ratio alone.  Everything else builds on that: maximum likelihood,
ranked-set, and Jeffreys-prior shape estimators, second-order variance and
bias for the plugged-in coefficients, confidence intervals, and a
reproducible Monte Carlo study engine.

Formulas come in two selectable flavours, ``"derived"`` (internally
consistent, the default) and ``"as-published"`` (verbatim from the printed
source material, preserved for comparison).  See the README for where the
two differ.
"""

__version__ = "0.1.0"

from . import dist_core, estimators, overlap, reports, sampling, study
from .dist_core import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .overlap import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .study import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *dist_core.__all__,
    *overlap.__all__,
    *sampling.__all__,
    *estimators.__all__,
    *reports.__all__,
    *study.__all__,
]
