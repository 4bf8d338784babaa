"""Exact-arithmetic toolkit for generalized Perron expansions.

Positive and alternating digit expansions under pluggable digit rules
(Luroth, Engel, modified Engel, Pierce, affine Oppenheim, custom), exact
cylinder geometry, constructive interval covers by unions of consecutive
cylinders with certified cardinality and diameter bounds, digit
transformations between the systems, and rank-k Hausdorff-dimension
estimation via pressure-equation roots.

The public names are those of each module's __all__, plus __version__.
"""

from . import core, coverings, dimension, errors, transforms
from .core import *
from .coverings import *
from .dimension import *
from .errors import *
from .transforms import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *coverings.__all__,
    *dimension.__all__,
    *errors.__all__,
    *transforms.__all__,
    "__version__",
]
