"""Exact-arithmetic toolkit for generalized Perron expansions.

Positive and alternating digit expansions under pluggable digit rules
(Luroth, Engel, modified Engel, Pierce, affine Oppenheim, custom), exact
cylinder geometry, constructive interval covers by unions of consecutive
cylinders with certified cardinality and diameter bounds, digit
transformations between the systems, and rank-k Hausdorff-dimension
estimation via pressure-equation roots.

The public names are those of each module's __all__, plus __version__.
core and errors load with the package; coverings, dimension and
transforms load on first use of one of their names (a module __getattr__,
PEP 562).  Their public names are declared once, here in _LAZY, and each
of those modules reads its own list back as its __all__, so a name loads
only the module that declares it, and is then bound here with the rest of
that module's names.  So ``import perron`` compiles only core and errors,
and a process that imports a submodule itself, as each CLI command does,
compiles only that one.  __all__ and dir() list every public name without
loading anything; a star import loads all three.
"""

import importlib

from . import core, errors
from .core import *
from .errors import *

__version__ = "0.1.0"

# The public names of each module loaded on first use
_LAZY = {
    "coverings": ["FamilySet", "QInterval", "BoundaryCover", "CoverReport", "FROM_INF", "TO_SUP",
                  "family_set_hull", "cover_boundary", "cover_interval", "split_to_finite",
                  "split_parameters", "verify_cover"],
    "dimension": ["DigitPredicate", "DimensionEstimate", "all_digits", "alphabet_restrict",
                  "bounded_ratio", "growth_floor", "ratio_limit_window",
                  "enumerate_compatible_bases", "pressure_root", "moran_dimension",
                  "measure_at_rank"],
    "transforms": ["TransformKind", "transform_digits", "transform_point", "t_ratio"],
}
__all__ = [*core.__all__, *errors.__all__, *sum(_LAZY.values(), []), "__version__"]


def _load(module_name: str):
    """Import the submodule module_name and bind its public names here."""
    module = importlib.import_module(f"{__name__}.{module_name}")
    globals().update((name, getattr(module, name)) for name in module.__all__)
    return module


def __getattr__(name: str):
    if name in _LAZY:
        return _load(name)
    for module_name, names in _LAZY.items():
        if name in names:
            _load(module_name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
