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
PEP 562).  So ``import perron`` compiles only core and errors, and a
process that imports a submodule itself, as each CLI command does,
compiles only that one.  A name is looked up in the three largest first,
each loaded until one declares it, and then bound here with the rest of
that module's names; __all__, dir() and a star import load all three.
"""

import importlib

from . import core, errors
from .core import *
from .errors import *

__version__ = "0.1.0"

# The modules loaded on first use, largest first: the largest compile then
# runs while the least else is in memory, which keeps the memory peak of a
# process that uses all three close to that of importing them eagerly
_LAZY = ("dimension", "coverings", "transforms")


def _load(module_name: str):
    """Import the submodule module_name and bind its public names here."""
    module = importlib.import_module(f"{__name__}.{module_name}")
    globals().update((name, getattr(module, name)) for name in module.__all__)
    return module


def __getattr__(name: str):
    if name == "__all__":
        modules = sorted(["core", "errors", *_LAZY])
        globals()[name] = [n for m in modules for n in _load(m).__all__] + ["__version__"]
        return globals()[name]
    if name in _LAZY:
        return _load(name)
    if not name.startswith("_"):  # no public name does
        for module_name in _LAZY:
            if name in _load(module_name).__all__:
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    for module_name in _LAZY:
        _load(module_name)
    return sorted(globals())
