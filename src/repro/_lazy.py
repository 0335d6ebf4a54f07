"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists where each public name lives and binds
the returned pair as its module ``__getattr__`` / ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".coords": ("GeoPoint", "haversine"),
        ".grid": ("CellId", "Grid"),
    })

The submodule is imported on the first access to one of its names and
the value is cached in the package namespace, so later lookups are
plain attribute reads.  A name that shadows its own submodule (say
``build`` in a package with a ``build.py``) must stay an eager import:
importing the submodule later would rebind the package attribute to
the module object.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` resolving ``exports``
    (relative submodule -> the names it provides) on first access."""
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
