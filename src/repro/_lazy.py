"""Re-exports a package resolves on first use (PEP 562).

A package lists its public names by submodule; ``import repro.x`` then
loads no submodule, and ``repro.x.Name`` (or ``from repro.x import
Name``) imports the one submodule that defines ``Name`` the first time
it is read.  So a process loads only the code it runs: a server never
compiles the structural crossbar simulator behind ``repro.crossbar``.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair of ``package``, whose public
    names are ``exports``: relative submodule name -> names it defines."""
    namespace = sys.modules[package].__dict__
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value  # later reads skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
