"""Lazy package re-exports (PEP 562).

A package lists the names it re-exports per submodule; each submodule is
imported the first time one of its names is read, and the value is then
cached in the package namespace.  ``import repro.sim.runtime`` therefore
does not pay for the service, the soak harness or :mod:`asyncio` just
because :mod:`repro` and :mod:`repro.harness` re-export them::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".runners": ("run_leader_election", "run_sifting_phase"),
        ".soak": ("run_soak",),
    })
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module, relative to ``package``, to the names it
    provides.  Assign the three results at the package's top level.

    A name exported by the submodule of the same name (``explore`` from
    ``.explore``) is bound at once: importing a submodule binds it on its
    package under its own name, which would hide the lazy export.
    """
    namespace = vars(sys.modules[package])
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    for name, module in home.items():
        if module == f".{name}":
            __getattr__(name)
    return list(home), __getattr__, __dir__
