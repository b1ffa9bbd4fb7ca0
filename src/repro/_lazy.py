"""Lazy package exports (PEP 562).

Every ``repro`` package re-exports its public names without importing the
modules that define them: a name is imported on first attribute access and
then cached in the package namespace.  A process therefore pays only for
the modules it reads -- a read process loading a snapshot never imports the
HTTP front-end, streaming or the mobility generators -- while
``from repro import TraceQueryEngine``, ``from repro import *`` and
``dir(repro)`` keep working.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it; a name equal to the module's own last component
    (``{"repro.experiments.figures": ["figures"]}``) exports the submodule.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        imported = importlib.import_module(module)
        value = imported if module == f"{package}.{name}" else getattr(imported, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return sorted(owner), __getattr__, __dir__
