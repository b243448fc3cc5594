"""Lazy package façades (PEP 562): a package imports only what is used.

A package ``__init__`` maps each public name to its defining module
instead of importing it::

    __getattr__, __dir__ = lazy_exports(__name__, __all__, {
        "repro.graph.graph": ("Graph",),
        "repro.graph.io": ("read_graph", "write_graph"),
    })

The first ``repro.graph.Graph`` (or ``from repro.graph import Graph``)
imports :mod:`repro.graph.graph` and binds the name in the package, so
every later lookup is a plain attribute read. A name the map does not
hold but that is a submodule (``repro.harness.datasets``) is imported as
one, as an eager ``__init__`` left it loaded. So ``import
repro.datagen.graph500`` loads Graph500 and what it imports, not the
rest of :mod:`repro.datagen`.

Inside ``src/repro`` modules import from the defining module, never
through a façade: the linter's resolver follows real imports, and a
process that forks preloads what its children run
(docs/architecture.md § What a process imports).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    public: Sequence[str],
    exports: Dict[str, Iterable[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of the façade ``package``.

    ``exports`` maps a defining module to the names the package takes
    from it; ``public`` is the package's ``__all__``, which ``dir()``
    lists whether or not a name has been loaded yet.
    """
    where = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        submodule = f"{package}.{name}"
        try:
            return importlib.import_module(submodule)
        except ModuleNotFoundError as error:
            if error.name != submodule:
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(public))

    return __getattr__, __dir__
