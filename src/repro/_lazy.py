"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from its submodules eagerly makes every
importer pay for all of them.  A spawned worker imports ``repro`` and
``repro.runner`` on its way to :mod:`repro.runner.worker`; eager, that
alone loaded the journal, lease and batch modules, the
crash-consistency sanitizer (and with it ``asyncio``) and the cache
codec and store — none of which an encode runs.  Every worker compiles
what it imports from source when no bytecode cache is written, so the
cost is paid once per process.

:func:`lazy_exports` builds the module ``__getattr__`` that imports a
re-exported name on first access and caches it in the package
namespace, so the second access is a plain global lookup, and the
module ``__dir__`` that lists the names before they are resolved.  The names
are mirrored under ``if TYPE_CHECKING:`` in the package so static
checkers still see their types::

    if TYPE_CHECKING:
        from repro.runner.batch import BatchRunner

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.runner.batch": ("BatchRunner",),
    })
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Sequence, Tuple


def lazy_exports(namespace: MutableMapping[str, Any],
                 exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for a package
    re-exporting *exports*.

    *namespace* is the package's ``globals()``; *exports* maps each
    defining module to the names taken from it.

    A name that is also the name of its defining submodule (the
    ``out_encoder`` function of ``repro.encoding.out_encoder``) is
    resolved right away: once anything imports that submodule, the
    import system binds the module object to the package attribute and
    ``__getattr__`` would never run for it again.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__
