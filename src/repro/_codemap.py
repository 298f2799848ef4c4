"""Compiled code of the ``repro`` modules, kept per process and handed
to every spawned worker.

Under ``PYTHONDONTWRITEBYTECODE`` no ``.pyc`` is ever written, so each
process compiles every module it imports from source, and a spawned
worker would compile again the ~40 modules of the encode pipeline that
its parent has compiled already: on a 2-vCPU host a worker's first lion
attempt took 0.09-0.14 s when it compiled them, 0.03-0.04 s when it was
handed their code.  So every process keeps that code.  :data:`MAP`,
put first on ``sys.meta_path`` by ``repro/__init__.py``, loads every
``repro.*`` module of the process and keeps its code under the module's
source path, with the source's ``importlib.util.source_hash``.
:class:`repro.runner.worker.Worker` passes the map in the ``Process``
args of every worker it starts, and the worker's entry
:func:`spawn_main` puts it in place before it imports
:mod:`repro.runner.worker`, so that module's own imports are served
too.  What a worker loads beyond the map rides back on its next
outcome (:meth:`CodeMap.take_learned`) and goes into the parent's map
(:meth:`CodeMap.update`); the latest entry wins, so a worker that
compiled a changed source replaces the parent's stale entry.

The rules:

* ``repro.*`` only: the normal :class:`PathFinder` locates the module,
  so paths and ``sys.path`` rules do not change, and a module that is
  not a source file is left to the normal path;
* code is served only while ``source_hash`` of the source on disk
  matches the entry's (the checked hash-pyc rule); otherwise the module
  loads as usual, from a valid ``.pyc`` or from its source;
* the marshal format is the interpreter's own, which holds because
  spawn starts the parent's executable;
* nothing is written to disk.

A process keeps code objects and marshals them at its first worker
start (:meth:`CodeMap.shipped`), so one that never starts a worker pays
one source hash per module it loads.

A worker still compiles what it imports before the map arrives: the
four modules of ``import repro`` (``repro``, this module,
``repro._lazy`` and ``repro._version``, all loaded before
:func:`install`, so no process keeps their code), and the parent's
main module re-imported as ``__mp_main__`` (under ``nova``,
:mod:`repro.cli` with :mod:`repro.errors`).  :attr:`CodeMap.compiled`
counts every module the process compiled but those four, a fixed cost
of each start, and a worker reports it as ``modules_compiled``.  This
module imports only the standard library (``tests/test_imports.py``
pins that).
"""

from __future__ import annotations

from importlib.machinery import PathFinder, SourceFileLoader
from importlib.util import source_hash
import marshal
import sys
import threading
from types import CodeType
from typing import Dict, Optional, Set, Tuple, Union

#: A map entry: (``source_hash`` of the source, code object or
#: marshalled code).
Entry = Tuple[bytes, Union[CodeType, bytes]]


class _CodeLoader(SourceFileLoader):
    """A source loader that serves the map's code while its source hash
    matches, and otherwise loads as usual and puts the result in the
    map."""

    def __init__(self, fullname: str, path: str,
                 codemap: "CodeMap") -> None:
        super().__init__(fullname, path)
        self.codemap = codemap
        self._compiled: Optional[bytes] = None  # source_to_code's input

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        source = self.get_data(path)
        digest = source_hash(source)
        entry = self.codemap.code.get(path)
        if entry is not None and entry[0] == digest:
            code = entry[1]
            return marshal.loads(code) if isinstance(code, bytes) else code
        self._compiled = None
        code = super().get_code(fullname)  # a valid .pyc, else source
        # the entry's hash is that of the bytes the code came from: the
        # ones compiled, or the source a .pyc was valid for if it did
        # not change meanwhile
        data = self._compiled
        if data is None and self.get_data(path) == source:
            data = source
        if data is not None:
            self.codemap.learn(
                path, digest if data == source else source_hash(data), code,
                compiled=self._compiled is not None)
        return code

    def source_to_code(  # type: ignore[override, misc]
            self, data, path="<string>", *, _optimize=-1):
        self._compiled = data
        return super().source_to_code(data, path, _optimize=_optimize)


class CodeMap:
    """Meta-path finder for ``repro.*`` and the map of the code it
    loaded: source path -> :data:`Entry`.  Every other import, and any
    ``repro`` module that is not a source file, is left to the normal
    path."""

    def __init__(self, code: Optional[Dict[str, Entry]] = None) -> None:
        self.code: Dict[str, Entry] = dict(code or {})
        #: paths whose entry this process made and has not handed back
        self.learned: Set[str] = set()
        #: modules this process compiled from source through the map
        self.compiled = 0
        self._lock = threading.Lock()

    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] != "repro":
            return None
        spec = PathFinder.find_spec(fullname, path, target)
        if spec is None or type(spec.loader) is not SourceFileLoader:
            return None
        spec.loader = _CodeLoader(fullname, spec.origin, self)
        return spec

    def learn(self, path: str, digest: bytes, code: CodeType,
              compiled: bool) -> None:
        """Keep the code this process loaded from *path*, *compiled*
        from its source or read from a ``.pyc``."""
        with self._lock:
            self.code[path] = (digest, code)
            self.learned.add(path)
            self.compiled += compiled

    def update(self, entries: Dict[str, Tuple[bytes, bytes]]) -> None:
        """Take a worker's :meth:`take_learned` entries; each replaces
        the entry it names."""
        with self._lock:
            self.code.update(entries)

    def load(self, shipped: Dict[str, Tuple[bytes, bytes]]) -> None:
        """Put a parent's :meth:`shipped` map in place.  What this
        process loaded before it came stays; the parent is not sent
        back an entry it has under the same hash."""
        with self._lock:
            for path, entry in shipped.items():
                mine = self.code.setdefault(path, entry)
                if mine is not entry and mine[0] == entry[0]:
                    self.learned.discard(path)

    def _marshalled(self, path: str) -> Tuple[bytes, bytes]:
        digest, code = self.code[path]
        if not isinstance(code, bytes):
            code = marshal.dumps(code)
            self.code[path] = (digest, code)
        return digest, code

    def shipped(self) -> Dict[str, Tuple[bytes, bytes]]:
        """The whole map, marshalled, for a new worker's args."""
        with self._lock:
            return {path: self._marshalled(path)
                    for path in list(self.code)}

    def take_learned(self) -> Dict[str, Tuple[bytes, bytes]]:
        """The entries this process made since the last call,
        marshalled, for its parent."""
        with self._lock:
            paths, self.learned = self.learned, set()
            return {path: self._marshalled(path) for path in paths}


#: The map of this process, first on ``sys.meta_path`` from
#: :func:`install` on.
MAP = CodeMap()


def install() -> None:
    """Put :data:`MAP` first on ``sys.meta_path``, once per process."""
    if MAP not in sys.meta_path:
        sys.meta_path.insert(0, MAP)


def spawn_main(conn, shipped: Dict[str, Tuple[bytes, bytes]]) -> None:
    """Worker-process entry: put the parent's map in place, then run
    :func:`repro.runner.worker.child_main` on *conn*."""
    MAP.load(shipped)
    from repro.runner.worker import child_main

    child_main(conn)
