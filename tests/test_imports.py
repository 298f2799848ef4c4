"""Import hygiene, checked in fresh interpreters.

Every worker the batch runner or the encode service spawns starts a new
interpreter and compiles what it imports, so the modules an import
pulls in are a cost paid once per process.  Package ``__init__`` modules
that sit on the worker's path re-export lazily (:mod:`repro._lazy`);
these tests pin the properties that relies on:

* each entry module imports on its own, whatever else is loaded (an
  import cycle hidden by the order the eager package imports used to
  run in surfaces here);
* the worker and the CLI load none of the modules their work does not
  run — named modules, not timings;
* every re-exported name is listed by ``dir()`` and is the defining
  module's object, never the same-named submodule, also when that
  submodule was imported first;
* ``import repro`` loads only the standard library and the package's
  stdlib-only helpers, among them :mod:`repro._codemap`, which a
  spawned worker loads before its parent's compiled code arrives.

Each check runs in a subprocess because ``sys.modules`` of the test
process already holds most of the package.
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path
import subprocess
import sys
from typing import Dict, List

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str, *args: str) -> str:
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ENTRY_MODULES = (
    "repro",
    "repro.api",
    "repro.cli",
    "repro.runner.worker",
    "repro.eval.tables",
    "repro.eval.instantiate",
    "repro.encoding.nova",
    "repro.server.app",
)


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_imports_alone(module):
    _run_python(f"import {module}")


#: Modules an ihybrid encode with the cache off never runs.
WORKER_NEVER_IMPORTS = (
    "asyncio",
    "repro.runner.batch",
    "repro.runner.journal",
    "repro.runner.lease",
    "repro.testing.sanitize",
    "repro.cache.store",
    "repro.cache.codec",
    "repro.server",
    "repro.bench",
)

_WORKER_SCRIPT = """
import json, sys
from repro.runner.worker import execute
outcome = execute({"task": "lion", "machine": "lion",
                   "algorithm": "ihybrid", "options": {"cache": "off"}})
print(json.dumps({"status": outcome["status"],
                  "loaded": [m for m in sys.argv[1:] if m in sys.modules]}))
"""


def test_worker_encode_imports_only_what_it_runs():
    out = json.loads(_run_python(_WORKER_SCRIPT, *WORKER_NEVER_IMPORTS))
    assert out["status"] == "ok"
    assert out["loaded"] == []


_CLI_HELP_SCRIPT = """
import runpy, sys
sys.argv = ["nova", "--help"]
try:
    runpy.run_module("repro.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print([m for m in ("repro.eval.tables", "repro.server", "repro.bench")
       if m in sys.modules])
"""


def test_cli_help_skips_subcommand_machinery():
    out = _run_python(_CLI_HELP_SCRIPT)
    assert out.splitlines()[-1] == "[]"


def test_cli_import_leaves_the_pipeline_to_the_worker():
    """A spawned worker re-imports the parent's main module, under
    ``nova`` this one, before its code finder exists: what that loads
    is compiled in every worker and never shipped to it."""
    out = _run_python("import sys, repro.cli\n"
                      "print(sorted(m for m in sys.modules"
                      " if m.startswith('repro')))")
    assert ast.literal_eval(out.splitlines()[-1]) == [
        "repro", "repro._codemap", "repro._lazy", "repro._version",
        "repro.cli", "repro.errors"]


#: What ``import repro`` loads: a spawned worker loads these before its
#: parent's map of compiled code arrives (:mod:`repro._codemap`).
REPRO_BOOT = ["repro", "repro._codemap", "repro._lazy", "repro._version"]

_BOOT_SCRIPT = """
import json, sys
before = set(sys.modules)
import repro
print(json.dumps({"repro": sorted(m for m in sys.modules
                                  if m.partition(".")[0] == "repro"),
                  "new": sorted(set(sys.modules) - before)}))
"""


def _top_level_imports(path: Path) -> List[str]:
    """The top-level package of every module that *path* imports at
    its own top level."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.append(node.module or "")
    return [name.partition(".")[0] for name in names]


def test_repro_import_loads_only_the_stdlib_boot_modules():
    """The worker's spawn target lives in :mod:`repro._codemap`: what
    ``import repro`` loads compiles in every worker before the map of
    compiled code that module hands over is in place, so it is the
    package's three helpers and the standard library, nothing else."""
    out = json.loads(_run_python(_BOOT_SCRIPT).splitlines()[-1])
    assert out["repro"] == REPRO_BOOT
    stdlib = set(sys.stdlib_module_names)
    assert [m for m in out["new"]
            if m.partition(".")[0] not in stdlib | {"repro"}] == []
    imported = _top_level_imports(SRC / "repro" / "_codemap.py")
    assert imported and set(imported) <= stdlib


def _reexporting_packages() -> List:
    """(dotted name, ``__init__`` path) of each package with ``__all__``,
    plus the :mod:`repro.api` facade."""
    found = [pytest.param("repro.api", SRC / "repro" / "api.py",
                          id="repro.api")]
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        if "__all__" in init.read_text():
            dotted = ".".join(init.parent.relative_to(SRC).parts)
            found.append(pytest.param(dotted, init, id=dotted))
    return found


def _sources(path: Path) -> Dict[str, str]:
    """Each name *path* imports, anywhere in the module (``if
    TYPE_CHECKING:`` mirrors included), mapped to its defining module;
    names the module defines itself map to the empty string."""
    where: Dict[str, str] = {}
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                where[alias.asname or alias.name] = node.module or ""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where[node.name] = ""
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    where[target.id] = ""
    return where


_REEXPORT_SCRIPT = """
import importlib, json, sys, types
package, where, first = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
for name in first:
    importlib.import_module(name)
pkg = importlib.import_module(package)
wrong = sorted(set(pkg.__all__) - set(dir(pkg)))
for name in pkg.__all__:
    value = getattr(pkg, name)
    if isinstance(value, types.ModuleType):
        wrong.append(name)
    elif where[name] and value is not getattr(
            importlib.import_module(where[name]), name):
        wrong.append(name)
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("package,path", _reexporting_packages())
def test_reexports_are_the_defining_objects(package, path):
    all_names = ast.literal_eval(next(
        node.value for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)))
    where = _sources(path)
    missing = [name for name in all_names if name not in where]
    assert missing == [], (
        f"{package}.__all__ names neither imported (a lazy package "
        f"mirrors them under TYPE_CHECKING) nor defined: {missing}")
    exported = {name: where[name] for name in all_names}
    # a name that is also a submodule of the package: importing that
    # submodule first binds the module object to the package attribute
    colliding = [f"{package}.{name}" for name in all_names
                 if (path.parent / f"{name}.py").is_file()
                 and path.name == "__init__.py"]
    variants = [[]] + ([colliding] if colliding else [])
    for first in variants:
        wrong = json.loads(_run_python(
            _REEXPORT_SCRIPT, package, json.dumps(exported), *first))
        assert wrong == [], (package, first)
