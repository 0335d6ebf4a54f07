"""The cold-start import surface.

``python -m repro`` pays for every module it imports before it does
any work, so the CLI imports per command and the package ``__init__``
files resolve their re-exports lazily (:mod:`repro._lazy`).  Each check
runs in a fresh interpreter: ``sys.modules`` of the test process says
nothing about what a cold start loads.
"""

import ast
import functools
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
SRC = str(ROOT.parent)
PACKAGES = ["repro"] + sorted(f"repro.{info.name}" for info in
                              pkgutil.iter_modules(repro.__path__)
                              if info.ispkg)
# Names re-exported eagerly because they shadow their own submodule.
SHADOWING = {
    "repro.scenarios": ("build", "klagenfurt", "skopje"),
    "repro.probes": ("ping",),
    "repro.net": ("traceroute",),
}


def fresh(code: str):
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(statements: str, modules) -> list:
    return fresh(f"""
import json, sys
{statements}
print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))
""")


def test_cli_module_import_is_light():
    heavy = ["numpy", "networkx", "repro.scenarios", "repro.fleet",
             "repro.service", "repro.lint"]
    assert loaded_after("import repro.__main__", heavy) == []


def test_evaluate_loads_only_what_it_uses():
    unused = ["networkx", "repro.service", "repro.lint", "repro.net.dessim",
              "repro.sim.engine"]
    statements = """
import contextlib, io
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["evaluate"]) == 0
"""
    assert loaded_after(statements, unused) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    report = fresh(f"""
import importlib, json
package = importlib.import_module({package!r})
namespace = {{}}
exec("from {package} import *", namespace)
print(json.dumps({{
    "all": list(package.__all__),
    "missing": [n for n in package.__all__ if not hasattr(package, n)],
    "starred": sorted(n for n in namespace if not n.startswith("__")),
    "undir": sorted(set(package.__all__) - set(dir(package))),
}}))
""")
    assert report["missing"] == []
    assert report["starred"] == sorted(n for n in report["all"]
                                       if not n.startswith("__"))
    assert report["undir"] == []


def test_unknown_attribute_is_an_attribute_error():
    import repro.geo

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.geo.no_such_name
    assert not hasattr(repro.geo, "no_such_name")


def test_shadowing_names_survive_their_submodule_import():
    pairs = [(package, name) for package, names in SHADOWING.items()
             for name in names]
    imports = "\n".join(f"import {package}.{name}"
                        for package, name in pairs)
    kinds = fresh(f"""
import json, sys
{imports}
print(json.dumps([type(getattr(sys.modules[package], name)).__name__
                  for package, name in {pairs!r}]))
""")
    assert kinds == ["function"] * len(pairs)


# ---------------------------------------------------------------------------
# Every module is reached from the CLI, or kept on purpose
# ---------------------------------------------------------------------------

#: Modules no command imports, each kept for a stated reason.
KEPT_UNREACHED = {
    "repro.core.sensitivity":
        "a what-if study pinned by the golden study digests; its CLI "
        "command is an open item",
    "repro.net.dessim":
        "packet-level DES that cross-checks the analytic latency model",
    "repro.sim.engine": "the discrete-event simulator's kernel",
    "repro.sim.monitor": "the DES's sample statistics",
    "repro.sim.resources": "the DES's shared resources",
    "repro.testing": "fault schedules for the chaos suite",
    "repro.testing.faults": "fault schedules for the chaos suite",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in ROOT.rglob("*.py")}


@functools.cache
def _tree(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(encoding="utf-8"))


@functools.cache
def _lazy_homes(package: str) -> dict:
    """Name -> the submodule that provides it, from the package's
    ``lazy_exports`` table."""
    if package not in MODULES or MODULES[package].name != "__init__.py":
        return {}
    for node in ast.walk(_tree(package)):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "lazy_exports":
            return {name: package + submodule for submodule, names
                    in ast.literal_eval(node.args[1]).items()
                    for name in names}
    return {}


def _imported(module: str):
    """Every dotted name an ``import`` in ``module`` may load, function
    bodies included."""
    package = module if MODULES[module].name == "__init__.py" \
        else module.rpartition(".")[0]
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            homes = _lazy_homes(base)
            for alias in node.names:
                yield homes.get(alias.name, f"{base}.{alias.name}")


def _reachable(root: str) -> set:
    seen, todo = set(), [root]
    while todo:
        parts = todo.pop().split(".")
        # Importing a module runs every package __init__ above it.
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in MODULES and name not in seen:
                seen.add(name)
                todo.extend(_imported(name))
    return seen


def test_every_module_is_reached_from_the_cli_or_kept_on_purpose():
    reached = _reachable("repro.__main__")
    assert sorted(set(MODULES) - reached - set(KEPT_UNREACHED)) == []
    # A kept module that a command now imports leaves the list.
    assert sorted(set(KEPT_UNREACHED) & reached) == []
