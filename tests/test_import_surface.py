"""The cold-start import surface.

``python -m repro`` pays for every module it imports before it does
any work, so the CLI imports per command and the package ``__init__``
files resolve their re-exports lazily (:mod:`repro._lazy`).  Each check
runs in a fresh interpreter: ``sys.modules`` of the test process says
nothing about what a cold start loads.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
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
