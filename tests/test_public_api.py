"""The library names that the benchmark, the README and the demos rely on stay public,
every demo still runs to completion, and importing the package stays light."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import siegelchi

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_names_are_exported():
    # The benchmark's workloads and the README's library tour, both as `sc.<name>`.
    for path in (ROOT / "benchmarks" / "workloads.py", ROOT / "README.md"):
        names = set(re.findall(r"\bsc\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
        assert "chi" in names and "verify_character" in names, path
        assert sorted(names - set(siegelchi.__all__)) == [], path
    # Every backticked `module._name` the README describes still exists.
    modules = {info.name for info in pkgutil.iter_modules(siegelchi.__path__)}
    spans = re.findall(r"`(\w+)\.(_\w+)", (ROOT / "README.md").read_text(encoding="utf-8"))
    named = [(module, name) for module, name in spans if module in modules]
    assert ("character", "_basis") in named
    assert [(module, name) for module, name in named if not hasattr(
        importlib.import_module(f"siegelchi.{module}"), name)] == []


def test_star_import_binds_no_module():
    # Importing the submodules binds them in the package; __all__ leaves them out.
    namespace = {}
    exec("from siegelchi import *", namespace)
    public = {name: value for name, value in namespace.items() if not name.startswith("__")}
    assert public.keys() == set(siegelchi.__all__)
    assert not [name for name, value in public.items() if isinstance(value, types.ModuleType)]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("module", ["siegelchi", "siegelchi.cli"])
def test_import_loads_no_heavy_modules(module):
    # scipy.special alone adds 130-170 ms to every CLI start-up, and the CLI
    # module is what every `siegelchi` command imports first.
    code = (f"import sys, {module}; "
            "print(sorted({'scipy', 'mpmath', 'sympy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_src_imports_only_the_standard_library_numpy_and_itself():
    # src/ depends on numpy alone (pyproject.toml): every import of every module
    # names the standard library, numpy, or siegelchi by a relative import.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted((ROOT / "src" / "siegelchi").glob("*.py"))
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                seen.add(name.split(".")[0])
                assert name.split(".")[0] in allowed, (path.name, name)
    assert len(paths) == len(list(pkgutil.iter_modules(siegelchi.__path__))) + 1
    assert {"numpy", "math"} <= seen


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
