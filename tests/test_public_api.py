"""The library names that the benchmark, the README and the demos rely on stay public,
every demo still runs to completion, and importing the package stays light."""

import os
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


def test_import_loads_no_heavy_modules():
    # scipy.special alone adds 130-170 ms to every CLI start-up.
    code = ("import sys, siegelchi; "
            "print(sorted({'scipy', 'mpmath', 'sympy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
