"""The benchmark's own trial and check code passes on this library, seed 7:
the first exact-g3 deck positions, the theta-g3 warm-up and costliest
positions and one in-process cli-verify-g2 run.  benchmarks/workloads.py is only read; no
bytecode is written next to it."""

import importlib.util
import sys
from pathlib import Path

import pytest

from siegelchi import theta

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    yield module
    del sys.modules[spec.name]


def test_exact_g3_first_positions(workloads):
    wl = workloads.ExactG3()
    for pos in wl.build(SEED)[:8]:
        assert wl.check(pos, wl.trial(pos, workloads.NO_TRACE)) is None


def test_theta_g3_warm_up_position(workloads):
    wl = workloads.ThetaG3()
    pos = wl.warm_up_position()
    assert wl.check(pos, wl.trial(pos, workloads.NO_TRACE)) is None


def test_theta_g3_costliest_position(workloads, monkeypatch):
    # The deck's heaviest sweep by the workload's own cost proxy; its lattice
    # sums run over more than one block.
    wl = workloads.ThetaG3()
    pos = max(wl.build(SEED), key=lambda p: workloads._cost_proxy(p.matrix, p.point.tau))
    calls = []
    enumerate_ = theta._half_lattice

    def recording(*args):
        calls.append(list(enumerate_(*args)))
        return calls[-1]

    monkeypatch.setattr(theta, "_half_lattice", recording)
    assert wl.check(pos, wl.trial(pos, workloads.NO_TRACE)) is None
    assert max(len(blocks) for blocks in calls) > 1


def test_cli_verify_g2_in_process(workloads):
    wl = workloads.CliVerifyG2(str(ROOT), {})
    pos = wl.build(SEED)[0]
    code, stdout = wl.main_in_process(pos, workloads.NO_TRACE)
    assert code == 0
    assert wl.check(pos, workloads.CliResult(code, stdout, b"", 0)) is None
