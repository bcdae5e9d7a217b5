"""Self-test: two traced runs with the same seed give identical counters and digests.

    python3 benchmarks/selftest.py

Runs ``run.py --trace 1 --seconds 1 --seed 7`` twice per workload (one deck pass each)
and compares the counters that must repeat exactly (theta.lattice_points,
theta.evals, theta.usable_ratio, character.chi.calls) and the sha256 of every
``--no-timestamp`` CLI payload.  Exits 0 when they agree, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("exact-g3", "theta-g3", "cli-verify-g2")
SEED = 7


def traced_report(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=RUN.parent.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_report(workload, SEED) for _ in range(2))
        counters = first["detail"]["counters"], second["detail"]["counters"]
        digests = first.get("cli_digests", {}), second.get("cli_digests", {})
        agree = counters[0] == counters[1] and digests[0] == digests[1]
        if workload == "cli-verify-g2":
            agree &= bool(digests[0])
        ok &= agree
        print(f"{workload}: {'ok' if agree else 'MISMATCH'} counters={counters[0]} "
              f"digests={len(digests[0])}"
              + ("" if agree else f" second counters={counters[1]}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
