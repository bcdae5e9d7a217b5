"""Benchmark for siegelchi: one closed-loop client, three workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload exact-g3 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The second-to-last stdout line is a JSON
report (environment, every metric with its unit, sample counts, failures,
counters and CLI digests); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  The same report, plus the
spans of a traced run, is written to benchmarks/results/.  The exit code is
0 when every trial's output was right, 1 when any trial failed, 2 when the
benchmark cannot run (for example, no siegelchi source next to it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
WORKLOADS = ("exact-g3", "theta-g3", "cli-verify-g2")
SETUP_PROBES = 5
HARD_CAP_S = 150.0          # stop a run even if one deck pass is not complete
TAIL_BEYOND = 10            # trial_tail_ms is the median of this many slowest positions
CAL_SHARE = 0.1             # calibration time after a trial, as a share of the trial
CAL_SETUP_SHARE = 0.5       # the same after a set-up probe, which is short
CAL_REF_S = 0.003           # the calibration kernel's time on the reference machine
# exact-g3 has no rounding error, so dev_margin_digits does not apply to it.
# The summary line must still carry every end-to-end metric: there it holds
# the margin at the binary64 unit roundoff, a fixed placeholder, and the
# report marks the metric as not applicable.
EXACT_FLOOR = 2.0 ** -53

# Per-layer metrics: (name, unit, end-to-end metric it should move, workloads).
LAYER_METRICS = [
    ("symplectic.word_to_matrix.calls", "count", "trial_p50_ms", "exact-g3, cli-verify-g2"),
    ("symplectic.word_to_matrix.busy_ms", "ms", "trial_p50_ms", "exact-g3, cli-verify-g2"),
    ("symplectic.multiply.busy_ms", "ms", "trial_p50_ms", "exact-g3"),
    ("symplectic.membership.busy_ms", "ms", "trial_p50_ms", "exact-g3"),
    ("symplectic.sample.busy_ms", "ms", "trial_p50_ms", "cli-verify-g2"),
    ("characteristics.act.calls", "count", "trial_p50_ms", "exact-g3"),
    ("characteristics.act.busy_ms", "ms", "trial_p50_ms", "exact-g3"),
    ("character.chi.calls", "count", "trial_p50_ms, trials_per_s", "exact-g3, cli-verify-g2"),
    ("character.chi.busy_ms", "ms", "trial_p50_ms, trials_per_s", "exact-g3, cli-verify-g2"),
    ("character.extract.busy_ms", "ms", "trial_p50_ms", "exact-g3"),
    ("character.constancy.busy_ms", "ms", "trial_p50_ms", "exact-g3"),
    ("character.phase.busy_ms", "ms", "trial_p50_ms", "exact-g3"),
    ("theta.verify.calls", "count", "trial_tail_ms, trials_per_s", "theta-g3, cli-verify-g2"),
    ("theta.verify.busy_ms", "ms", "trial_tail_ms, trials_per_s", "theta-g3, cli-verify-g2"),
    ("theta.evals", "count", "trials_per_s", "theta-g3"),
    ("theta.lattice_points", "count", "trial_tail_ms, peak_rss_mb", "theta-g3"),
    ("theta.points_per_s", "1/s", "trial_p50_ms", "theta-g3"),
    ("theta.usable_ratio", "ratio", "dev_margin_digits, failed_frac", "theta-g3"),
    ("cli.process_ms", "ms", "setup_s, trial_p50_ms", "cli-verify-g2"),
    ("cli.main_ms", "ms", "setup_s, trial_p50_ms", "cli-verify-g2"),
    ("cli.startup_ms", "ms", "setup_s, trial_p50_ms", "cli-verify-g2"),
    ("cli.self_ms", "ms", "trial_p50_ms", "cli-verify-g2"),
    ("cli.output_bytes", "bytes", "trial_p50_ms", "cli-verify-g2"),
    ("trace.overhead_ms", "ms", "(tracing cost; none)", "all"),
    ("trace.overhead_pct", "%", "(tracing cost; none)", "all"),
]

END_TO_END_UNITS = {"setup_s": "s", "trial_p50_ms": "ms", "trial_tail_ms": "ms",
                    "trials_per_s": "1/s", "peak_rss_mb": "MB",
                    "dev_margin_digits": "digits"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SIEGEL_CHAR_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def make_workload(name: str):
    import workloads
    if name == "exact-g3":
        return workloads.ExactG3()
    if name == "theta-g3":
        return workloads.ThetaG3()
    return workloads.CliVerifyG2(str(ROOT), child_env())


def set_up(args):
    """Everything between a fresh interpreter and the first timed trial."""
    import workloads
    wl = make_workload(args.workload)
    deck = wl.build(args.seed)
    pos = wl.warm_up_position()
    error = wl.check(pos, wl.trial(pos, workloads.NO_TRACE))
    if error is not None:
        raise RuntimeError(f"warm-up trial failed: {error}")
    return wl, deck


class Calibration:
    """Fixed reference work, run between trials to track the machine's speed.

    On a shared machine the throughput of the same code drifts by a quarter
    or more over tens of seconds, as other tenants come and go.  The kernel
    mixes interpreter-bound integer and dict work with a vectorised numpy
    exp-sum, like the library's exact and numeric halves.  Run interleaved
    with the trials, its mean time tracks the drift closely, so every timing
    is reported at reference speed: raw time * CAL_REF_S / mean kernel time.
    The kernel is the benchmark's own code, so no library change moves it.
    """

    def __init__(self):
        self._z = np.linspace(0.0, 1.0, 50_000)
        self.seconds = 0.0
        self.count = 0

    def _kernel(self):
        acc = 0
        for i in range(4000):
            acc = (acc * 31 + i) % 1_000_003
        table = {(i, i % 7): [i, str(i)] for i in range(1500)}
        total = complex(np.exp(1j * np.pi * self._z * self._z).sum())
        return acc, len(table), total

    def run(self, seconds: float):
        for _ in range(max(1, round(seconds / CAL_REF_S))):
            start = time.perf_counter()
            self._kernel()
            self.seconds += time.perf_counter() - start
            self.count += 1

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference time; above 1 means slower."""
        return self.seconds / self.count / CAL_REF_S


def measure_setup(args, cal: Calibration) -> list:
    """Wall seconds from spawning a fresh interpreter until it is ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=child_env()) as proc:
            ready = None
            for line in proc.stdout:
                if line.strip() == b"ready":
                    ready = time.perf_counter() - start
                    break
            rest = proc.stdout.read()
            code = proc.wait()
        if ready is None or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): "
                               f"{rest.decode(errors='replace')[-500:]}")
        times.append(ready)
        cal.run(CAL_SETUP_SHARE * ready)
    return times


def run_loop(wl, deck, seconds: float, traced: bool, cal: Calibration) -> dict:
    """Closed loop over the deck: at least one full pass, then until `seconds`.

    Calibration work follows every trial, CAL_SHARE of its duration.
    """
    import workloads
    tracer = workloads.Tracer() if traced else None
    times = [[] for _ in deck]
    pairs = []                  # traced runs: (untraced s, traced s) per trial
    extra = {"main_s": [], "output_bytes": [], "lattice_points": 0}
    deviations = [None] * len(deck)     # worst max_deviation seen at each position
    failures = []
    attempted = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (attempted >= len(deck) and elapsed >= seconds) or elapsed >= HARD_CAP_S:
            break
        index = attempted % len(deck)
        pos = deck[index]
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.trial(pos, workloads.NO_TRACE)
            dt = time.perf_counter() - t0
            error = wl.check(pos, out)
            if error is None:
                times[index].append(dt)
                deviation = wl.deviation(out)
                if deviation is not None:
                    deviations[index] = max(deviations[index] or 0.0, deviation)
                if traced:
                    tracer.trial = attempted - 1
                    pairs.append(traced_trial(wl, pos, out, dt, tracer, extra))
        except Exception as exc:  # a crashing trial is a failed trial, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        cal.run(CAL_SHARE * (time.perf_counter() - t0))
        if error is not None:
            failures.append({"trial": attempted - 1, "position": index, "error": error})
    return {"times": times, "failures": failures, "attempted": attempted,
            "deviations": deviations, "elapsed_s": time.perf_counter() - start,
            "tracer": tracer, "pairs": pairs, "extra": extra}


def traced_trial(wl, pos, out, dt, tracer, extra) -> tuple:
    """Traced repeat of one trial; returns (untraced s, traced s) for overhead.

    For the CLI workload the layers run in another process, so the traced
    repeat is cli.main(argv) in this process, compared with an untraced
    in-process call; both must print exactly what the subprocess printed.
    """
    import workloads
    if isinstance(wl, workloads.CliVerifyG2):
        t0 = time.perf_counter()
        code, text = wl.main_in_process(pos, workloads.NO_TRACE)
        untraced = time.perf_counter() - t0
        t0 = time.perf_counter()
        code_traced, text_traced = wl.main_in_process(pos, tracer)
        traced = time.perf_counter() - t0
        if not (code == code_traced == 0 and text == text_traced == out.stdout):
            raise RuntimeError("in-process cli.main output differs from the subprocess")
        extra["main_s"].append(untraced)
        extra["output_bytes"].append(len(text))
        return untraced, traced
    t0 = time.perf_counter()
    out_traced = wl.trial(pos, tracer)
    traced = time.perf_counter() - t0
    error = wl.check(pos, out_traced)
    if error is not None:
        raise RuntimeError(f"traced repeat: {error}")
    if hasattr(wl, "counts"):
        counts = wl.counts(pos, out_traced)
        extra["lattice_points"] += counts["lattice_points"]
    return dt, traced


def tail(values: list) -> tuple:
    """(value, cut percentile) of the tail: the median of the TAIL_BEYOND
    slowest samples, which lie beyond the highest percentile that keeps
    TAIL_BEYOND samples beyond it.  On a small stratified deck the percentile
    itself sits near the middle (p58 of 24 positions); the median beyond it
    reaches the heavy strata and still rests on TAIL_BEYOND samples."""
    ordered = sorted(values)
    cut = max(0, len(ordered) - TAIL_BEYOND)
    return statistics.median(ordered[cut:]), 100.0 * cut / len(ordered)


def end_to_end(run, setup_times, setup_slowdown, slowdown, peak_rss_kb) -> tuple:
    """End-to-end metrics; timings are per-position medians at reference speed."""
    import siegelchi
    medians = [statistics.median(t) / slowdown for t in run["times"] if t]
    tail_value, tail_pct = tail(medians)
    deviations = [d for d in run["deviations"] if d is not None]
    margins = [math.log10(siegelchi.DEFAULT_TOL / max(d, EXACT_FLOOR)) for d in deviations]
    margin = (statistics.fmean(margins) if margins
              else math.log10(siegelchi.DEFAULT_TOL / EXACT_FLOOR))
    metrics = {
        "setup_s": statistics.median(setup_times) / setup_slowdown,
        "trial_p50_ms": 1e3 * statistics.median(medians),
        "trial_tail_ms": 1e3 * tail_value,
        "trials_per_s": len(medians) / sum(medians),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "dev_margin_digits": margin,
    }
    detail = {"samples": len(medians), "trials_timed": sum(len(t) for t in run["times"]),
              "trial_tail_beyond_percentile": tail_pct,
              "trial_tail_samples": min(TAIL_BEYOND, len(medians)),
              "failed_frac": {"value": len(run["failures"]) / run["attempted"],
                              "unit": "ratio"},
              "slowdown": slowdown, "setup_slowdown": setup_slowdown,
              "raw_setup_s_probes": setup_times,
              "raw_position_ms": [1e3 * statistics.median(t) if t else None
                                  for t in run["times"]],
              "worst_max_deviation": max(deviations, default=None),
              "worst_margin_digits": min(margins, default=None)}
    return metrics, detail


def per_layer(wl, deck, run, slowdown) -> tuple:
    """Per-layer metrics per traced trial; timings at reference speed."""
    tracer = run["tracer"]
    n = max(1, len(run["pairs"]))
    busy, calls, total = {}, {}, {}
    for name, self_s, total_s in tracer.self_times():
        busy[name] = busy.get(name, 0.0) + self_s
        total[name] = total.get(name, 0.0) + total_s
        calls[name] = calls.get(name, 0) + 1
    metrics = {name: 0.0 for name, *_ in LAYER_METRICS}
    for name in metrics:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(layer, 0) / n
        elif kind == "busy_ms":
            metrics[name] = 1e3 * busy.get(layer, 0.0) / n
    extra = run["extra"]
    if extra["main_s"]:
        process = statistics.median(t for times in run["times"] for t in times)
        main = statistics.median(extra["main_s"])
        metrics["cli.process_ms"] = 1e3 * process
        metrics["cli.main_ms"] = 1e3 * main
        metrics["cli.startup_ms"] = 1e3 * (process - main)
        metrics["cli.self_ms"] = 1e3 * busy.get("cli.main", 0.0) / n
        metrics["cli.output_bytes"] = statistics.median(extra["output_bytes"])
    counters = {}
    if hasattr(wl, "counts") and all(pos.counts for pos in deck):
        evals = sum(pos.counts["evals"] for pos in deck)
        metrics["theta.evals"] = evals / len(deck)
        metrics["theta.lattice_points"] = sum(pos.counts["lattice_points"]
                                              for pos in deck) / len(deck)
        metrics["theta.usable_ratio"] = (sum(pos.counts["usable"] for pos in deck)
                                         / sum(pos.counts["evens"] for pos in deck))
        metrics["theta.points_per_s"] = extra["lattice_points"] / total["theta.verify"]
        counters = {k: metrics[k] for k in ("theta.evals", "theta.lattice_points",
                                            "theta.usable_ratio")}
    counters["character.chi.calls"] = metrics["character.chi.calls"]
    untraced = statistics.median(p[0] for p in run["pairs"])
    traced = statistics.median(p[1] for p in run["pairs"])
    metrics["trace.overhead_ms"] = 1e3 * (traced - untraced)
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    for name, unit, *_ in LAYER_METRICS:
        if unit == "ms":
            metrics[name] /= slowdown
        elif unit == "1/s":
            metrics[name] *= slowdown
    return metrics, {"traced_trials": len(run["pairs"]), "counters": counters,
                     "slowdown": slowdown}


def environment(nproc: int, pinned: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": nproc, "pinned_cpu": pinned, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit,
            "SIEGEL_CHAR_THREADS": "1 (unset by the benchmark; 1 is the default)",
            "machine_note": ("timings come from a shared sandbox; other tenants' load "
                             "makes them noisy (see the slowdown factors)"),
            "loop": "closed loop, one client, one process"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "siegelchi" / "__init__.py").is_file():
        print(f"error: no siegelchi source at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SIEGEL_CHAR_THREADS", None)
    # One core for the whole run, children included: the calibration kernel
    # then measures the core the trials ran on.
    nproc = len(os.sched_getaffinity(0))
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0

    setup_cal = Calibration()
    setup_times = measure_setup(args, setup_cal) if args.trace == 0 else []
    wl, deck = set_up(args)
    cal = Calibration()
    run = run_loop(wl, deck, args.seconds, bool(args.trace), cal)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli-verify-g2":
        peak_kb = wl.peak_rss_kb

    if args.trace == 0:
        metrics, detail = end_to_end(run, setup_times, setup_cal.slowdown,
                                     cal.slowdown, peak_kb)
        units = END_TO_END_UNITS
    else:
        metrics, detail = per_layer(wl, deck, run, cal.slowdown)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    named = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    reported = dict(named)
    if args.trace == 0 and detail["worst_max_deviation"] is None:
        reported["dev_margin_digits"] = {
            "value": None, "unit": "digits", "applicable": False,
            "summary_placeholder": metrics["dev_margin_digits"],
            "note": "no numeric output; the summary line carries the binary64 floor"}
    failed = len(run["failures"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc, pinned), "metrics": reported,
        "detail": detail, "attempted": run["attempted"], "failed": failed,
        "elapsed_s": run["elapsed_s"], "failures": run["failures"][:20],
    }
    if args.trace == 1:
        report["layer_map"] = {name: {"moves": moves, "on": on}
                               for name, _, moves, on in LAYER_METRICS}
    if args.workload == "cli-verify-g2":
        report["cli_digests"] = {str(pos.seed): pos.expected_digest
                                 for pos in deck if pos.expected_digest}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = run["tracer"].spans if run["tracer"] else []
    out.write_text(json.dumps({"report": report, "spans": spans}))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": named}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
