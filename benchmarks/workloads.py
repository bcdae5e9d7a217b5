"""The three benchmark workloads: seeded inputs, one trial, and its check.

Each workload builds a fixed *deck* of positions from the seed before the
clock starts, using only public constructors of siegelchi (``word``,
``siegel_point``, ``characteristic`` and ``word_to_matrix``), so refactoring the library's private samplers leaves
the inputs unchanged.  A trial runs one deck position; every call into a
library layer goes through ``tracer.call(layer, fn, ...)`` so that the traced
run can attribute time to layers without touching the library itself.

``check`` compares a trial's outputs against an independent computation and
returns an error message, or None when the outputs are right.  Expected
values are computed once per position, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import siegelchi as sc

def _random_letters(rng: random.Random, g: int, length: int) -> list:
    pool = sc.alphabet(g)
    return [(*rng.choice(pool), rng.choice((-1, 1))) for _ in range(length)]


def _inverse_letters(letters: list) -> list:
    return [(kind, i, j, -e) for kind, i, j, e in reversed(letters)]


def _spread_order(n: int) -> list:
    """Bit-reversal order of range(n): every prefix samples the whole range."""
    bits = max(1, (n - 1).bit_length())
    keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return sorted(range(n), key=keys.__getitem__)


# ---------------------------------------------------------------------------
# exact-g3: the exact half only
# ---------------------------------------------------------------------------

@dataclass
class ExactPosition:
    w1: sc.GeneratorWord        # the trial's word; a commutator word on some positions
    w2: sc.GeneratorWord        # second word, for the homomorphism check
    n: sc.Characteristic        # non-binary characteristic for the phase check
    commutator: bool            # w1 lies in the mod-4, diagonal-mod-8 subgroup
    expected: dict = field(default_factory=dict)


class ExactG3:
    name = "exact-g3"
    g = 3
    deck_size = 240
    commutator_every = 4        # one position in four is a commutator word

    def __init__(self):
        self.chars = [sc.characteristic(*bits)
                      for bits in itertools.product((0, 1), repeat=2 * self.g)]

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}.{seed}")
        g = self.g
        plain = self.deck_size - self.deck_size // self.commutator_every
        lengths = [1 + i % 24 for i in range(plain)]
        rng.shuffle(lengths)
        deck = []
        for i in range(self.deck_size):
            if i % self.commutator_every == self.commutator_every - 1:
                u1 = _random_letters(rng, g, rng.randint(1, 6))
                u2 = _random_letters(rng, g, rng.randint(1, 6))
                letters = u1 + u2 + _inverse_letters(u1) + _inverse_letters(u2)
                if rng.random() < 0.5:
                    # Squares of A and fourth powers of B, C stay in the subgroup.
                    kind, a, b = rng.choice(sc.alphabet(g))
                    letters.append((kind, a, b, 2 if kind == "A" else 4))
                commutator = True
            else:
                letters = _random_letters(rng, g, lengths.pop())
                commutator = False
            w2 = sc.word(g, _random_letters(rng, g, rng.randint(1, 8)))
            entries = [rng.randint(-4, 4) for _ in range(2 * g)]
            entries[rng.randrange(2 * g)] = rng.choice((-3, -2, -1, 2, 3, 4))
            deck.append(ExactPosition(sc.word(g, letters), w2,
                                      sc.characteristic(*entries), commutator))
        return deck

    def warm_up_position(self) -> ExactPosition:
        return ExactPosition(sc.word(self.g, [("B", 1, 1, 1)]),
                             sc.word(self.g, [("C", 1, 2, 1)]),
                             sc.characteristic(2, 0, 1, 0, 3, 0), False)

    def trial(self, pos: ExactPosition, t) -> tuple:
        m1 = t.call("symplectic.word_to_matrix", sc.word_to_matrix, pos.w1)
        m2 = t.call("symplectic.word_to_matrix", sc.word_to_matrix, pos.w2)
        prod = t.call("symplectic.multiply", sc.multiply, m1, m2)
        k1 = [t.call("character.chi", sc.chi, m, m1).k for m in self.chars]
        kp = [t.call("character.chi", sc.chi, m, prod).k for m in self.chars]
        exps = t.call("character.extract", sc.extract_abelian_exponents, m1)
        constant = t.call("character.constancy", sc.is_chi_constant_over_even, m1)
        member = t.call("symplectic.membership", sc.is_igusa48_up_to_sign, m1)
        moved = t.call("characteristics.act", sc.act, m2, pos.n)
        phase = t.call("character.phase", sc.phase_full, pos.n, m1)
        phase_moved = t.call("character.phase", sc.phase_full, moved, m1)
        return m1, k1, kp, exps, constant, member, phase, phase_moved

    def check(self, pos: ExactPosition, out) -> str | None:
        m1, k1, kp, exps, constant, member, phase, phase_moved = out
        exp = pos.expected
        if not exp:
            k_w1 = [sc.chi_word(m, pos.w1).k for m in self.chars]
            k_w2 = [sc.chi_word(m, pos.w2).k for m in self.chars]
            exp["k1"] = k_w1
            exp["kp"] = [(a + b) % 8 for a, b in zip(k_w1, k_w2)]
            exp["exps"] = sc.word_exponents(pos.w1)
            exp["phase"] = sc.phase_level2(pos.n, m1)
        if k1 != exp["k1"]:
            return "chi differs from chi_word at a binary characteristic"
        if kp != exp["kp"]:
            return "chi is not multiplicative on the product with the second word"
        if exps != exp["exps"]:
            return "extract_abelian_exponents differs from word_exponents"
        if constant != member:
            return "is_chi_constant_over_even differs from is_igusa48_up_to_sign"
        if pos.commutator and not member:
            return "commutator word is not in the subgroup up to sign"
        if not (phase == phase_moved == exp["phase"]):
            return "phase congruence under act / phase_full failed"
        return None

    def deviation(self, out) -> None:
        return None             # exact results: no rounding, no deviation


# ---------------------------------------------------------------------------
# theta-g3: the numeric half, lattice sums
# ---------------------------------------------------------------------------

# Cost proxy lam0^-1.5 + lam1^-1.5, with lam the smallest eigenvalue of Im tau
# at the point and at its Mobius image (box volume grows like lam^(-g/2)).
# Targets are the quantiles (i + 1/2)/24 * 0.95 of the proxy over 4000 draws
# of this workload's sampler; each seed takes, for each target, the nearest
# of 128 fresh draws.  Stratifying this way keeps the cost mix of a deck, and
# so every timing, steady across seeds while still reaching the heavy tail
# (the top target sits near the 93rd percentile of the natural distribution).
# The proxy is the benchmark's own arithmetic, so library changes to
# truncation or Mobius code cannot change which inputs are chosen.
THETA_TARGETS = (2.10, 2.39, 2.80, 3.28, 3.94, 10.69, 12.75, 14.20, 15.21,
                 16.39, 17.43, 18.78, 20.20, 22.07, 25.07, 28.82, 36.33, 45.70,
                 77.11, 106.29, 131.03, 161.00, 201.41, 320.51)


@dataclass
class ThetaPosition:
    matrix: sc.SymplecticMatrix
    point: sc.SiegelPoint
    counts: dict = field(default_factory=dict)


def _random_tau(rng: random.Random, g: int) -> np.ndarray:
    re = np.array([[rng.uniform(-0.4, 0.4) for _ in range(g)] for _ in range(g)])
    w = np.array([[rng.uniform(-0.3, 0.3) for _ in range(g)] for _ in range(g)])
    im = (0.6 + rng.uniform(0.0, 0.4)) * np.eye(g) + w @ w.T
    return (re + re.T) / 2.0 + 1j * im


def _cost_proxy(matrix: sc.SymplecticMatrix, tau: np.ndarray) -> float:
    g = matrix.g
    e = np.array(matrix.entries, dtype=float)
    a, b, c, d = e[:g, :g], e[:g, g:], e[g:, :g], e[g:, g:]
    moved = (a @ tau + b) @ np.linalg.inv(c @ tau + d)
    lam0 = np.linalg.eigvalsh(tau.imag)[0]
    lam1 = np.linalg.eigvalsh(((moved + moved.T) / 2.0).imag)[0]
    return float(lam0 ** -1.5 + lam1 ** -1.5)


class ThetaG3:
    """verify_character sweeps only.  verify_igusa_product at g = 3 makes 1332
    chi calls per sweep (about 0.2 s), which would put the exact half back
    into this workload and make per-position cost bimodal; cli-verify-g2
    runs product sweeps through suite C."""

    name = "theta-g3"
    g = 3
    candidates = 128

    def __init__(self):
        self.evens = sc.enumerate_even_mod2(self.g)

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}.{seed}")
        g = self.g
        pool = []
        for _ in range(self.candidates):
            w = sc.word(g, _random_letters(rng, g, rng.randint(1, 4)))
            tau = _random_tau(rng, g)
            mat = sc.word_to_matrix(w)
            pool.append((math.log(_cost_proxy(mat, tau)), mat, tau))
        stratified = []
        for target in THETA_TARGETS:
            best = min(range(len(pool)),
                       key=lambda k: abs(pool[k][0] - math.log(target)))
            _, mat, tau = pool.pop(best)
            stratified.append(ThetaPosition(mat, sc.siegel_point(tau)))
        return [stratified[i] for i in _spread_order(len(stratified))]

    def warm_up_position(self) -> ThetaPosition:
        mat = sc.word_to_matrix(sc.word(self.g, [("B", 1, 1, 1)]))
        return ThetaPosition(mat, sc.siegel_point(1j * np.eye(self.g)))

    def trial(self, pos: ThetaPosition, t):
        return t.call("theta.verify", sc.verify_character, pos.matrix, pos.point)

    def check(self, pos: ThetaPosition, report) -> str | None:
        if not report.passed:
            return f"sweep did not pass (max deviation {report.max_deviation:.3g})"
        return None

    def deviation(self, report) -> float:
        return report.max_deviation

    def counts(self, pos: ThetaPosition, report) -> dict:
        """Computed counters of one sweep: theta constants evaluated, usable
        characteristics, and lattice points by the (2R+1)^g box formula."""
        if not pos.counts:
            usable = report.m_list
            moved = sc.mobius(pos.matrix, pos.point)
            points = sum((2 * sc.truncation_radius(m, pos.point, sc.DEFAULT_TAIL_TOL) + 1) ** self.g
                         for m in self.evens)
            points += sum((2 * sc.truncation_radius(m, moved, sc.DEFAULT_TAIL_TOL) + 1) ** self.g
                          for m in usable)
            pos.counts.update(evals=len(self.evens) + len(usable), usable=len(usable),
                              evens=len(self.evens), lattice_points=points)
        return pos.counts


# ---------------------------------------------------------------------------
# cli-verify-g2: the command users run, one subprocess per trial
# ---------------------------------------------------------------------------

@dataclass
class CliPosition:
    seed: int
    expected_digest: str | None = None

    @property
    def argv(self) -> list:
        return ["verify", "--g", "2", "--seed", str(self.seed),
                "--trials", str(CliVerifyG2.trials), "--no-timestamp"]


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv: list, env: dict, cwd: str) -> CliResult:
    """Run a child to completion, reading both pipes, and keep its rusage."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, b"".join(chunks[proc.stdout]),
                     b"".join(chunks[proc.stderr]), usage.ru_maxrss)


# cli module globals that are calls into other layers, by layer.  The traced
# run rebinds them for the duration of one in-process cli.main call.
CLI_LAYER_CALLS = {
    "word_to_matrix": "symplectic.word_to_matrix",
    "multiply": "symplectic.multiply",
    "matrix_power": "symplectic.multiply",
    "is_igusa48": "symplectic.membership",
    "is_igusa48_up_to_sign": "symplectic.membership",
    "_random_igusa48": "symplectic.sample",
    "act": "characteristics.act",
    "chi": "character.chi",
    "extract_abelian_exponents": "character.extract",
    "is_chi_constant_over_even": "character.constancy",
    "phase_level2": "character.phase",
    "phase_full": "character.phase",
    "verify_character": "theta.verify",
    "verify_igusa_product": "theta.verify",
}


class CliVerifyG2:
    name = "cli-verify-g2"
    deck_size = 40
    trials = 20                 # the --trials value of every CLI run

    def __init__(self, root: str, env: dict):
        self.root = root
        self.env = env
        self.peak_rss_kb = 0    # largest ru_maxrss over the CLI children

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}.{seed}")
        return [CliPosition(rng.randrange(1 << 31)) for _ in range(self.deck_size)]

    def command(self, pos: CliPosition) -> list:
        return [sys.executable, "-m", "siegelchi.cli", *pos.argv]

    def warm_up_position(self) -> CliPosition:
        return CliPosition(0)

    def trial(self, pos: CliPosition, t) -> CliResult:
        res = run_child(self.command(pos), self.env, self.root)
        self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
        return res

    def check(self, pos: CliPosition, res: CliResult) -> str | None:
        if res.returncode != 0:
            return f"exit code {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}"
        try:
            payload = json.loads(res.stdout)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        if payload.get("passed") is not True:
            failing = [k for k, v in payload.get("suites", {}).items() if not v.get("passed")]
            return f"report has passed != true (suites {failing})"
        digest = hashlib.sha256(res.stdout).hexdigest()
        if pos.expected_digest is None:
            pos.expected_digest = digest
        elif digest != pos.expected_digest:
            return "--no-timestamp output differs between two runs of one seed"
        return None

    def deviation(self, res: CliResult) -> float:
        return json.loads(res.stdout)["suites"]["C_numeric"]["max_deviation"]

    def main_in_process(self, pos: CliPosition, tracer) -> tuple:
        """Run cli.main(argv) in this process; returns (exit code, stdout bytes).

        With a recording tracer, the cli module's calls into other layers are
        rebound to traced wrappers for the duration of the call.
        """
        from siegelchi import cli
        saved = {}
        if tracer is not NO_TRACE:
            for attr, layer in CLI_LAYER_CALLS.items():
                if hasattr(cli, attr):
                    saved[attr] = getattr(cli, attr)
                    setattr(cli, attr, _traced(tracer, layer, saved[attr]))
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = tracer.call("cli.main", cli.main, pos.argv)
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)
        return code, buf.getvalue().encode()


def _traced(tracer, layer, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, *args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class NoTrace:
    """Untraced runs call straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NO_TRACE = NoTrace()


class Tracer:
    """Records one span per call into a layer: name, start, end, parent span
    index and trial id.  Spans stay in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.trial = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.trial)

    def self_times(self) -> list:
        """(name, self seconds, total seconds) per span; self time is the
        duration minus the time covered by direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(name, end - start - child_time[i], end - start)
                for i, (name, start, end, _, _) in enumerate(self.spans)]
