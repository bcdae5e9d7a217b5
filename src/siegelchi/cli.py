"""Command line front end: character evaluation, membership tests, generator
tables, random sampling, exponent extraction and the verification suites.

Exit codes are a stable contract: 0 success, 1 suite failure, 2 parse error,
3 precondition failure, 4 internal mismatch.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import gc
import itertools
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import serialize
from .errors import (BadShape, DegreeMismatch, NotSymplectic, NotUpperHalfSpace,
                     SiegelChiError, SingularFactor, TooFewUsable, _check_degree)
from .characteristics import (Characteristic, act, enumerate_even_mod2,
                              enumerate_mod2, shift)
from .character import (EighthRoot, PhaseValue, chi, chi_exponents, chi_generator,
                        delta_sign_bit, extract_abelian_exponents,
                        is_chi_constant_over_even, phase_full, phase_level2)
from .symplectic import (SymplecticMatrix, _checked_symplectic, _generator_power,
                         _random_igusa48, _random_word, _residue8, alphabet,
                         congruent_to_identity, congruent_to_igusa48, generator,
                         is_igusa48, is_igusa48_up_to_sign, multiply, random_word,
                         word_to_matrix)
from .theta import (DEFAULT_TAIL_TOL, DEFAULT_TOL, SiegelPoint,
                    verify_character, verify_igusa_product)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4

# Requested tolerance must leave headroom over the theta truncation error,
# at most tail_tol relative to every theta constant above THETA_FLOOR (the
# bound in theta.truncation_radius); otherwise the numeric suite reports
# TooTight instead of running.
TIGHTNESS_FACTOR = 10.0


# Above this degree chi, decompose, table and verify outgrow their use: at g = 7 verify --trials 5
# takes 22 s and 1.8 GB, nearly all in its theta sweeps' lattice passes (g = 6: 1 s, 0.22 GB), table
# holds 105 x 16384 row dicts and chi's map W is 109 MB; member and random build no 4^g-row table.
MAX_G = 6


def _check_g(g: int, most: float = MAX_G):
    if g < 1:
        raise BadShape("g must be at least 1")
    if g > most:
        raise BadShape(f"g = {g} is above {most}, the largest degree this command takes")


@dataclass(frozen=True)
class RunConfig:
    """Settings for one verification run."""

    g: int = 1
    seed: int = 42
    trials: int = 100
    word_length: int = 6
    tol: float = DEFAULT_TOL
    tail_tol: float = DEFAULT_TAIL_TOL

    def validate(self):
        _check_g(self.g)
        if self.trials < 1:
            raise BadShape("trials must be at least 1")
        if self.word_length < 1:
            raise BadShape("word length must be at least 1")
        if not (0 < self.tol < math.inf and 0 < self.tail_tol < math.inf):
            raise BadShape("tolerances must be positive and finite")

    def too_tight(self) -> bool:
        """tol < TIGHTNESS_FACTOR * tail_tol, exactly in the shortest decimal form of each
        (their repr): in binary64, 10 * 1e-15 rounds up past 1e-14."""
        (a, i), (b, j), (c, k) = map(_decimal, (self.tol, TIGHTNESS_FACTOR, self.tail_tol))
        low = min(i, j + k)
        return a * 10 ** (i - low) < b * c * 10 ** (j + k - low)


def _decimal(x: float) -> tuple:
    """(n, e) with n 10^e = repr(x), the shortest decimal form of the finite x, as ints."""
    mantissa, _, exp = repr(x).partition("e")
    whole, _, frac = mantissa.partition(".")
    return int(whole + frac), int(exp or 0) - len(frac)


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

_BATCH = 4096       # output strings joined per write


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise BadShape(f"cannot read JSON from {path}: {exc}") from exc


def _write(parts, output: str):
    """The strings of parts, then a newline, to output ("-" for stdout), joined
    _BATCH at a time: a batch is what is held at once, and one write, so one
    system call on an unbuffered stdout (PYTHONUNBUFFERED) rather than one a part.
    stdout is flushed here, so that a reader gone before the last byte raises
    here, wherever the buffer stood, and not in the flush at shutdown."""
    def write_to(handle):
        for first in parts:
            handle.write(first + "".join(itertools.islice(parts, _BATCH - 1)))
        handle.write("\n")

    parts = iter(parts)
    if output == "-":
        try:
            write_to(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # Nothing reads stdout any more: point it at devnull, so the flush at
            # shutdown has nowhere to fail, and exit 2 as an unwritable --output does.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise BadShape(f"cannot write -: {exc}") from exc
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                write_to(handle)
        except OSError as exc:
            raise BadShape(f"cannot write {output}: {exc}") from exc


def _emit_json(data, output: str):
    """json.dumps(data, indent=2, sort_keys=True) and a newline, streamed from the
    encoder's chunks: the indenting dumps joins them all into one string first."""
    _write(json.JSONEncoder(indent=2, sort_keys=True).iterencode(data), output)


def _load_matrix(path: str) -> SymplecticMatrix:
    return serialize.matrix_from_dict(_read_json(path))


def _parse_characteristic(text: str, mat: SymplecticMatrix) -> Characteristic:
    try:
        m = Characteristic.from_vector([int(x) for x in text.split(",")])
        _check_degree(m, mat)
    except (ValueError, DegreeMismatch) as exc:
        raise BadShape(f"characteristic must be 2g comma-separated integers: {exc}") from exc
    return m


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_chi(args) -> int:
    mat = _load_matrix(args.matrix)
    _check_g(mat.g)
    m = _parse_characteristic(args.char, mat)
    k, s = chi(m, mat).k, delta_sign_bit(m, mat)
    out = serialize.eighth_root_to_dict(EighthRoot(k))
    payload = {"exponent": k,
               "value": out["value"],
               "symbol": out["symbol"],
               "phi_mod1": str(PhaseValue(raw_numerator=4 * s - k)),  # k = 8 phi + 4 s
               "delta_sign": s}
    _emit_json(payload, args.output)
    return EXIT_OK


def _table_rows(g: int):
    rows = []
    chars = enumerate_mod2(g)
    for kind, i, j in alphabet(g):
        for m, direct in zip(chars, chi_exponents(generator(kind, i, j, g)).tolist()):
            closed = chi_generator(m, kind, i, j).k
            rows.append({"generator": f"{kind}_{i}{j}",
                         "m": serialize.characteristic_to_list(m),
                         "chi": direct, "closed_form": closed, "match": direct == closed})
    return rows, all(row["match"] for row in rows)


def _table_markdown(g: int, rows) -> str:
    lines = [f"# Generator character table, degree {g}", "",
             "| generator | m | chi | closed form | match |",
             "|---|---|---|---|---|"]
    for row in rows:
        m = ",".join(str(x) for x in row["m"])
        lines.append(f"| {row['generator']} | ({m}) | e({row['chi']}/8) "
                     f"| e({row['closed_form']}/8) | {'yes' if row['match'] else 'NO'} |")
    return "\n".join(lines)


def cmd_table(args) -> int:
    _check_g(args.g)
    rows, all_match = _table_rows(args.g)
    if args.markdown:
        _write([_table_markdown(args.g, rows)], args.output)
    else:
        _emit_json({"g": args.g, "rows": rows, "all_match": all_match}, args.output)
    return EXIT_OK if all_match else EXIT_MISMATCH


def cmd_member(args) -> int:
    raw = serialize.matrix_entries(_read_json(args.matrix))
    try:
        _checked_symplectic(raw)  # BadShape for an odd dimension
        sp = True
    except NotSymplectic:
        sp = False
    m8 = _residue8(raw)
    payload = {"sp": sp,
               "level2": congruent_to_identity(m8, 2),
               "level4": congruent_to_identity(m8, 4),
               "igusa48": congruent_to_igusa48(m8)}
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_random(args) -> int:
    _check_g(args.g, math.inf)
    w = random_word(args.g, args.word_length, args.seed)
    payload = {"word": serialize.word_to_dict(w),
               "matrix": serialize.matrix_to_dict(word_to_matrix(w))}
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    mat = _load_matrix(args.matrix)
    _check_g(mat.g)
    exps = extract_abelian_exponents(mat)     # checks chi at all 4^g binary rows
    _emit_json({"exponents": serialize.exponents_to_dict(exps), "residual_check": "ok",
                "checked_points": 4 ** mat.g, "mismatches": []}, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _rng(config: RunConfig, suite: str, index) -> random.Random:
    return random.Random(f"{config.seed}.{suite}.{index}")


def _random_point(g: int, rng: random.Random) -> SiegelPoint:
    re = [[rng.uniform(-0.4, 0.4) for _ in range(g)] for _ in range(g)]
    re = (np.array(re) + np.array(re).T) / 2.0
    w = np.array([[rng.uniform(-0.3, 0.3) for _ in range(g)] for _ in range(g)])
    im = (0.6 + rng.uniform(0.0, 0.4)) * np.eye(g) + w @ w.T
    return SiegelPoint.make(re + 1j * im)


def _counted(suite: str, trial, config: RunConfig) -> dict:
    """Sum the failure counts of trial(config, rng) over the suite's trials."""
    failures = sum(trial(config, _rng(config, suite, t)) for t in range(config.trials))
    return {"trials": config.trials, "failures": failures, "passed": failures == 0}


def _homomorphism_trial(config: RunConfig, rng: random.Random) -> int:
    m1 = word_to_matrix(_random_word(config.g, rng.randint(0, config.word_length), rng))
    m2 = word_to_matrix(_random_word(config.g, rng.randint(0, config.word_length), rng))
    prod = multiply(m1, m2)
    return int(((chi_exponents(m1) + chi_exponents(m2)) % 8 != chi_exponents(prod)).sum())


def _triviality_trial(config: RunConfig, rng: random.Random) -> int:
    mat = _random_igusa48(config.g, rng)
    return int(not is_igusa48(mat) or chi_exponents(mat).any())


def _sweep_trial(config: RunConfig, sweep, *args) -> dict:
    try:
        report = sweep(*args, tol=config.tol, tail_tol=config.tail_tol)
        return {"passed": report.passed, "max_deviation": report.max_deviation}
    except (TooFewUsable, SingularFactor, NotUpperHalfSpace) as exc:
        return {"passed": False, "error": str(exc)}


def _character_trial(config: RunConfig, rng: random.Random) -> dict:
    length = rng.randint(1, min(4, config.word_length))
    mat = word_to_matrix(_random_word(config.g, length, rng))
    return _sweep_trial(config, verify_character, mat, _random_point(config.g, rng))


def _product_trial(config: RunConfig, rng: random.Random) -> dict:
    mat = word_to_matrix(_random_word(config.g, rng.randint(1, 3), rng))
    point = _random_point(config.g, rng)
    evens = enumerate_even_mod2(config.g)
    m = rng.choice(evens)
    n = rng.choice(evens)
    return _sweep_trial(config, verify_igusa_product, m, n, mat, point)


def _suite_numeric(config: RunConfig) -> dict:
    if config.too_tight():
        return {"character_trials": 0, "product_trials": 0, "failures": 1,
                "passed": False, "diagnostic": "TooTight",
                "detail": (f"tol={config.tol:g} leaves no headroom over "
                           f"tail_tol={config.tail_tol:g}; need tol >= "
                           f"{TIGHTNESS_FACTOR:g} * tail_tol")}
    n_char = max(1, config.trials // 5)
    n_prod = max(1, config.trials // 10)
    results = ([_character_trial(config, _rng(config, "C", t)) for t in range(n_char)]
               + [_product_trial(config, _rng(config, "Cp", t)) for t in range(n_prod)])
    failures = sum(1 for r in results if not r["passed"])
    deviations = [r.get("max_deviation", 0.0) for r in results]
    out = {"character_trials": n_char, "product_trials": n_prod,
           "failures": failures, "max_deviation": max(deviations, default=0.0),
           "passed": failures == 0}
    errors = [r["error"] for r in results if "error" in r]
    if errors:
        out["errors"] = errors
    return out


def _pool_element(config: RunConfig, t: int) -> SymplecticMatrix:
    """Mixed pool: plain words, subgroup constructions, and near-misses
    that are I mod 4 with a diagonal of a b^T or c d^T equal to 4 mod 8."""
    rng = _rng(config, "D", t)
    g = config.g
    draw = rng.random()
    if draw < 0.5:
        return word_to_matrix(_random_word(g, rng.randint(1, config.word_length), rng))
    if draw < 0.8:
        return _random_igusa48(g, rng)
    i = rng.randint(1, g)
    square = _generator_power(rng.choice("BC"), i, i, g, 2)
    return multiply(square, _random_igusa48(g, rng))


def _suite_equivalence(config: RunConfig) -> dict:
    literal = 0
    up_to_sign = 0
    coset = 0
    for t in range(config.trials):
        mat = _pool_element(config, t)
        constant = is_chi_constant_over_even(mat)
        strict = is_igusa48(mat)
        signed = is_igusa48_up_to_sign(mat)
        if constant != strict:
            literal += 1
        if constant != signed:
            up_to_sign += 1
        if signed and not strict:
            coset += 1
    return {"trials": config.trials,
            "discrepancies_up_to_sign": up_to_sign,
            "literal_discrepancies": literal,
            "sign_coset_elements": coset,
            "passed": up_to_sign == 0}


def _phase_trial(config: RunConfig, rng: random.Random) -> int:
    g = config.g
    mat = word_to_matrix(_random_word(g, rng.randint(1, config.word_length), rng))
    other = word_to_matrix(_random_word(g, rng.randint(1, config.word_length), rng))
    m = Characteristic.from_vector([rng.randint(-4, 4) for _ in range(2 * g)])
    bump = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
    base = phase_level2(m, mat)
    return sum(phase != base for phase in (phase_level2(shift(m, bump), mat),
                                           phase_level2(act(other, m), mat),
                                           phase_full(m, mat)))


_SUITES = (("A_homomorphism", functools.partial(_counted, "A", _homomorphism_trial)),
           ("B_triviality", functools.partial(_counted, "B", _triviality_trial)),
           ("C_numeric", _suite_numeric),
           ("D_equivalence", _suite_equivalence),
           ("E_phase_congruences", functools.partial(_counted, "E", _phase_trial)))


def cmd_verify(args) -> int:
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    config.validate()
    suites = {}
    for name, runner in _SUITES:
        try:
            suites[name] = runner(config)
        except SiegelChiError as exc:  # partial report still gets written
            suites[name] = {"passed": False, "error": str(exc)}
    passed = all(s.get("passed", False) for s in suites.values())
    report = {"config": asdict(config), "suites": suites, "passed": passed}
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _emit_json(report, args.output)
    return EXIT_OK if passed else EXIT_SUITE_FAILURE


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

# Every flag once, in --help order.  The defaults verify shares with random
# and table are RunConfig's.
_FLAGS = {
    "--matrix": {"required": True, "help": "path to matrix JSON, or - for stdin"},
    "--char": {"required": True, "help": "characteristic as c1,...,c2g"},
    "--g": {"type": int, "default": RunConfig.g, "help": f"degree (default {RunConfig.g})"},
    "--seed": {"type": int, "default": RunConfig.seed},
    "--trials": {"type": int, "default": RunConfig.trials},
    "--word-length": {"type": int, "default": RunConfig.word_length},
    "--tol": {"type": float, "default": RunConfig.tol},
    "--tail-tol": {"type": float, "default": RunConfig.tail_tol},
    "--markdown": {"action": "store_true", "help": "render a markdown table instead of JSON"},
    "--no-timestamp": {"action": "store_true",
                       "help": "omit the timestamp for byte-identical reports"},
    "--output": {"default": "-", "help": "output file, - for stdout"},
}

# subcommand: (handler, help, flags besides --output, which every one takes)
_SUBCOMMANDS = {
    "chi": (cmd_chi, "evaluate the character at one characteristic", ("--matrix", "--char")),
    "table": (cmd_table, "generator character table, both code paths", ("--g", "--markdown")),
    "verify": (cmd_verify, "run the exact and numeric suites",
               ("--g", "--seed", "--trials", "--word-length", "--tol", "--tail-tol",
                "--no-timestamp")),
    "member": (cmd_member, "membership in the congruence subgroups", ("--matrix",)),
    "random": (cmd_random, "sample a random generator word",
               ("--g", "--seed", "--word-length")),
    "decompose": (cmd_decompose, "recover exponents mod the commutator subgroup",
                  ("--matrix",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelchi",
        description="Characters of the level-2 symplectic congruence group "
                    "and theta-constant verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--output"):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadShape, NotSymplectic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SiegelChiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entrypoint():
    """main() as a process: the console script and python -m siegelchi.cli.

    gc.freeze() after main moves every object left to the permanent generation,
    so the collections CPython runs at finalization have nothing to walk: the
    shutdown of a verify --g 2 run fell from about 20 ms to about 5 ms on one
    core, and the run by about a tenth (BENCH_gc_freeze.json).  Exit code,
    output and atexit handlers are unchanged.  It stays out of main and out of
    import time, which must leave a caller's collector alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
