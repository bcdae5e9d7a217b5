"""Exact integer symplectic matrices of degree g and the level-2 generator alphabet.

Matrices are stored as (2g, 2g) numpy arrays of dtype=object holding Python
ints, so all products stay exact no matter how long a generator word gets.
The four g x g corners are written a (top left), b (top right), c (bottom
left), d (bottom right).

make_matrix is the one validating constructor, for input from outside the
program.  The group operations (multiply, inverse, generator and everything
built on them) return SymplecticMatrix values directly: the group is closed
under them and the generators are symplectic by construction.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadShape, IndexOutOfRange, NotSymplectic, _check_degree

GENERATOR_KINDS = ("A", "B", "C")


def _int_matrix(entries) -> np.ndarray:
    """Copy arbitrary nested input into an object array of Python ints.

    Entries must be true integers; floats are rejected rather than truncated,
    and booleans rather than read as 0 and 1.
    """
    try:
        mat = np.array([[_int_entry(x) for x in row] for row in entries],
                       dtype=object)
    except (TypeError, ValueError) as exc:
        raise BadShape(f"matrix entries must be integers: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise BadShape(f"matrix must be square, got shape {mat.shape}")
    return mat


def _int_entry(x) -> int:
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a boolean, not an integer")
    return operator.index(x)


def _identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def _residue8(entries) -> np.ndarray:
    """M mod 8 as read-only int64, reduced before the cast so nothing overflows."""
    m8 = (entries % 8).astype(np.int64)
    m8.setflags(write=False)
    return m8


def congruent_to_identity(m8: np.ndarray, modulus: int) -> bool:
    """M = I mod modulus, for m8 = M mod 8 and modulus dividing 8: r = m8 mod
    modulus is I when its diagonal is all 1 and it has no other nonzero entry."""
    r = m8 % modulus
    return bool(np.count_nonzero(r) == len(r) == np.count_nonzero(r.diagonal() == 1))


def _blocks(mat: np.ndarray) -> tuple:
    """The corners a, b, c, d of a (2g, 2g) array."""
    g = mat.shape[0] // 2
    return mat[:g, :g], mat[:g, g:], mat[g:, :g], mat[g:, g:]


def congruent_to_igusa48(m8: np.ndarray) -> bool:
    """M = I mod 4 with the diagonals of a b^T and c d^T divisible by 8, for m8
    any int64 array = M mod 8 (such as -(-M mod 8)), M of even dimension and
    symplectic or not: all three conditions read M mod 8 only."""
    a, b, c, d = _blocks(m8)
    return congruent_to_identity(m8, 4) and not (
        ((a * b).sum(1) % 8).any() or ((c * d).sum(1) % 8).any())


def _dot(x: Iterable, y: Iterable) -> int:
    """Exact dot product of two sequences of Python ints."""
    return sum(map(operator.mul, x, y))


def _mat_vec(rows: list, v: Sequence) -> list:
    """rows @ v in exact Python ints, for rows a list of int rows such as
    entries.tolist()."""
    return [_dot(row, v) for row in rows]


def _half_diagonals(rows: list) -> list:
    """Each row's left half dotted with its right half: (a b^T)_0 followed by
    (c d^T)_0 for the 2g int rows of a (2g, 2g) matrix, (a b^T)_0 alone for
    its first g rows."""
    g = len(rows[0]) // 2
    return [_dot(row[:g], row[g:]) for row in rows]


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """Element of the degree-g integral symplectic group; see make_matrix.
    Immutable, entries included, so _m8 and character._chi_table cache on it."""

    g: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def a(self) -> np.ndarray:
        return self.entries[: self.g, : self.g]

    @property
    def b(self) -> np.ndarray:
        return self.entries[: self.g, self.g :]

    @property
    def c(self) -> np.ndarray:
        return self.entries[self.g :, : self.g]

    @property
    def d(self) -> np.ndarray:
        return self.entries[self.g :, self.g :]

    @property
    def _m8(self) -> np.ndarray:
        """M mod 8, the one residue every congruence test and the chi kernel
        read.  Built on the first read and kept in the instance dict under
        "_mod8", not a field: eq, hash, repr ignore it.  Not a
        functools.cached_property, whose first read on Python 3.11 takes a lock
        shared by every instance."""
        m8 = vars(self).get("_mod8")
        if m8 is None:
            m8 = vars(self)["_mod8"] = _residue8(self.entries)
        return m8

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        return self.g == other.g and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.g, tuple(int(x) for x in self.entries.ravel())))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return multiply(self, other)

    def __repr__(self):
        return f"SymplecticMatrix(g={self.g}, entries={self.entries.tolist()})"


def make_matrix(entries) -> SymplecticMatrix:
    """Validate a (2g, 2g) integer matrix against the symplectic block relations.

    Raises BadShape for a non-square or odd-dimension input, NotSymplectic
    when a d^T - b c^T != I or a b^T, c d^T fail to be symmetric.
    """
    mat = _int_matrix(entries)
    n = mat.shape[0]
    if n % 2 != 0 or n == 0:
        raise BadShape(f"symplectic matrices have even dimension, got {n}")
    g = n // 2
    a, b, c, d = _blocks(mat)
    if not np.array_equal(a @ d.T - b @ c.T, _identity(g)):
        raise NotSymplectic("a d^T - b c^T != I")
    ab = a @ b.T
    if not np.array_equal(ab, ab.T):
        raise NotSymplectic("a b^T is not symmetric")
    cd = c @ d.T
    if not np.array_equal(cd, cd.T):
        raise NotSymplectic("c d^T is not symmetric")
    return SymplecticMatrix(g=g, entries=mat)


def identity(g: int) -> SymplecticMatrix:
    return SymplecticMatrix(g=g, entries=_identity(2 * g))


def multiply(m1: SymplecticMatrix, m2: SymplecticMatrix) -> SymplecticMatrix:
    """Exact product."""
    _check_degree(m1, m2)
    return SymplecticMatrix(g=m1.g, entries=m1.entries @ m2.entries)


def inverse(m: SymplecticMatrix) -> SymplecticMatrix:
    """Exact inverse via the block formula (d^T, -b^T; -c^T, a^T)."""
    g = m.g
    out = np.empty((2 * g, 2 * g), dtype=object)
    out[:g, :g], out[:g, g:] = m.d.T, -m.b.T
    out[g:, :g], out[g:, g:] = -m.c.T, m.a.T
    return SymplecticMatrix(g=g, entries=out)


def matrix_power(m: SymplecticMatrix, k: int) -> SymplecticMatrix:
    """m**k for any integer k, exact, by square-and-multiply over the bits of k."""
    if k < 0:
        return matrix_power(inverse(m), -k)
    out = identity(m.g)
    for bit in bin(k)[2:]:
        out = multiply(out, out)
        if bit == "1":
            out = multiply(out, m)
    return out


# ---------------------------------------------------------------------------
# Congruence subgroup membership
# ---------------------------------------------------------------------------

def is_level2(m: SymplecticMatrix) -> bool:
    """M = I mod 2."""
    return congruent_to_identity(m._m8, 2)


def is_level4(m: SymplecticMatrix) -> bool:
    """M = I mod 4."""
    return congruent_to_identity(m._m8, 4)


def is_igusa48(m: SymplecticMatrix) -> bool:
    """M = I mod 4 with the diagonals of a b^T and c d^T divisible by 8."""
    return congruent_to_igusa48(m._m8)


def is_igusa48_up_to_sign(m: SymplecticMatrix) -> bool:
    """True when M or -M lies in the mod-4, diagonal-mod-8 subgroup.

    The theta-constant character cannot see the difference between M and -M
    on even characteristics, so this is the exact membership detected by
    constancy of the character over even classes.
    """
    return is_igusa48(m) or congruent_to_igusa48(-m._m8)


# ---------------------------------------------------------------------------
# Generator alphabet and words
# ---------------------------------------------------------------------------

def _check_indices(kind: str, i: int, j: int, g: int):
    if kind not in GENERATOR_KINDS:
        raise IndexOutOfRange(f"unknown generator kind {kind!r}")
    if not (1 <= i <= g and 1 <= j <= g):
        raise IndexOutOfRange(f"{kind}_{i}{j} out of range for g={g}")
    if kind in ("B", "C") and i > j:
        raise IndexOutOfRange(f"{kind} generators need i <= j, got ({i}, {j})")


def generator(kind: str, i: int, j: int, g: int) -> SymplecticMatrix:
    """One of the standard level-2 generators, with 1-based indices.

    A(i, j): block diag(a, a^-T) where a is I with entry (i, j) set to 2 for
    i != j, or entry (i, i) set to -1.  B(i, j): upper unipotent with b the
    symmetric matrix carrying 2 at (i, j) and (j, i).  C(i, j) is the
    transpose of B(i, j).
    """
    return _generator_power(kind, i, j, g, 1)


def _generator_power(kind: str, i: int, j: int, g: int, e: int) -> SymplecticMatrix:
    """generator(kind, i, j, g) ** e for any integer e."""
    return word_to_matrix(GeneratorWord(g=g, letters=((kind, i, j, e),)))


def _right_multiply(rows: list, kind: str, i: int, j: int, e: int):
    """rows <- rows @ generator(kind, i, j)**e in place, by column updates on the
    2g rows, lists of Python ints, of the running product; i and j are 1-based
    and already checked.

    Column l of rows @ (I + x E_kl) is column l plus x times column k.  B(i, j)^e
    = I + 2e (E_i,g+j + E_j,g+i), as its upper block squares to 0, and C(i, j)^e
    is its transpose.  For i != j, E_ij^2 = 0 makes A(i, j)^e = diag(I + 2e E_ij,
    I - 2e E_ji).  A(i, i) = diag(D, D), D = I - 2 E_ii an involution, so its e-th
    power negates columns i and g+i for odd e.  No update reads a column another
    writes, so their order does not matter; for i = j, B and C add once.
    """
    g = len(rows) // 2
    i, j, x = i - 1, j - 1, 2 * e
    if kind != "A":
        src, dst = (0, g) if kind == "B" else (g, 0)
        for row in rows:
            row[dst + j] += x * row[src + i]
        if i != j:
            for row in rows:
                row[dst + i] += x * row[src + j]
    elif i != j:
        for row in rows:
            row[j] += x * row[i]
            row[g + i] -= x * row[g + j]
    elif e % 2:
        for row in rows:
            row[i], row[g + i] = -row[i], -row[g + i]


@dataclass(frozen=True)
class GeneratorWord:
    """Ordered product of generator powers, kept symbolically."""

    g: int
    letters: tuple  # of (kind, i, j, exponent)

    def __post_init__(self):
        try:
            letters = tuple((str(k), operator.index(i), operator.index(j),
                             operator.index(e)) for k, i, j, e in self.letters)
        except (TypeError, ValueError) as exc:
            raise BadShape(f"word letters must be (kind, i, j, exponent): {exc}") from exc
        for kind, i, j, _ in letters:
            _check_indices(kind, i, j, self.g)
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)


def word(g: int, letters: Iterable[Sequence]) -> GeneratorWord:
    """Build a word from an iterable of (kind, i, j, exponent) items."""
    return GeneratorWord(g=g, letters=letters)


def word_to_matrix(w: GeneratorWord) -> SymplecticMatrix:
    """Product of the word's letters, by column updates on rows of Python ints
    made into one object array at the end; lands in the level-2 group."""
    n = 2 * w.g
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = 1
    for kind, i, j, e in w.letters:
        _right_multiply(rows, kind, i, j, e)
    return SymplecticMatrix(g=w.g, entries=np.array(rows, dtype=object))


def alphabet(g: int) -> list:
    """All legal (kind, i, j) triples for degree g, in a fixed order."""
    letters = [("A", i, j) for i in range(1, g + 1) for j in range(1, g + 1)]
    letters += [("B", i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
    letters += [("C", i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
    return letters


def random_word(g: int, length: int, seed: int) -> GeneratorWord:
    """Uniform letters with exponents +-1; deterministic for a fixed seed."""
    if length < 0:
        raise BadShape(f"word length must be non-negative, got {length}")
    rng = random.Random(seed)
    return _random_word(g, length, rng)


def _random_word(g: int, length: int, rng: random.Random) -> GeneratorWord:
    letters = []
    pool = alphabet(g)
    for _ in range(length):
        kind, i, j = rng.choice(pool)
        letters.append((kind, i, j, rng.choice((-1, 1))))
    return GeneratorWord(g=g, letters=tuple(letters))


def commutator(m1: SymplecticMatrix, m2: SymplecticMatrix) -> SymplecticMatrix:
    """m1 m2 m1^-1 m2^-1."""
    return multiply(multiply(m1, m2), multiply(inverse(m1), inverse(m2)))


def random_igusa48(g: int, seed: int) -> SymplecticMatrix:
    """Random element of the mod-4, diagonal-mod-8 subgroup.

    Built as one word: commutators w1 w2 w1^-1 w2^-1 of random level-2 words,
    then fourth powers of B/C generators and squares of A generators; the
    membership predicate is asserted on the result.
    """
    return _random_igusa48(g, random.Random(seed))


def _random_igusa48(g: int, rng: random.Random) -> SymplecticMatrix:
    letters = []
    for _ in range(rng.randint(1, 3)):
        w1 = _random_word(g, rng.randint(1, 4), rng).letters
        w2 = _random_word(g, rng.randint(1, 4), rng).letters
        # w1 w2 w1^-1 w2^-1, the last two as the word (w2 w1)^-1
        letters += [*w1, *w2, *((k, i, j, -e) for k, i, j, e in reversed(w2 + w1))]
    for _ in range(rng.randint(0, 3)):
        kind, i, j = rng.choice(alphabet(g))
        letters.append((kind, i, j, 2 if kind == "A" else 4))
    out = word_to_matrix(GeneratorWord(g=g, letters=letters))
    assert is_igusa48(out), "construction must land in the subgroup"
    return out
