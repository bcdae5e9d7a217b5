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


def congruent_to_identity(entries: np.ndarray, modulus: int) -> bool:
    """True when every entry of (entries - I) is divisible by modulus."""
    n = entries.shape[0]
    return bool(((entries - _identity(n)) % modulus == 0).all())


def _blocks(mat: np.ndarray) -> tuple:
    """The corners a, b, c, d of a (2g, 2g) array."""
    g = mat.shape[0] // 2
    return mat[:g, :g], mat[:g, g:], mat[g:, :g], mat[g:, g:]


def congruent_to_igusa48(entries: np.ndarray) -> bool:
    """entries = I mod 4 with the diagonals of a b^T and c d^T divisible by 8.

    Works on any even-dimension integer array, symplectic or not.
    """
    a, b, c, d = _blocks(entries)
    return (congruent_to_identity(entries, 4)
            and bool(((a @ b.T).diagonal() % 8 == 0).all())
            and bool(((c @ d.T).diagonal() % 8 == 0).all()))


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """Element of the degree-g integral symplectic group; see make_matrix.
    Immutable, entries included, so character._chi_table caches on it."""

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

    def ab_diag(self) -> np.ndarray:
        """(a b^T)_0 as an object column vector."""
        return (self.a @ self.b.T).diagonal()

    def cd_diag(self) -> np.ndarray:
        """(c d^T)_0 as an object column vector."""
        return (self.c @ self.d.T).diagonal()

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
    return congruent_to_identity(m.entries, 2)


def is_level4(m: SymplecticMatrix) -> bool:
    """M = I mod 4."""
    return congruent_to_identity(m.entries, 4)


def is_igusa48(m: SymplecticMatrix) -> bool:
    """M = I mod 4 with the diagonals of a b^T and c d^T divisible by 8."""
    return congruent_to_igusa48(m.entries)


def is_igusa48_up_to_sign(m: SymplecticMatrix) -> bool:
    """True when M or -M lies in the mod-4, diagonal-mod-8 subgroup.

    The theta-constant character cannot see the difference between M and -M
    on even characteristics, so this is the exact membership detected by
    constancy of the character over even classes.
    """
    return is_igusa48(m) or congruent_to_igusa48(-m.entries)


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


def _right_multiply(out: np.ndarray, kind: str, i: int, j: int, e: int):
    """out <- out @ generator(kind, i, j)**e in place, by column updates on the
    (2g, 2g) object array out; i and j are 1-based and already checked.

    Column l of out @ (I + x E_kl) is column l plus x times column k.  B(i, j)^e
    = I + 2e (E_i,g+j + E_j,g+i), as its upper block squares to 0, and C(i, j)^e
    is its transpose.  For i != j, E_ij^2 = 0 makes A(i, j)^e = diag(I + 2e E_ij,
    I - 2e E_ji).  A(i, i) = diag(D, D), D = I - 2 E_ii an involution, so its e-th
    power negates columns i and g+i for odd e.  No update reads a column another
    writes, so their order does not matter; for i = j, B and C add once.
    """
    g = out.shape[0] // 2
    i, j, x = i - 1, j - 1, 2 * e
    if kind != "A":
        src, dst = (0, g) if kind == "B" else (g, 0)
        out[:, dst + j] += x * out[:, src + i]
        if i != j:
            out[:, dst + i] += x * out[:, src + j]
    elif i != j:
        out[:, j] += x * out[:, i]
        out[:, g + i] -= x * out[:, g + j]
    elif e % 2:
        out[:, [i, g + i]] *= -1


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
    """Product of the word's letters, by column updates; lands in the level-2 group."""
    out = _identity(2 * w.g)
    for kind, i, j, e in w.letters:
        _right_multiply(out, kind, i, j, e)
    return SymplecticMatrix(g=w.g, entries=out)


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

    Built as a product of commutators of random level-2 words, fourth powers
    of B/C generators and squares of A generators; the membership predicate
    is asserted on the result.
    """
    return _random_igusa48(g, random.Random(seed))


def _random_igusa48(g: int, rng: random.Random) -> SymplecticMatrix:
    out = identity(g)
    for _ in range(rng.randint(1, 3)):
        w1 = word_to_matrix(_random_word(g, rng.randint(1, 4), rng))
        w2 = word_to_matrix(_random_word(g, rng.randint(1, 4), rng))
        out = multiply(out, commutator(w1, w2))
    for _ in range(rng.randint(0, 3)):
        kind, i, j = rng.choice(alphabet(g))
        power = 2 if kind == "A" else 4
        out = multiply(out, _generator_power(kind, i, j, g, power))
    assert is_igusa48(out), "construction must land in the subgroup"
    return out
