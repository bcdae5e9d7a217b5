"""Theta characteristics: parity, enumeration mod 2 and the affine matrix action.

A characteristic is an integer vector of length 2g split into halves
(m', m'').  Values are never reduced mod 2 automatically; the exact integer
representative matters for the character formula, so reduction is always an
explicit caller choice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, DegreeMismatch, _check_degree
from .symplectic import SymplecticMatrix, _half_diagonals, _int_entry, _mat_vec


@dataclass(frozen=True)
class Characteristic:
    """Integer vector in Z^(2g), stored as the two halves, each a tuple of
    Python ints: entries are taken as make_matrix takes them, so a float or a
    bool raises BadShape rather than being truncated or read as 0 and 1."""

    g: int
    m_prime: tuple
    m_double: tuple

    def __post_init__(self):
        try:
            for name in ("m_prime", "m_double"):
                object.__setattr__(self, name, tuple(map(_int_entry, getattr(self, name))))
        except TypeError as exc:
            raise BadShape(f"characteristic entries must be integers: {exc}") from exc
        if len(self.m_prime) != self.g or len(self.m_double) != self.g:
            raise DegreeMismatch(
                f"halves must have length g={self.g}, got "
                f"{len(self.m_prime)} and {len(self.m_double)}")

    @classmethod
    def from_vector(cls, vec) -> "Characteristic":
        vec = list(vec)
        if len(vec) % 2 != 0 or not vec:
            raise DegreeMismatch(f"characteristic vector must have even length, got {len(vec)}")
        g = len(vec) // 2
        return cls(g=g, m_prime=vec[:g], m_double=vec[g:])

    def vector(self) -> tuple:
        return self.m_prime + self.m_double

    @functools.cached_property
    def _row(self) -> int:
        """Index of self mod 2 in enumerate_mod2 order: its bits, most significant
        first.  Kept in the instance dict, not a field: eq, hash, repr ignore it."""
        return sum((x % 2) << k for k, x in enumerate(reversed(self.vector())))

    def mod2(self) -> "Characteristic":
        return Characteristic(
            g=self.g,
            m_prime=tuple(x % 2 for x in self.m_prime),
            m_double=tuple(x % 2 for x in self.m_double))

    def __repr__(self):
        return f"Characteristic({list(self.vector())})"


def characteristic(*entries) -> Characteristic:
    """Shorthand: characteristic(1, 0) is the vector (1, 0)."""
    return Characteristic.from_vector(entries)


def is_even(m: Characteristic) -> bool:
    return sum(p * q for p, q in zip(m.m_prime, m.m_double)) % 2 == 0


@functools.lru_cache(maxsize=None)
def _mod2_table(g: int) -> tuple:
    """The 4^g binary characteristics in enumerate_mod2 order, their bits as a
    read-only (4^g x 2g) int64 matrix, and the indices of the even ones.  All
    three are immutable, so each g builds them once."""
    chars = tuple(Characteristic(g=g, m_prime=bits[:g], m_double=bits[g:])
                  for bits in itertools.product((0, 1), repeat=2 * g))
    bits = np.array([m.vector() for m in chars], dtype=np.int64)
    bits.setflags(write=False)
    return chars, bits, tuple(k for k, m in enumerate(chars) if is_even(m))


@functools.lru_cache(maxsize=None)
def _monomial_table(g: int) -> np.ndarray:
    """The read-only 4^g x (3g^2 + g) int64 matrix F = [p x p | q x q | p x q | p]
    of the binary characteristics (p, q) = (m', m'') in enumerate_mod2 order:
    column i g + j of each outer-product block holds the bit product x_i y_j.
    A quadratic form in p and q with no linear q term is F times its
    coefficient column; see character._chi_rows."""
    bits = _mod2_table(g)[1]
    p, q = bits[:, :g], bits[:, g:]

    def outer(x, y):
        return (x[:, :, None] * y[:, None, :]).reshape(len(bits), g * g)

    table = np.hstack((outer(p, p), outer(q, q), outer(p, q), p))
    table.setflags(write=False)
    return table


def enumerate_mod2(g: int) -> list:
    """All 4^g representatives in {0,1}^(2g), lexicographic by (m', m''),
    as a fresh list."""
    return list(_mod2_table(g)[0])


def enumerate_even_mod2(g: int) -> list:
    """All even representatives in {0,1}^(2g), lexicographic by (m', m'').

    There are 2^(g-1) (2^g + 1) of them.
    """
    chars, _, even = _mod2_table(g)
    return [chars[k] for k in even]


def act(mat: SymplecticMatrix, m: Characteristic) -> Characteristic:
    """Affine action: (d m' - c m'' + (c d^T)_0, -b m' + a m'' + (a b^T)_0).

    Exact over the integers; mod 2 it is a group action.  One mat-vec gives
    M (m'', -m') = (a m'' - b m', c m'' - d m'), both halves up to sign.
    """
    _check_degree(mat, m)
    rows = mat.entries.tolist()
    u = _mat_vec(rows, m.m_double + tuple(-x for x in m.m_prime))
    diag = _half_diagonals(rows)
    g = m.g
    return Characteristic(g=g, m_prime=tuple(z - x for x, z in zip(u[g:], diag[g:])),
                          m_double=tuple(x + z for x, z in zip(u[:g], diag[:g])))


def shift(m: Characteristic, n: Characteristic) -> Characteristic:
    """m + 2n, exact."""
    _check_degree(m, n)
    return Characteristic.from_vector(
        [a + 2 * b for a, b in zip(m.vector(), n.vector())])
