"""The eighth-root-valued character of the level-2 group attached to a characteristic.

Everything here is exact: characters are exponents mod 8 (value e(k/8) with
e(x) = exp(2 pi i x)), phases are integer multiples of 1/8, and no floating
point enters.  The additive encoding used throughout is

    (-1)^A  ->  exponent 4A mod 8,        e(-B/4)  ->  exponent -2B mod 8.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InterpolationInconsistent, NotLevel2, _check_degree
from .characteristics import Characteristic, _mod2_table, _monomial_table
from .symplectic import (GeneratorWord, SymplecticMatrix, _blocks, _check_indices,
                         _dot, _half_diagonals, _mat_vec, congruent_to_identity, is_level2)

_SYMBOLS = ("1", "ζ8", "i", "iζ8", "-1", "-ζ8", "-i", "-iζ8")


@dataclass(frozen=True)
class EighthRoot:
    """Element of the group of eighth roots of unity, stored as an exponent mod 8."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % 8)

    def __mul__(self, other: "EighthRoot") -> "EighthRoot":
        return EighthRoot(self.k + other.k)

    def __pow__(self, n: int) -> "EighthRoot":
        return EighthRoot(self.k * n)

    def inverse(self) -> "EighthRoot":
        return EighthRoot(-self.k)

    @property
    def value(self) -> complex:
        """Numerical value exp(2 pi i k / 8)."""
        return cmath.exp(2j * cmath.pi * self.k / 8)

    @property
    def symbol(self) -> str:
        """Human-readable name, with z8 the primitive eighth root e(1/8)."""
        return _SYMBOLS[self.k]

    def __repr__(self):
        return f"EighthRoot(k={self.k})"


_ROOTS = tuple(EighthRoot(k) for k in range(8))
ONE = _ROOTS[0]


@dataclass(frozen=True, eq=False)
class PhaseValue:
    """Exact phase from the theta transformation formula, a multiple of 1/8.

    The full value is -raw_numerator/8.  Equality and hashing only see the
    class mod 1; the unreduced numerator stays available for diagnostics.
    """

    raw_numerator: int

    @property
    def eighths(self) -> int:
        """Residue t in {0..7} with the phase congruent to t/8 mod 1."""
        return (-self.raw_numerator) % 8

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseValue):
            return NotImplemented
        return self.eighths == other.eighths

    def __hash__(self):
        return hash(self.eighths)

    def __str__(self):
        return f"{self.eighths}/8"

    def __repr__(self):
        return f"PhaseValue(raw_numerator={self.raw_numerator})"


def _phase_terms(m: Characteristic, mat: SymplecticMatrix) -> tuple:
    """b m', d m', a m'', c m'' and (a b^T)_0 as lists of Python ints, from two
    mat-vecs of the entries' int rows with (0, m') and (m'', 0)."""
    g = m.g
    rows = mat.entries.tolist()
    zero = (0,) * g
    bd = _mat_vec(rows, zero + m.m_prime)
    ac = _mat_vec(rows, m.m_double + zero)
    return bd[:g], bd[g:], ac[:g], ac[g:], _half_diagonals(rows[:g])


def phase_full(m: Characteristic, mat: SymplecticMatrix) -> PhaseValue:
    """Transformation phase for an arbitrary symplectic matrix.

    -1/8 ( m'.(b^T d).m' + m''.(a^T c).m'' - 2 m'.(b^T c).m''
           - 2 (a b^T)_0 . (d m' - c m'') ),
    with m'.(b^T d).m' = (b m').(d m') and so on for the other two forms.
    """
    _check_degree(m, mat)
    bm, dm, am, cm, ab0 = _phase_terms(m, mat)
    num = (_dot(bm, dm) + _dot(am, cm) - 2 * _dot(bm, cm)
           - 2 * _dot(ab0, map(operator.sub, dm, cm)))
    return PhaseValue(raw_numerator=num)


def phase_level2(m: Characteristic, mat: SymplecticMatrix) -> PhaseValue:
    """Simplified phase valid on the level-2 group; agrees with phase_full mod 1 there."""
    _check_degree(m, mat)
    if not is_level2(mat):
        raise NotLevel2("matrix not congruent to I mod 2")
    bm, dm, am, cm, ab0 = _phase_terms(m, mat)
    return PhaseValue(raw_numerator=_dot(bm, dm) + _dot(am, cm) - 2 * _dot(ab0, dm))


def _chi_rows(mat: SymplecticMatrix, monomials: np.ndarray) -> tuple:
    """The one character kernel: exponents k and sign bits s of chi(m, mat)
    at every binary characteristic m = (p, q) = (m', m''), as two int64 arrays
    in the order of the rows of monomials, the matrix F = [p x p | q x q |
    p x q | p] of characteristics._monomial_table.

    chi(m, M) = e(phi) (-1)^s with -8 phi = m'.(b^T d).m' + m''.(a^T c).m''
    - 2 (a b^T)_0.(d m') and s = m'.delta'' mod 2, delta = (n - m)/2 for the
    exact preimage n of m under the affine action, whose second half is
    n'' = b^T m' + d^T m'' - b^T (c d^T)_0 - d^T (a b^T)_0.  So k = 8 phi + 4 s,
    and every term depends only on M mod 8 and m mod 2:

    * m mod 2.  M = I mod 2 makes b^T d, a^T c and (a b^T)_0 even, so m -> m + 2n
      changes the phase numerator by a multiple of 8.  The preimage is affine
      in m with linear part (a^T c^T; b^T d^T) = I mod 2, so delta changes by
      an even vector and s, delta'' mod 2 included, is unchanged.
    * M mod 8.  The phase numerator is needed mod 8: b^T d and a^T c mod 8,
      (a b^T)_0.(d m') mod 4.  The sign needs n'' mod 4.  As b, d - I and
      (a b^T)_0 are even, d^T (a b^T)_0 = (a b^T)_0 and b^T (c d^T)_0 = 0 mod 4,
      so (a b^T)_0 enters mod 4 and (c d^T)_0 drops out.

    So with every entry read mod 8, both quantities are quadratic forms in the
    bits p, q, and each is F times a coefficient column:

    * num = p.(b^T d).p + q.(a^T c).q - 2 (a b^T)_0.p, the phase numerator mod
      8: d p = p mod 2 and (a b^T)_0 is even, so 2 (a b^T)_0.(d p) = 2 (a b^T)_0.p
      mod 8.  Column [b^T d, a^T c, 0, -2 (a b^T)_0].
    * t = 2 p.(n'' - q) with n'' = b^T p + d^T q - (a b^T)_0 mod 4.  n'' - q is
      even, 2 delta'' mod 4, so t = 4 (p.delta'') = 4 s mod 8, and s = (t mod 8)/4.
      Expanded, t = 2 p.b^T.p + 2 p.(d^T - I).q - 2 (a b^T)_0.p: column
      [2 b^T, 0, 2 (d^T - I), -2 (a b^T)_0].

    Then (t, num) = F C for the two-column C, and k = 4 s - num = t - num mod 8,
    where the (a b^T)_0 terms cancel.  C is read off the matrix's one residue
    mat._m8, so every coefficient is below 64 g in size and nothing overflows
    however large M is.  Raises NotLevel2 unless M = I mod 2.
    """
    g = mat.g
    if not congruent_to_identity(mat._m8, 2):
        raise NotLevel2("matrix not congruent to I mod 2")
    a, b, c, d = _blocks(mat._m8)
    ab0 = -2 * (a * b).sum(1)
    zero = 0 * b
    t = np.concatenate((2 * b.T, zero, 2 * d.T, ab0), axis=None)
    t[2 * g * g:3 * g * g:g + 1] -= 2           # the diagonal of 2 (d^T - I)
    num = np.concatenate((b.T @ d, a.T @ c, zero, ab0), axis=None)
    t, num = (monomials @ np.stack((t, num), 1)).T
    return (t - num) % 8, t % 8 // 4


def _chi_table(mat: SymplecticMatrix) -> tuple:
    """(k, s) of _chi_rows at all 4^g binary characteristics in enumerate_mod2
    order, and k as shared _ROOTS: every chi value at mat, as chi sees only m mod
    2.  Built on the first request and kept read-only in the instance dict of the
    immutable mat, as functools.cached_property would; a matrix that is not level
    2 gets none, so every request on it raises NotLevel2."""
    table = vars(mat).get("_chi_table")
    if table is None:
        k, s = _chi_rows(mat, _monomial_table(mat.g))
        k.setflags(write=False)
        s.setflags(write=False)
        table = vars(mat)["_chi_table"] = k, s, tuple(_ROOTS[x] for x in k.tolist())
    return table


def _row(m: Characteristic, mat: SymplecticMatrix) -> int:
    """Index of m mod 2 in enumerate_mod2 order, after the degree check."""
    _check_degree(m, mat)
    return m._row


def chi(m: Characteristic, mat: SymplecticMatrix) -> EighthRoot:
    """Character value e(phase) * (-1)^(m'.delta'') at a level-2 matrix, for
    every integer characteristic, odd ones included; see _chi_rows."""
    return _chi_table(mat)[2][_row(m, mat)]


def delta_sign_bit(m: Characteristic, mat: SymplecticMatrix) -> int:
    """Bit s with (-1)^s the correction sign in the character formula:
    s = m'.delta'' mod 2, see _chi_rows."""
    return int(_chi_table(mat)[1][_row(m, mat)])


def chi_exponents(mat: SymplecticMatrix) -> np.ndarray:
    """Exponents of chi at all 4^g binary characteristics, in enumerate_mod2
    order, as a fresh int64 array."""
    return _chi_table(mat)[0].copy()


def chi_generator(m: Characteristic, kind: str, i: int, j: int) -> EighthRoot:
    """Closed-form character value at a single generator.

    A(i,j): (-1)^(m'_i m''_j)   (the same form covers i == j),
    B(i,j), i<j: (-1)^(m'_i m'_j),    B(i,i): (-1)^(m'_i) e(-(m'_i)^2 / 4),
    C(i,i): e(-(m''_i)^2 / 4),        C(i,j), i<j: (-1)^(m''_i m''_j).
    """
    _check_indices(kind, i, j, m.g)
    mp, mpp = m.m_prime, m.m_double
    i0, j0 = i - 1, j - 1
    if kind == "A":
        return EighthRoot(4 * (mp[i0] * mpp[j0] % 2))
    if kind == "B":
        if i == j:
            return EighthRoot(4 * (mp[i0] % 2) - 2 * mp[i0] ** 2)
        return EighthRoot(4 * (mp[i0] * mp[j0] % 2))
    if i == j:
        return EighthRoot(-2 * mpp[i0] ** 2)
    return EighthRoot(4 * (mpp[i0] * mpp[j0] % 2))


def chi_word(m: Characteristic, w: GeneratorWord) -> EighthRoot:
    """Product of generator values along a word; equals chi of the word's matrix."""
    _check_degree(m, w)
    out = ONE
    for kind, i, j, e in w.letters:
        out = out * chi_generator(m, kind, i, j) ** e
    return out


# ---------------------------------------------------------------------------
# Exponent tables: evaluation and recovery by character interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianExponents:
    """Generator multiplicities mod the commutator subgroup, reduced to the
    moduli the character can see: p and off-diagonal q, r mod 2, diagonal
    q, r mod 4."""

    g: int
    p: tuple          # g x g rows, mod 2
    q_diag: tuple     # length g, mod 4
    q_off: tuple      # g x g rows, strict upper part meaningful, mod 2
    r_diag: tuple     # length g, mod 4
    r_off: tuple      # g x g rows, strict upper part meaningful, mod 2

    @classmethod
    def make(cls, g, p, q_diag, q_off, r_diag, r_off) -> "AbelianExponents":
        def rows(mat, modulus, strict_upper):
            out = []
            for i in range(g):
                row = []
                for j in range(g):
                    keep = j > i if strict_upper else True
                    row.append(int(mat[i][j]) % modulus if keep else 0)
                out.append(tuple(row))
            return tuple(out)

        return cls(g=g,
                   p=rows(p, 2, strict_upper=False),
                   q_diag=tuple(int(x) % 4 for x in q_diag),
                   q_off=rows(q_off, 2, strict_upper=True),
                   r_diag=tuple(int(x) % 4 for x in r_diag),
                   r_off=rows(r_off, 2, strict_upper=True))

    @classmethod
    def zero(cls, g: int) -> "AbelianExponents":
        z = [[0] * g for _ in range(g)]
        return cls.make(g, z, [0] * g, z, [0] * g, z)


def chi_from_exponents(m: Characteristic, exps: AbelianExponents) -> EighthRoot:
    """Evaluate the character from an exponent table: (-1)^A e(-B/4) with

    A = sum p_ij m'_i m''_j + sum_{i<=j} q_ij m'_i m'_j + sum_{i<j} r_ij m''_i m''_j,
    B = sum q_ii (m'_i)^2 + sum r_ii (m''_i)^2.
    """
    _check_degree(m, exps)
    g = m.g
    mp, mpp = m.m_prime, m.m_double
    a = sum(exps.p[i][j] * mp[i] * mpp[j] for i in range(g) for j in range(g))
    a += sum(exps.q_diag[i] * mp[i] * mp[i] for i in range(g))
    a += sum(exps.q_off[i][j] * mp[i] * mp[j]
             for i in range(g) for j in range(i + 1, g))
    a += sum(exps.r_off[i][j] * mpp[i] * mpp[j]
             for i in range(g) for j in range(i + 1, g))
    b = sum(exps.q_diag[i] * mp[i] ** 2 for i in range(g))
    b += sum(exps.r_diag[i] * mpp[i] ** 2 for i in range(g))
    return EighthRoot(4 * a - 2 * b)


@functools.lru_cache(maxsize=None)
def _exponent_tables(g: int) -> tuple:
    """Read-only tables for extract_abelian_exponents, one column per exponent
    in the order p_ij (row major), q_ii, q_ij (i < j), r_ii, r_ij (i < j): the
    g(2g+1) x 4^g probe-difference matrix L, each column's scale, and the
    4^g x g(2g+1) matrix A with A e = chi_from_exponents mod 8 at the binary
    characteristics in enumerate_mod2 order.  At binary m, m_i^2 = m_i and
    4 = -4 mod 8, so q_ii enters as 2 q_ii m'_i, r_ii as -2 r_ii m''_i, and every
    other exponent as 4 times a product of two bits.
    """
    bits = _mod2_table(g)[1]
    unit = 1 << np.arange(2 * g - 1, -1, -1)      # row of each one-bit characteristic
    upper = [(i, j) for i in range(g) for j in range(i + 1, g)]
    columns = ([(4, (i, g + j)) for i in range(g) for j in range(g)]
               + [(2, (i,)) for i in range(g)] + [(4, t) for t in upper]
               + [(-2, (g + i,)) for i in range(g)]
               + [(4, (g + i, g + j)) for i, j in upper])
    probe = np.zeros((len(columns), 4 ** g), dtype=np.int64)
    closed = np.empty((4 ** g, len(columns)), dtype=np.int64)
    for c, (coef, t) in enumerate(columns):
        closed[:, c] = coef * bits[:, t].prod(1) % 8
        if len(t) == 1:
            probe[c, unit[t]] = coef // 2           # k(e'_i) = 2 q_ii, -k(e''_i) = 2 r_ii
        else:
            probe[c, unit[list(t)]] = -1            # the two-unit probe minus its units
            probe[c, unit[list(t)].sum()] = 1
    tables = probe, np.array([abs(coef) for coef, _ in columns]), closed
    for t in tables:
        t.setflags(write=False)
    return tables


def extract_abelian_exponents(mat: SymplecticMatrix) -> AbelianExponents:
    """Recover the exponent table e of a level-2 matrix from its chi table k.

    By the closed form, k(e'_i) = 2 q_ii and k(e''_i) = -2 r_ii mod 8.  A two-unit
    probe e'_i + e''_j, e'_i + e'_j or e''_i + e''_j adds one cross term to the
    diagonal terms of its units, so minus its two unit probes it leaves 4 p_ij,
    4 q_ij or 4 r_ij.  So w = L k mod 8 is scale * e (see _exponent_tables).
    A e = k is then checked at all 4^g rows.  That is not circular: A is
    chi_generator's closed form summed over e, k comes from the matrix kernel
    _chi_rows.  A table outside the image of A raises InterpolationInconsistent.
    """
    g = mat.g
    probe, scale, closed = _exponent_tables(g)
    k = _chi_table(mat)[0]
    w = probe @ k % 8
    if (w % scale).any():
        raise InterpolationInconsistent(
            f"probe residuals {w.tolist()} are not multiples of {scale.tolist()}")
    e = w // scale
    miss = (closed @ e - k) % 8
    if miss.any():
        raise InterpolationInconsistent(
            f"exponents miss chi at {np.count_nonzero(miss)} of {4 ** g} binary characteristics")
    it = iter(e.tolist())                       # read in field order: p, q_ii, q_ij, r_ii, r_ij

    def square(strict):
        return tuple(tuple(next(it) if j > i or not strict else 0 for j in range(g))
                     for i in range(g))

    def diag():
        return tuple(next(it) for _ in range(g))

    return AbelianExponents(g, square(False), diag(), square(True), diag(), square(True))


def word_exponents(w: GeneratorWord) -> AbelianExponents:
    """Letter-count sums of a word, reduced to the stored moduli."""
    g = w.g
    p = [[0] * g for _ in range(g)]
    q = [[0] * g for _ in range(g)]
    r = [[0] * g for _ in range(g)]
    for kind, i, j, e in w.letters:
        {"A": p, "B": q, "C": r}[kind][i - 1][j - 1] += e
    return AbelianExponents.make(g, p, [q[i][i] for i in range(g)], q,
                                 [r[i][i] for i in range(g)], r)


# ---------------------------------------------------------------------------
# Product character and the constancy criterion
# ---------------------------------------------------------------------------

def chi_even_values(mat: SymplecticMatrix) -> dict:
    """Character exponents over all even mod-2 representatives."""
    ks = _chi_table(mat)[0].tolist()
    chars, _, even = _mod2_table(mat.g)
    return {chars[k]: ks[k] for k in even}


def is_chi_constant_over_even(mat: SymplecticMatrix) -> bool:
    """True when chi takes a single value over the even mod-2 classes.

    The character only depends on the characteristic mod 2, so the finite
    sweep decides constancy over all even integer characteristics.  Note the
    constant is necessarily 1 (the zero characteristic gives 1), and that
    constancy holds on -M whenever it holds on M: this predicate detects
    membership of M up to sign in the mod-4, diagonal-mod-8 subgroup, see
    is_igusa48_up_to_sign.
    """
    ks = _chi_table(mat)[0].take(_mod2_table(mat.g)[2])
    return bool((ks == ks[0]).all())
