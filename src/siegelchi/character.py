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

from .errors import BadShape, InterpolationInconsistent, NotLevel2, _check_degree
from .characteristics import Characteristic, _mod2_table
from .symplectic import (GeneratorWord, SymplecticMatrix, _blocks, _check_indices,
                         _dot, _half_diagonals, _int_entry, _mat_vec,
                         congruent_to_identity, is_level2)

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


@functools.lru_cache(maxsize=None)
def _basis(g: int) -> tuple:
    """The closed form of chi on the level-2 group, written once.  chi sees a
    matrix only through its generator exponents e modulo commutators: at every
    integer m = (m', m'') its exponent is sum_n coef_n e_n m_x m_y mod 8, one
    term per exponent in table order, p_ij on m'_i m''_j, q_ii on m'_i^2, q_ij
    (i < j) on m'_i m'_j, r_ii on m''_i^2, r_ij (i < j) on m''_i m''_j, with
    coef 4, but 2 for q_ii and -2 for r_ii.  Term n is its letter's value (see
    chi_generator; 4 m'_i = 4 m'_i^2 mod 8), so e_n counts mod 8/|coef_n|.

    Returns the letters (kind, i, j), 1-based, as a dict to their n; x, y
    (indices into m.vector()) and coef as tuples of Python ints; and the
    read-only 4^g x g(2g+1) int64 table of m_x m_y at the binary
    characteristics in enumerate_mod2 order."""
    upper = [(i, j) for i in range(g) for j in range(i + 1, g)]
    terms = ([("A", i, j, i, g + j, 4) for i in range(g) for j in range(g)]
             + [("B", i, i, i, i, 2) for i in range(g)]
             + [("B", i, j, i, j, 4) for i, j in upper]
             + [("C", i, i, g + i, g + i, -2) for i in range(g)]
             + [("C", i, j, g + i, g + j, 4) for i, j in upper])
    kinds, i, j, x, y, coef = zip(*terms)
    table = _mod2_table(g)[1][:, [x, y]].prod(1)
    table.setflags(write=False)
    letters = {(k, a + 1, b + 1): n for n, (k, a, b) in enumerate(zip(kinds, i, j))}
    return letters, x, y, coef, table


@functools.lru_cache(maxsize=None)
def _chi_map(g: int) -> tuple:
    """The chi kernel as one fixed bilinear map of M mod 8.  Returns the
    read-only float32 matrix W, 2 4^g x P, and the read-only index arrays X, Y
    of its P monomials: with f = [1, M mod 8 flattened row by row], the
    product v = W (f[X] f[Y]) is, mod 8, k of _chi_rows in rows 0 .. 4^g - 1
    and t in the rest, at the binary characteristics p = m', q = m'' in
    enumerate_mod2 order.

    From the two columns of _chi_rows, with the (a b^T)_0 terms cancelled in
    k = t - num,

        k = -2 p.q + 2 p.b^T.p + 2 p.d^T.q - p.(b^T d).p - q.(a^T c).q,
        t = -2 p.q + 2 p.b^T.p + 2 p.d^T.q - 2 (a b^T)_0.p,

    so each coefficient of k and t is a constant, one entry of M, or a sum
    of products of two entries.  The monomials, in W's column order, and
    their coefficients at the row of (p, q):

        1            k, t: -2 sum_i p_i q_i
        b_ji         k, t: 2 p_i p_j              (i, j) in row order
        d_ji         k, t: 2 p_i q_j
        a_ij b_ij    t: -2 p_i
        b_li d_lj    k: -p_i p_j                  (l, i, j) in row order
        a_li c_lj    k: -q_i q_j

    so P = 1 + 3 g^2 + 2 g^3.  W holds each coefficient reduced to 0..7, so
    v is k and t plus multiples of 8.

    Float32 is exact here.  Every entry of W is an integer in 0..7 and every
    product f[X] f[Y] one in 0..49, so each of v's terms is an integer in
    0..343 and, all terms being nonnegative, every partial sum in whatever
    order the product adds them is at most 343 P: 29k at g = 3 and 186k at
    g = 6, below 2^24, up to which float32 holds every integer, for every
    g <= 28.  W takes 42 KB at g = 3 and 17.7 MB at g = 6.
    """
    n, rows, gg = 2 * g, 4 ** g, g * g
    bits = _mod2_table(g)[1].astype(np.float32)
    p, q = bits[:, :g, None], bits[:, g:, None]
    pp, pq, qq = p * p.mT, p * q.mT, q * q.mT       # p_i p_j, p_i q_j, q_i q_j at each row
    a, b, c, d = _blocks(1 + np.arange(n * n).reshape(n, n))   # the index of each entry in f
    cube = (g, g, g)
    x = np.concatenate((np.zeros(1 + 2 * gg, int), a, np.broadcast_to(b[:, :, None], cube),
                        np.broadcast_to(a[:, :, None], cube)), axis=None)
    y = np.concatenate((0, b.T, d.T, b, np.broadcast_to(d[:, None], cube),
                        np.broadcast_to(c[:, None], cube)), axis=None)
    w = np.zeros((2, rows, len(x)), np.float32)
    k, t = w
    k[:, 0] = t[:, 0] = -2 * pq.trace(axis1=1, axis2=2) % 8
    k[:, 1:1 + 2 * gg] = t[:, 1:1 + 2 * gg] = 2 * np.concatenate((pp, pq), 1).reshape(rows, -1)
    t[:, 1 + 2 * gg:1 + 3 * gg] = np.repeat(6 * p[:, :, 0], g, axis=1)
    for start, form in ((1 + 3 * gg, pp), (1 + 3 * gg + g ** 3, qq)):
        k[:, start:start + g ** 3] = np.tile(7 * form.reshape(rows, gg), g)
    w = w.reshape(2 * rows, -1)
    for out in (w, x, y):
        out.setflags(write=False)
    return w, x, y


def _chi_rows(mat: SymplecticMatrix) -> tuple:
    """The one character kernel: exponents k and sign bits s of chi(m, mat)
    at every binary characteristic m = (p, q) = (m', m''), as two int64 arrays
    in enumerate_mod2 order.

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
    bits p, q, with coefficients over the monomials [p x p | q x q | p x q | p]:

    * num = p.(b^T d).p + q.(a^T c).q - 2 (a b^T)_0.p, the phase numerator mod
      8: d p = p mod 2 and (a b^T)_0 is even, so 2 (a b^T)_0.(d p) = 2 (a b^T)_0.p
      mod 8.  Column [b^T d, a^T c, 0, -2 (a b^T)_0].
    * t = 2 p.(n'' - q) with n'' = b^T p + d^T q - (a b^T)_0 mod 4.  n'' - q is
      even, 2 delta'' mod 4, so t = 4 (p.delta'') = 4 s mod 8, and s = (t mod 8)/4.
      Expanded, t = 2 p.b^T.p + 2 p.(d^T - I).q - 2 (a b^T)_0.p: column
      [2 b^T, 0, 2 (d^T - I), -2 (a b^T)_0].

    Then k = 4 s - num = t - num mod 8.  Both k and t are sums of products of
    at most two entries of M mod 8, one exact product with the fixed map of
    _chi_map, read off the matrix's one residue mat._m8, so nothing overflows
    however large M is.  Raises NotLevel2 unless M = I mod 2.
    """
    m8 = mat._m8
    if not congruent_to_identity(m8, 2):
        raise NotLevel2("matrix not congruent to I mod 2")
    w, x, y = _chi_map(mat.g)
    f = np.empty(m8.size + 1, w.dtype)
    f[0], f[1:] = 1, m8.ravel()
    v = (w @ (f[x] * f[y])).astype(np.int64)
    v %= 8
    n = len(v) // 2
    return v[:n], v[n:] >> 2


def _chi_table(mat: SymplecticMatrix) -> tuple:
    """(k, s) of _chi_rows at all 4^g binary characteristics in enumerate_mod2
    order, and k as shared _ROOTS: every chi value at mat, as chi sees only m mod
    2.  Built on the first request and kept read-only in the instance dict of the
    immutable mat, as functools.cached_property would; a matrix that is not level
    2 gets none, so every request on it raises NotLevel2."""
    table = mat.__dict__.get("_chi_table")
    if table is None:
        k, s = _chi_rows(mat)
        k.setflags(write=False)
        s.setflags(write=False)
        table = mat.__dict__["_chi_table"] = k, s, operator.itemgetter(*k.tolist())(_ROOTS)
    return table


def chi(m: Characteristic, mat: SymplecticMatrix) -> EighthRoot:
    """Character value e(phase) * (-1)^(m'.delta'') at a level-2 matrix, for
    every integer characteristic, odd ones included; see _chi_rows."""
    table = mat.__dict__.get("_chi_table") or _chi_table(mat)
    if m.g != mat.g:
        _check_degree(m, mat)
    return table[2][m._row]


def delta_sign_bit(m: Characteristic, mat: SymplecticMatrix) -> int:
    """Bit s with (-1)^s the correction sign in the character formula:
    s = m'.delta'' mod 2, see _chi_rows."""
    table = mat.__dict__.get("_chi_table") or _chi_table(mat)
    if m.g != mat.g:
        _check_degree(m, mat)
    return int(table[1][m._row])


def chi_exponents(mat: SymplecticMatrix) -> np.ndarray:
    """Exponents of chi at all 4^g binary characteristics, in enumerate_mod2
    order, as a fresh int64 array."""
    return _chi_table(mat)[0].copy()


def chi_generator(m: Characteristic, kind: str, i: int, j: int) -> EighthRoot:
    """Closed-form character value at a single generator, one term of _basis:

    A(i,j): (-1)^(m'_i m''_j)   (the same form covers i == j),
    B(i,j), i<j: (-1)^(m'_i m'_j),    B(i,i): e((m'_i)^2 / 4),
    C(i,i): e(-(m''_i)^2 / 4),        C(i,j), i<j: (-1)^(m''_i m''_j).
    """
    _check_indices(kind, i, j, m.g)
    letters, x, y, coef = _basis(m.g)[:4]
    n = letters[kind, i, j]
    v = m.vector()
    return _ROOTS[coef[n] * v[x[n]] * v[y[n]] % 8]


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
    moduli the character can see, 8/|coef| in _basis: p and off-diagonal q, r
    mod 2, diagonal q, r mod 4."""

    g: int
    p: tuple          # g x g rows, mod 2
    q_diag: tuple     # length g, mod 4
    q_off: tuple      # g x g rows, strict upper part meaningful, mod 2
    r_diag: tuple     # length g, mod 4
    r_off: tuple      # g x g rows, strict upper part meaningful, mod 2

    @classmethod
    def make(cls, g, p, q_diag, q_off, r_diag, r_off) -> "AbelianExponents":
        """The table with these entries, reduced.  Entries are read as make_matrix
        reads them: a float, a bool or a table of the wrong shape raises BadShape."""
        try:
            p, q_off, r_off = ([list(map(_int_entry, r)) for r in t] for t in (p, q_off, r_off))
            q_diag, r_diag = (list(map(_int_entry, t)) for t in (q_diag, r_diag))
        except TypeError as exc:
            raise BadShape(f"exponent entries must be integers: {exc}") from exc
        if {len(t) for t in (p, q_diag, q_off, r_diag, r_off, *p, *q_off, *r_off)} != {g}:
            raise BadShape(f"exponent tables must be g x g and diagonals of length g={g}")
        return cls._of_vector(g, cls(g, p, q_diag, q_off, r_diag, r_off)._vector())

    @classmethod
    def zero(cls, g: int) -> "AbelianExponents":
        return cls._of_vector(g, [0] * (g * (2 * g + 1)))

    @classmethod
    def _of_vector(cls, g: int, e) -> "AbelianExponents":
        """The table whose exponents in _basis order are e, each reduced mod 8/|coef|."""
        letters, _, _, coef = _basis(g)[:4]
        rows = {k: [[0] * g for _ in range(g)] for k in "ABC"}
        diag = {k: [0] * g for k in "BC"}
        for (k, i, j), x, c in zip(letters, e, coef):
            if k != "A" and i == j:
                diag[k][i - 1] = x % (8 // abs(c))
            else:
                rows[k][i - 1][j - 1] = x % (8 // abs(c))
        p, q, r = (tuple(map(tuple, rows[k])) for k in "ABC")
        return cls(g, p, tuple(diag["B"]), q, tuple(diag["C"]), r)

    def _vector(self) -> list:
        """The exponents in _basis order."""
        rows = {"A": self.p, "B": self.q_off, "C": self.r_off}
        diag = {"B": self.q_diag, "C": self.r_diag}
        return [diag[k][i - 1] if k != "A" and i == j else rows[k][i - 1][j - 1]
                for k, i, j in _basis(self.g)[0]]


def chi_from_exponents(m: Characteristic, exps: AbelianExponents) -> EighthRoot:
    """Evaluate the character from an exponent table by the closed form of
    _basis: exponent sum_n coef_n e_n m_x m_y mod 8, at every integer m."""
    _check_degree(m, exps)
    _, x, y, coef = _basis(m.g)[:4]
    v = m.vector()
    terms = zip(coef, exps._vector(), x, y)
    return _ROOTS[sum(c * e * v[s] * v[t] for c, e, s, t in terms) % 8]


@functools.lru_cache(maxsize=None)
def _exponent_tables(g: int) -> tuple:
    """Read-only tables for extract_abelian_exponents, one column per exponent
    in _basis order: the g(2g+1) x 4^g probe-difference matrix L, each column's
    scale |coef|, and the 4^g x g(2g+1) matrix A = coef x table mod 8, so that
    A e = chi_from_exponents mod 8 at the binary characteristics in
    enumerate_mod2 order.
    """
    _, x, y, coef, table = _basis(g)
    unit = 1 << np.arange(2 * g - 1, -1, -1)      # row of each one-bit characteristic
    probe = np.zeros((len(coef), 4 ** g), dtype=np.int64)
    for n, (s, t, c) in enumerate(zip(x, y, coef)):
        if s == t:
            probe[n, unit[s]] = c // 2              # k(e'_i) = 2 q_ii, -k(e''_i) = 2 r_ii
        else:
            probe[n, unit[[s, t]]] = -1             # the two-unit probe minus its units
            probe[n, unit[s] + unit[t]] = 1
    tables = probe, np.abs(coef), np.array(coef) * table % 8
    for t in tables:
        t.setflags(write=False)
    return tables


def extract_abelian_exponents(mat: SymplecticMatrix) -> AbelianExponents:
    """Recover the exponent table e of a level-2 matrix from its chi table k.

    By the closed form, k(e'_i) = 2 q_ii and k(e''_i) = -2 r_ii mod 8.  A two-unit
    probe e'_i + e''_j, e'_i + e'_j or e''_i + e''_j adds one cross term to the
    diagonal terms of its units, so minus its two unit probes it leaves 4 p_ij,
    4 q_ij or 4 r_ij.  So w = L k mod 8 is scale * e (see _exponent_tables).
    A e = k is then checked at all 4^g rows.  That is not circular: A is the
    closed form of _basis, k comes from the matrix kernel _chi_rows.  A table
    outside the image of A raises InterpolationInconsistent.
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
    return AbelianExponents._of_vector(g, e.tolist())


def word_exponents(w: GeneratorWord) -> AbelianExponents:
    """Letter-count sums of a word, reduced to the stored moduli."""
    letters = _basis(w.g)[0]
    e = [0] * len(letters)
    for kind, i, j, x in w.letters:
        e[letters[kind, i, j]] += x
    return AbelianExponents._of_vector(w.g, e)


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
