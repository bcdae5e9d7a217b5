"""Floating-point theta constants by lattice sums over an ellipsoid, the
generalized Mobius action, and transformation-formula checks in which the
unknown eighth-root multiplier cancels.  Every theta value comes from one
enumerator, _half_lattice, which walks a stack of points in one pass:
theta_constants sums one point, and each verification sweep sums tau and
M tau together.

All arithmetic here is binary64.  Exact statements live in the character
module; this module only ever confirms them within an explicit tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .errors import (NonPositiveTolerance, NotUpperHalfSpace, SingularFactor,
                     TooFewUsable, _check_degree)
from .characteristics import Characteristic, _mod2_table, act, is_even
from .character import EighthRoot, _chi_table, phase_full
from .symplectic import SymplecticMatrix

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_TOL = 1e-6
THETA_FLOOR = 1e-4        # characteristics with |theta| below this are unusable
SYMMETRY_TOL = 1e-12
COND_LIMIT = 1e12
_BLOCK = 1 << 12          # most lattice points held in one array
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])   # cos(pi k / 2)
_ROOT_VALUES = tuple(EighthRoot(k).value for k in range(8))   # exp(2 pi i k / 8)


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """Symmetric complex g x g tau, Im(tau) > 0 with least eigenvalue im_min_eig."""

    g: int
    tau: np.ndarray

    def __post_init__(self):
        self.tau.setflags(write=False)
        y = self.tau.imag
        object.__setattr__(self, "im_min_eig", float(np.linalg.eigvalsh((y + y.T) / 2.0)[0]))

    @classmethod
    def make(cls, tau) -> "SiegelPoint":
        try:
            mat = np.array(tau, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise NotUpperHalfSpace(f"tau must be a complex matrix: {exc}") from exc
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise NotUpperHalfSpace(f"tau must be square and non-empty, got shape {mat.shape}")
        _check_range(mat, "tau")
        if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL:
            raise NotUpperHalfSpace("tau is not symmetric within 1e-12")
        point = cls(g=mat.shape[0], tau=mat)
        if point.im_min_eig <= 0.0:
            raise NotUpperHalfSpace("Im(tau) is not positive definite")
        return point

    def __repr__(self):
        return f"SiegelPoint(g={self.g}, tau={self.tau.tolist()})"


def _check_range(mat: np.ndarray, name: str):
    """NotUpperHalfSpace unless every part of mat is finite and at most half the
    binary64 maximum, so no two add to an overflow: one comparison, failed by NaN."""
    if not np.abs(mat.view(float)).max() <= np.finfo(float).max / 2.0:
        raise NotUpperHalfSpace(f"{name} has a non-finite entry or one past half the binary64 max")


def siegel_point(tau) -> SiegelPoint:
    """Validated point of the degree-g upper half-space."""
    return SiegelPoint.make(tau)


def truncation_radius(m: Characteristic, point: SiegelPoint, tail_tol: float) -> float:
    """Radius R of the ellipsoid v.Y.v <= lam R^2 that theta_constants sums,
    Y = Im(tau) with smallest eigenvalue lam: the smallest R >= 1/2 +
    sqrt(g/2)/rho with B(R) <= tail_tol * THETA_FLOOR, rho = sqrt(pi lam).
    B(R) bounds the sum of the moduli of the terms left out, so every theta
    constant above THETA_FLOOR is off by at most tail_tol relative to itself.

    The bound (Deconinck, Heil, Bobenko, van Hoeij & Schmies, "Computing
    Riemann theta functions", Math. Comp. 73, 2004, Theorem 2; compare
    Frauendiener, Jaber & Klein, J. Geom. Phys. 141, 2019).  Write Y = T^T T
    and x = sqrt(pi) T v for v in Z^g + m'/2, so each term has modulus
    exp(-|x|^2) and the ellipsoid is |x| <= rho R.  Two points of the coset
    differ by sqrt(pi) T n, n in Z^g nonzero, of length at least
    sqrt(pi lam) |n| >= rho, so the balls B(x, rho/2) are disjoint.
    f(y) = exp(-|y|^2) has Laplacian (4|y|^2 - 2g) f, so it is subharmonic
    where |y| >= sqrt(g/2); for |x| > rho R >= rho/2 + sqrt(g/2) the whole
    ball B(x, rho/2) lies there, and f(x) is at most the mean of f over it.
    The balls of the terms left out are disjoint and lie in |y| >= rho R -
    rho/2, so with the ball volume pi^(g/2) (rho/2)^g / Gamma(g/2 + 1) and
    the sphere area 2 pi^(g/2) r^(g-1) / Gamma(g/2), those terms sum to at most

        B(R) = (g/2) (2/rho)^g Gamma(g/2, rho^2 (R - 1/2)^2),

    Gamma(s, x) the upper incomplete gamma function.  B does not depend on
    the coset, nor on m at all: m is kept in the signature for
    benchmarks/workloads.py, which calls this once per characteristic, until
    that benchmark is next changed (ROADMAP item 5).

    R solves ln B(R) = ln(tail_tol * THETA_FLOOR) by Newton steps in
    x = rho^2 (R - 1/2)^2 >= g/2, and is then stepped up until B(R) <= the
    target holds as computed in binary64 logs, so to a relative 1e-12.
    """
    if not tail_tol > 0.0:
        raise NonPositiveTolerance("tail_tol must be positive")
    g, s = point.g, point.g / 2.0
    rho = math.sqrt(math.pi * point.im_min_eig)
    goal = math.log(tail_tol) + math.log(THETA_FLOOR) - math.log(s) - g * math.log(2.0 / rho)
    x = s
    if _log_upper_gamma(s, x) > goal:
        x = max(s, -goal)
        for _ in range(50):
            lg = _log_upper_gamma(s, x)
            step = (lg - goal) * math.exp(lg + x - (s - 1.0) * math.log(x))
            x = max(s, x + step)
            if abs(step) <= 1e-13 * x:
                break
    r = 0.5 + math.sqrt(x) / rho
    while _log_upper_gamma(s, (rho * (r - 0.5)) ** 2) > goal:
        r += 1e-12 * r
    return r


def _log_upper_gamma(s: float, x: float) -> float:
    """ln Gamma(s, x) for s in {1/2, 1, 3/2, ...} and x > 0, with math only.
    G(s) = e^x Gamma(s, x) is 1 at s = 1 and sqrt(pi) e^x erfc(sqrt x) at
    s = 1/2, and G(s + 1) = s G(s) + x^s.  Past x = 700, where e^x nears
    overflow, G(1/2) is taken as x^-1/2 (1 - 1/(2x) + 3/(4x^2)): the
    asymptotic series cut after a positive term, which bounds it from above.
    """
    if s % 1.0 == 0.0:
        k, scaled = 1.0, 1.0
    elif x < 700.0:
        k, scaled = 0.5, math.sqrt(math.pi) * math.exp(x) * math.erfc(math.sqrt(x))
    else:
        k, scaled = 0.5, (1.0 - 0.5 / x + 0.75 / (x * x)) / math.sqrt(x)
    while k < s:
        scaled = k * scaled + x ** k
        k += 1.0
    return math.log(scaled) - x


def _runs(lo, count: np.ndarray) -> tuple:
    """The integers lo[c], lo[c] + 1, ..., lo[c] + count[c] - 1 of each column
    c in turn, each run's start repeated along it plus the running index, and
    the index at which each run begins."""
    ends = count.cumsum()
    starts = ends - count
    return (lo - starts).repeat(count) + np.arange(ends[-1]), starts


def _extend(urow: np.ndarray, cols: np.ndarray, rest: np.ndarray, heads, low: int) -> tuple:
    """Each n_i in Z with U_ii^2 (n_i - c_i)^2 <= rest for each column of the
    later coordinates cols, urow holding each column's U_ii, U_i,i+1, ... as
    rows, and n_i >= low on the columns heads, where the later ones are all
    zero.  Returns n_i, their number and first index per column, and each
    column's U_ii and centre c_i, its sum formed from j = i + 1 up.

    At a head c_i = -0/U_ii = 0, so ceil(c_i - width) <= 0 and the bound
    there is low itself.  A count is never negative: c - w <= c + w, rounded
    or not, and ceil(x) <= floor(x) + 1."""
    uii = urow[0]
    centre = -sum(c * n for c, n in zip(urow[1:], cols)) / uii
    width = np.sqrt(np.maximum(rest, 0.0)) / uii
    lo = np.ceil(centre - width)
    lo[heads] = low
    count = (np.floor(centre + width) - lo).astype(np.int64) + 1
    ni, starts = _runs(lo.astype(np.int64), count)
    return ni, count, starts, uii, centre


def _pair_sum(row: np.ndarray, i: int, later: np.ndarray) -> np.ndarray:
    """l_i = sum_{j>i} (a_ij + a_ji) n_j, row = (a + a^T)[i] or one such row
    per column, later = n_{i+1..}, summed from j = i + 1 up."""
    return sum(row[..., j] * n for j, n in enumerate(later, i + 1))


def _quad(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """n.a.n for each column of n, from the last coordinate to the first:
    z_i = (a_ii n_i + l_i) n_i + z_{i+1} with l_i = _pair_sum, the form
    _half_lattice builds from its partial sums.  Every step is elementwise,
    and a complex times an integer-valued float, like a complex sum, rounds
    each part once, as the real operations would; so a point gets the same
    bits in whatever block it falls, and the same here as in _half_lattice."""
    pair = a + a.T
    z = a[-1, -1] * n[-1] * n[-1]
    for i in range(len(a) - 2, -1, -1):
        z = (a[i, i] * n[i] + _pair_sum(pair[i], i, n[i + 1:])) * n[i] + z
    return z


def _half_lattice(t: np.ndarray, rho2: np.ndarray):
    """For a stack of forms t (P, g, g) and cuts rho2 (P, 2^g), yield, for one
    n of each pair +-n of nonzero points of Z^g with Im z <= rho2[p, coset of
    n], z = n.t[p].n and cls = p 4^g + (n mod 4), in blocks (z, cls), the
    class n mod 4 and coset indices as in _class_tables.  The n taken is the
    one whose last nonzero coordinate is positive; a point whose every rho2
    is negative yields nothing.

    With y = Im t[p] = U^T U, U upper triangular, n.y.n = sum_i U_ii^2 (n_i -
    c_i)^2 and c_i = -sum_{j>i} U_ij n_j / U_ii: coordinates are fixed from
    the last to the first within the radius the later ones leave (Fincke &
    Pohst, Math. Comp. 44, 1985; Deconinck et al., Math. Comp. 73, 2004), n_i
    >= 0 while the later ones are all zero.  One walk serves the stack: each
    column of n_{i+1..} carries its point p and reads its own U and t + t^T.
    Bounds use max(rho2[p]) enlarged by 1e-9 and each block is cut by Im z
    itself, so rounding in U and c_i neither drops nor adds a point.

    z and cls are partial sums: a column of n_{i+1..} with form z' and class
    k' gets, for each n_i, z = (t_ii n_i + l_i) n_i + z' and class
    4^(g-1-i) (n_i mod 4) + k', with l_i = _pair_sum formed once per column.
    This is _quad step by step, so z = _quad(t[p], n) bit for bit: n is held
    as int64, and numpy multiplies a complex by it as by the equal float.

    Blocks.  The columns of n_1.. of point p are cut into runs of per =
    _BLOCK // (2 floor(sqrt(max rho2[p]) / U_00) + 2) columns, about _BLOCK
    points at most, and block a joins the a-th run of every point that has
    one.  Two runs of one point never share a block, so a class sums the same
    terms in the same bincounts whatever else the stack holds: every point's
    class sums have the bits of a stack of that point alone.
    """
    count, g = t.shape[:2]
    k = g - 1
    y = t.imag
    u = np.linalg.cholesky((y + y.transpose(0, 2, 1)) / 2.0).transpose(0, 2, 1)
    pair = t + t.transpose(0, 2, 1)
    weights, class_coset = _class_tables(g)[:2]
    cut = rho2[:, class_coset].ravel()
    top = rho2.max(axis=1, initial=0.0) * (1.0 + 1e-9)
    span = np.floor(np.sqrt(top) / u[:, k, k]).astype(np.int64) + (k > 0)
    ni, heads = _runs(int(k == 0), span)
    pt = np.arange(count).repeat(span)
    z, cls = t[:, k, k].take(pt) * ni * ni, (pt << 2 * g) + (ni & 3)
    if k == 0:
        keep = z.imag <= cut[cls]
        yield z[keep], cls[keep]
        return
    rest = top.take(pt) - (u[:, k, k].take(pt) * ni) ** 2
    cols = ni[None]
    for i in range(k - 1, 0, -1):
        urow = u[:, i, i:].T.take(pt, axis=1)
        ni, runs, starts, uii, centre = _extend(urow, cols, rest, heads, 0)
        ell = _pair_sum(pair[:, i].take(pt, axis=0), i, cols)
        heads = starts[heads]
        pt = pt.repeat(runs)
        rest = rest.repeat(runs) - (uii.repeat(runs) * (ni - centre.repeat(runs))) ** 2
        z = (t[:, i, i].take(pt) * ni + ell.repeat(runs)) * ni + z.repeat(runs)
        cls = weights[i] * (ni & 3) + cls.repeat(runs)
        cols = np.concatenate((ni[None], cols.repeat(runs, axis=1)))
    ell = _pair_sum(pair[:, 0].take(pt, axis=0), 0, cols)
    urow, t00 = u[:, 0].T.take(pt, axis=1), t[:, 0, 0].take(pt)
    zero = np.zeros(cols.shape[1], dtype=bool)
    zero[heads] = True
    chunks = []
    for h, e, x, d in zip(heads.tolist(), heads[1:].tolist() + [len(zero)], top.tolist(),
                          u[:, 0, 0].tolist()):
        per = max(1, _BLOCK // (2 * int(math.sqrt(x) / d) + 2))
        chunks.append([(a, min(a + per, e)) for a in range(h, e, per)])
    for parts in zip_longest(*chunks):
        parts = [run for run in parts if run]
        if all(b == c for (_, b), (c, _) in zip(parts, parts[1:])):
            sel = slice(parts[0][0], parts[-1][1])      # contiguous: views, no gathers
        else:
            sel = np.concatenate([np.arange(a, b) for a, b in parts])
        ni, runs, _, _, _ = _extend(urow[:, sel], cols[:, sel], rest[sel], zero[sel], 1)
        nc = ni.astype(complex)
        zb = (t00[sel].repeat(runs) * nc + ell[sel].repeat(runs)) * nc + z[sel].repeat(runs)
        kb = weights[0] * (ni & 3) + cls[sel].repeat(runs)
        keep = zb.imag <= cut[kb]
        yield (zb, kb) if keep.all() else (zb[keep], kb[keep])


@lru_cache(maxsize=None)
def _class_tables(g: int) -> tuple:
    """The weight of each base-4 digit of a class n mod 4 (n_0 first), each
    class's coset n mod 2 in binary digits, and at [b, j], [j, h] and [b, h]
    for binary b, j, h: the class b + 2j, (-1)^(j.h) and cos(pi b.h / 2)."""
    classes = np.indices((4,) * g).reshape(g, -1)
    binary = np.indices((2,) * g).reshape(g, -1)
    dots = binary.T @ binary
    tables = (4 ** np.arange(g - 1, -1, -1), np.ravel_multi_index(classes & 1, (2,) * g),
              np.ravel_multi_index(binary[:, :, None] + 2 * binary[:, None], (4,) * g),
              1.0 - 2.0 * (dots & 1), _COS_QUARTER[dots & 3])
    for t in tables:
        t.setflags(write=False)
    return tables


def _class_sums(t: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """S[k], the sum of exp(pi i z) over the points (z, k) of _half_lattice(t,
    rho2) in class k, for each of the P 4^g classes of a stack of P forms;
    point p's class c at k = p 4^g + c, c as in _class_tables.

    Each term is turned by the half-angle identity: with theta = pi Re z and h
    = tan(theta / 2),

        exp(i theta) = ((1 - h^2) + 2 i h) / (1 + h^2),

    so a block takes one np.tan where it took np.cos and np.sin, the costlier
    pair in numpy's float64 loops (BENCH_tan_phase.json), and with w =
    exp(-pi Im z) / (1 + h^2) a term is w (1 - h^2) + 2 i w h.  The argument
    (pi/2) Re z is pi Re z halved, bit for bit: pi/2 is the binary64 pi times
    1/2, exactly.  The 2 of 2 w h is applied to the class sum, which scales
    it exactly as it would each term.

    Error per term and part, relative to the computed exp(-pi Im z), with u =
    2^-53.  Against 120-bit mpmath on 8000 arguments in +-600 and 8000 in +-4:
    at most 2.0 u in the real part and 2.2 u in the imaginary part, np.tan
    within 0.54 ulp there; np.cos and np.sin reach 0.5 u, and dividing by q =
    1 + h^2 twice, (1 - h^2)/q and 2h/q, 1.9 u for a second division.  To
    first order, with tan off by e_t relative and c = h^2 / (1 + h^2): h^2 is
    off by at most 2 e_t + u relative, which moves (1 - h^2)/(1 + h^2) by
    2c(1 - c) times that, and the four other roundings add |cos theta| u
    each; the imaginary part is off by e_t + c(2 e_t + u) + 3u relative,
    times |sin theta| = 2 sqrt(c(1 - c)).  With tan within one ulp, e_t <=
    2u, that is at most 4.1 u and 7.9 u.

    Range.  theta / 2 is a binary64 number, and none lies within about 2^-61
    of an odd multiple of pi/2: the worst case over all binary64 of reduction
    mod pi/2 is 6381956970095103 * 2^797, 2^-60.9 from an odd multiple, where
    tan is -2.1e18 (Muller, Elementary Functions, 3rd ed., 2016, ch. 11).  So
    h is finite, |h| < 2^62, and h^2 < 2^124 cannot overflow.  Re z and Im z
    are finite (t after fmod, and the cut bounds n), so exp(-pi Im z) is
    finite, w is finite as 1 + h^2 >= 1, and 0 times the finite 1 - h^2 or h
    is 0 where exp underflows: no inf or NaN reaches a class sum.
    """
    sums = np.zeros(len(t) << 2 * t.shape[1], dtype=complex)
    for z, cls in _half_lattice(t, rho2):
        h = np.tan((0.5 * math.pi) * z.real)
        hh = h * h
        w = np.exp(-math.pi * z.imag) / (1.0 + hh)
        sums += np.bincount(cls, w * (1.0 - hh), len(sums))
        sums += 2j * np.bincount(cls, w * h, len(sums))
    return sums


def _signed_rows(chars) -> tuple:
    """m._row of each m and whether theta[m] = -theta[m mod 2]: m'.(m'' >> 1) odd."""
    return ([m._row for m in chars],
            [sum(p & (q >> 1) for p, q in zip(m.m_prime, m.m_double)) & 1 for m in chars])


def _theta_rows(reads, tail_tol: float) -> list:
    """For each (rows, point) in reads, all of one degree, the theta constants
    at the binary characteristics of those rows of enumerate_mod2, in order,
    from one lattice pass over every point, each summing the cosets of its own
    rows; see theta_constants."""
    g = reads[0][1].g
    t = np.array([point.tau for _, point in reads])
    t.real = np.fmod(t.real, 8.0)
    rho2 = np.full((len(reads), 2 ** g), -1.0)      # cosets no row asks for stay empty
    for cuts, (rows, point) in zip(rho2, reads):
        r = truncation_radius(None, point, tail_tol)
        cuts[np.asarray(rows, dtype=np.int64) >> g] = point.im_min_eig * r * r
    _, _, lift, signs, quarter = _class_tables(g)
    sums = _class_sums(t / 4.0, rho2).reshape(len(reads), -1)
    tables = 2.0 * (quarter * (sums[:, lift] @ signs))
    tables[:, 0] += 1.0
    return [table.ravel().take(rows).tolist() for table, (rows, _) in zip(tables, reads)]


def theta_constants(chars, point: SiegelPoint, tail_tol: float = DEFAULT_TAIL_TOL) -> list:
    """Theta constants sum exp(pi i (v.tau.v + v.m'')) over v in Z^g + m'/2,
    one per characteristic in chars (any iterable), in order, from one lattice
    pass: _signed_rows, then _theta_rows with the point alone, a stack of one.

    Every coset m' mod 2 sums the terms of modulus at least exp(-pi lam R^2),
    the ellipsoid v.Y.v <= lam R^2: Y = Im(tau) with smallest eigenvalue lam,
    R = truncation_radius, the same for every coset and so found once per call.
    With n = 2v, the coset is the set of n in Z^g with n = m' mod 2, and
    v.tau.v = n.(tau/4).n: tau/4 is exact, as scaling by a power of two is,
    and the enumerator forms z = n.(tau/4).n once per point, Im z for the cut
    and the modulus, Re z for the turn (_class_sums), with Re tau read mod 8 by
    np.fmod, exact and the identity on |x| < 8: moving one entry by 8k turns
    each term by exp(2 pi i k n_i n_j) = 1, for a tau symmetric or not, and
    keeps pi Re z small.

    n -> -n maps a coset to itself, keeps z and conjugates exp(pi i v.m'') =
    i^(n.m''), so a pair +-n adds 2 exp(-pi Im z) exp(pi i Re z) cos(pi n.m''
    / 2), and n = 0 adds 1 to coset 0.  Cosine and coset see n mod 4 only, so
    terms are first summed per class of n mod 4, S[k].  Coset b holds the
    classes b + 2j, j binary, and for binary h, cos(pi (b + 2j).h / 2) =
    cos(pi b.h / 2) (-1)^(j.h), cos(pi k / 2) = [1, 0, -1, 0][k mod 4] exactly;
    so theta[b, h] = [b = 0] + 2 cos(pi b.h / 2) sum_j (-1)^(j.h) S[b + 2j] at
    every binary row from one +-1 product, exactly 0 where b.h is odd.  Any
    other m is read at its row mod 2, signed: m' enters only through its
    coset, and m'' = h + 2j'' turns each term by exp(2 pi i v.j'') =
    (-1)^(m'.j''), as v - m'/2 is in Z^g.  The summation order is fixed.
    """
    chars = list(chars)
    if not chars:
        return []
    for m in chars:
        _check_degree(m, point)
    rows, flips = _signed_rows(chars)
    values = _theta_rows([(rows, point)], tail_tol)[0]
    return [-v if flip else v for v, flip in zip(values, flips)]


def theta_constant(m: Characteristic, point: SiegelPoint,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> complex:
    """The theta constant at one characteristic; see theta_constants."""
    return theta_constants([m], point, tail_tol)[0]


# ---------------------------------------------------------------------------
# Mobius action and the square-root factor
# ---------------------------------------------------------------------------

def _transform(mat: SymplecticMatrix, point: SiegelPoint) -> tuple:
    """(M tau, det(c tau + d)) from one c tau + d, checked once for
    conditioning; M tau = (a tau + b)(c tau + d)^-1, range-checked as tau is,
    then re-symmetrized as out/2 + out^T/2: exactly symmetric, (out + out^T)/2
    bit for bit for normal numbers, and free of overflow; Im(M tau) positive
    definite (NotUpperHalfSpace, as is an entry of M past binary64).  The
    caller has checked that M and tau share a degree."""
    try:
        g, e = point.g, mat.entries.astype(float)
    except OverflowError as exc:
        raise NotUpperHalfSpace(f"M has an entry past the binary64 range: {exc}") from exc
    den = e[g:, :g] @ point.tau + e[g:, g:]
    s = np.linalg.svd(den, compute_uv=False).tolist()    # cond(den) is s[0] / s[-1]
    if not s[0] <= COND_LIMIT * s[-1]:      # Python floats: inf past the range, NaN fails
        raise SingularFactor("c tau + d is numerically singular")
    out = (e[:g, :g] @ point.tau + e[:g, g:]) @ np.linalg.inv(den)
    _check_range(out, "M tau")
    moved = SiegelPoint(g=g, tau=out / 2.0 + out.T / 2.0)
    if moved.im_min_eig <= 0.0:
        raise NotUpperHalfSpace("Im(M tau) is not positive definite")
    return moved, complex(np.linalg.det(den))


def mobius(mat: SymplecticMatrix, point: SiegelPoint) -> SiegelPoint:
    """(a tau + b)(c tau + d)^-1, re-symmetrized and revalidated."""
    _check_degree(mat, point)
    return _transform(mat, point)[0]


def det_sqrt_factor(mat: SymplecticMatrix, point: SiegelPoint) -> complex:
    """Principal square root of det(c tau + d); argument in (-pi/2, pi/2].

    Every characteristic in one verification call shares the same branch
    value, otherwise the multiplier could not cancel.
    """
    _check_degree(mat, point)
    return cmath.sqrt(_transform(mat, point)[1])


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one transformation-formula sweep.

    ratios holds the unit estimates, one per characteristic (per pair for
    the product sweep); estimated_unit is their mean, the branch-adjusted
    multiplier.  max_deviation is their largest pairwise difference, or for
    the product sweep a bound on that of every pair; see
    verify_igusa_product.  passed requires max_deviation within tolerance,
    the unit to have modulus 1 within tolerance, and its eighth power (its
    fourth for the product sweep) to be 1 within 8x (4x) tolerance.
    """

    m_list: tuple
    ratios: tuple
    estimated_unit: complex
    max_deviation: float
    tolerance: float
    passed: bool


def _max_deviation(values) -> float:
    """max |r_i - r_j| over all pairs, bit for bit the pairwise loop over
    abs() of Python complex differences: np.hypot rounds exactly as abs()
    does, and r_i - r_j is -(r_j - r_i) exactly.  Blocks of 256 rows are
    compared with every row, at most 2080 x 256 differences at g = 6.  With
    an inf or NaN, where inf - inf is NaN, each row is its own block, and
    max() of the row maxima keeps the loop's answer: inf for an inf, NaN for
    a NaN."""
    r = np.array(values)
    step = 256 if np.isfinite(r).all() else 1
    return float(max(np.hypot(d.real, d.imag).max()
                     for d in (r[i:i + step, None] - r for i in range(0, len(r), step))))


def _assemble_report(labels, ratios, tol, unit_power: int = 8, dev=None) -> VerificationReport:
    unit = sum(ratios) / len(ratios)
    dev = _max_deviation(ratios) if dev is None else dev
    ok = (dev <= tol
          and abs(abs(unit) - 1.0) <= tol
          and abs(unit ** unit_power - 1.0) <= unit_power * tol)
    return VerificationReport(m_list=tuple(labels), ratios=tuple(ratios),
                              estimated_unit=unit, max_deviation=dev,
                              tolerance=float(tol), passed=bool(ok))


def _usable(vals) -> list:
    """The positions of vals above THETA_FLOOR; TooFewUsable unless two."""
    kept = [i for i, val in enumerate(vals) if abs(val) > THETA_FLOOR]
    if len(kept) < 2:
        raise TooFewUsable(f"only {len(kept)} theta constants above the floor")
    return kept


def _sweep(mat: SymplecticMatrix, point: SiegelPoint, rows, image_rows, tail_tol: float) -> tuple:
    """The body of every verification sweep, after the caller's degree checks:
    one M tau and det(c tau + d) (SingularFactor), then theta at tau at rows
    and at M tau at image_rows from one lattice pass, and the positions whose
    theta at tau is above THETA_FLOOR (TooFewUsable unless two).  TooFewUsable
    comes first: when the transform fails, theta at tau alone decides which
    error is raised.  Returns the kept positions, theta at tau and at M tau at
    them, and the det."""
    try:
        image, det = _transform(mat, point)
    except (SingularFactor, NotUpperHalfSpace):
        _usable(_theta_rows([(rows, point)], tail_tol)[0])
        raise
    vals, tops = _theta_rows([(rows, point), (image_rows, image)], tail_tol)
    kept = _usable(vals)
    return kept, [vals[i] for i in kept], [tops[i] for i in kept], det


def verify_character(mat: SymplecticMatrix, point: SiegelPoint,
                     tol: float = DEFAULT_TOL,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Check that theta(m, M tau) / (sqrt-det * theta(m, tau) * chi) is m-free.

    The common value of the ratios is the branch-adjusted multiplier of the
    matrix; it is never compared against a predicted value, only tested for
    unit modulus and trivial eighth power.
    """
    ks = _chi_table(mat)[0].tolist()    # raises NotLevel2 before any theta work
    _check_degree(mat, point)
    chars, _, evens = _mod2_table(mat.g)
    kept, vals, tops, det = _sweep(mat, point, evens, evens, tail_tol)
    rows = [evens[i] for i in kept]
    root = cmath.sqrt(det)
    ratios = [top / (root * val) / _ROOT_VALUES[ks[r]] for r, val, top in zip(rows, vals, tops)]
    return _assemble_report([chars[r] for r in rows], ratios, tol)


def verify_transformation_general(mat: SymplecticMatrix, m_set, point: SiegelPoint,
                                  tol: float = DEFAULT_TOL,
                                  tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Full-group transformation check with the unreduced action and full phase.

    For each even m in m_set with theta above the floor, compares
    theta(M o m, M tau) against e(phase) * sqrt-det * theta(m, tau); the
    ratio must not depend on m.  Valid for every symplectic matrix.  M tau
    sums the cosets of every M o m offered, as which m are kept is known only
    after the pass.
    """
    chars = [m for m in m_set if is_even(m)]
    for x in (mat, *chars):
        _check_degree(x, point)
    if not chars:
        raise TooFewUsable("only 0 theta constants above the floor")
    rows, flips = _signed_rows(chars)
    image_rows, image_flips = _signed_rows([act(mat, m) for m in chars])
    kept, vals, tops, det = _sweep(mat, point, rows, image_rows, tail_tol)
    root = cmath.sqrt(det)
    ratios = [(-top if image_flips[i] else top) / (_ROOT_VALUES[phase_full(chars[i], mat).eighths]
                                                   * root * (-val if flips[i] else val))
              for i, val, top in zip(kept, vals, tops)]
    return _assemble_report([chars[i] for i in kept], ratios, tol)


def verify_igusa_product(m: Characteristic, n: Characteristic,
                         mat: SymplecticMatrix, point: SiegelPoint,
                         tol: float = DEFAULT_TOL,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Pair-independence of the product-character ratio.

    psi = theta_m theta_n transforms with det(c tau + d) and chi_m chi_n, so
    r_ab = q_a q_b / det, q_a = theta_a(M tau) / (theta_a(tau) zeta^k_a),
    must be the same for every pair of usable even a, b, and its fourth
    power 1; no square root is taken, so no branch enters.  The K values q_a
    are formed once, and the report holds K ratios: (m, n), then (m, a) for
    every other kept a.  max_deviation = 2 max|q| diam{q} / |det| bounds the
    deviation of every pair, |q_a q_b - q_c q_d| <= |q_a| |q_b - q_d| + |q_d|
    |q_a - q_c|, and is at most twice the largest, as the pairs (a*, b) with
    |q_a*| = max|q| already reach max|q| diam{q}.  With the q_a close it is
    the largest to first order, diam(S + S) being 2 diam(S).  A sign wrong
    at one row gives about 4, where the diagonal pairs |q_a^2 - q_c^2| would
    not see it.

    m and n are read at their rows mod 2: chi sees m mod 2 only, and
    theta[m + 2j] = (-1)^(m'.j'') theta[m] with one sign at tau and M tau.
    """
    ks = _chi_table(mat)[0].tolist()    # raises NotLevel2 before any theta work
    if not (is_even(m) and is_even(n)):
        raise TooFewUsable("product verification needs even characteristics")
    for x in (mat, m, n):
        _check_degree(x, point)
    chars, _, evens = _mod2_table(mat.g)
    kept, vals, tops, det = _sweep(mat, point, evens, evens, tail_tol)
    rows = [evens[i] for i in kept]
    if m._row not in rows or n._row not in rows:
        raise TooFewUsable("requested characteristic below the theta floor")
    q = [top / (val * _ROOT_VALUES[ks[r]]) for r, val, top in zip(rows, vals, tops)]
    a, b = rows.index(m._row), rows.index(n._row)
    order = [b] + [c for c in range(len(rows)) if c != b]
    dev = 2.0 * max(map(abs, q)) * _max_deviation(q) / abs(det)
    return _assemble_report([(chars[rows[a]], chars[rows[c]]) for c in order],
                            [q[a] * q[c] / det for c in order], tol, unit_power=4, dev=dev)
