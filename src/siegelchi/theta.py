"""Floating-point theta constants by lattice sums over an ellipsoid, the
generalized Mobius action, and transformation-formula checks in which the
unknown eighth-root multiplier cancels.  Every theta value is one batched
sum, theta_constants, over the points of one enumerator, _half_lattice.

All arithmetic here is binary64.  Exact statements live in the character
module; this module only ever confirms them within an explicit tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (NonPositiveTolerance, NotUpperHalfSpace, SingularFactor,
                     TooFewUsable, _check_degree)
from .characteristics import Characteristic, act, is_even
from .character import EighthRoot, chi_even_values, phase_full
from .symplectic import SymplecticMatrix

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_TOL = 1e-6
THETA_FLOOR = 1e-4        # characteristics with |theta| below this are unusable
SYMMETRY_TOL = 1e-12
COND_LIMIT = 1e12
_BLOCK = 1 << 12          # most lattice points held in one array
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])   # cos(pi k / 2)


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
        if not np.isfinite(mat).all():
            raise NotUpperHalfSpace("tau has a non-finite entry")
        if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL:
            raise NotUpperHalfSpace("tau is not symmetric within 1e-12")
        point = cls(g=mat.shape[0], tau=mat)
        if point.im_min_eig <= 0.0:
            raise NotUpperHalfSpace("Im(tau) is not positive definite")
        return point

    def __repr__(self):
        return f"SiegelPoint(g={self.g}, tau={self.tau.tolist()})"


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


def _extend(u: np.ndarray, i: int, cols: np.ndarray, rest: np.ndarray, low: float):
    """Prefix each column with each n_i in Z within `rest`, n_i >= low on an
    all-zero column; return columns, radius left."""
    centre = -(u[i, i + 1:] @ cols) / u[i, i]
    width = np.sqrt(np.maximum(rest, 0.0)) / u[i, i]
    lo = np.ceil(centre - width)
    lo = np.where(cols.any(0), lo, np.maximum(lo, low))
    count = np.maximum(np.floor(centre + width) - lo + 1.0, 0.0).astype(np.intp)
    pick = np.repeat(np.arange(len(lo)), count)
    ni = (lo + count - np.cumsum(count))[pick] + np.arange(pick.size)
    return (np.vstack([ni, cols.take(pick, axis=1)]),
            rest[pick] - (u[i, i] * (ni - centre[pick])) ** 2)


def _quad(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """n.a.n for each column of n, in elementwise steps only, so that a point
    gets the same bits in whatever block it falls."""
    return sum(n[i] * sum(a[i, j] * n[j] for j in range(len(a))) for i in range(len(a)))


def _half_lattice(y: np.ndarray, rho2: np.ndarray):
    """Yield one n of each pair +-n of nonzero points of Z^g with q = n.y.n <=
    rho2[coset of cls], in blocks (n, q, cls) of about _BLOCK points at most,
    n as float columns and cls its class mod 4, both indices as in
    _class_tables.  The n kept is the one whose last nonzero coordinate is positive.

    With y = U^T U, U upper triangular, n.y.n = sum_i U_ii^2 (n_i - c_i)^2 and
    c_i = -sum_{j>i} U_ij n_j / U_ii: coordinates are fixed from the last to
    the first within the radius the later ones leave (Fincke & Pohst, Math.
    Comp. 44, 1985; Deconinck et al., Math. Comp. 73, 2004), n_i >= 0 while
    the later ones are all zero.  Bounds use max(rho2) enlarged by 1e-9 and
    each block is cut by q itself, so rounding in U neither drops nor adds a
    point.
    """
    u = np.linalg.cholesky((y + y.T) / 2.0).T
    cols, rest = np.zeros((0, 1)), np.array([rho2.max() * (1.0 + 1e-9)])
    per = max(1, _BLOCK // (2 * int(math.sqrt(rest[0]) / u[0, 0]) + 2))
    for i in range(len(y) - 1, 0, -1):
        cols, rest = _extend(u, i, cols, rest, 0.0)
    _, weights, class_coset = _class_tables(len(y))
    for a in range(0, cols.shape[1], per):
        n, _ = _extend(u, 0, cols[:, a:a + per], rest[a:a + per], 1.0)
        q = _quad(y, n)
        cls = weights @ (n.astype(np.int64) & 3)
        keep = q <= rho2[class_coset[cls]]
        yield n.compress(keep, axis=1), q[keep], cls[keep]


@lru_cache(maxsize=None)
def _class_tables(g: int) -> tuple:
    """The 4^g classes of n mod 4 as columns in class order, the weight of each
    base-4 digit (n_0 first), and each class's coset n mod 2 in binary digits."""
    classes = np.indices((4,) * g).reshape(g, -1)
    bits = 1 << np.arange(g - 1, -1, -1)
    tables = classes, bits * bits, bits @ (classes & 1)
    for t in tables:
        t.setflags(write=False)
    return tables


def theta_constants(chars, point: SiegelPoint, tail_tol: float = DEFAULT_TAIL_TOL) -> list:
    """Theta constants sum exp(pi i (v.tau.v + v.m'')) over v in Z^g + m'/2,
    one per characteristic in chars, in order, from one lattice pass.

    Every coset m' mod 2 sums the terms of modulus at least exp(-pi lam R^2),
    the ellipsoid v.Y.v <= lam R^2: Y = Im(tau) with smallest eigenvalue lam,
    R = truncation_radius, the same for every coset and so found once per call.
    With n = 2v, the coset is the set of n in Z^g with n = m' mod 2, and
    v.Y.v = n.(Y/4).n bit for bit, as scaling by a power of two is exact.

    n -> -n maps a coset to itself, keeps n.(Y/4).n and conjugates
    exp(pi i v.m'') = i^(n.m''), so a pair +-n adds 2 exp(-pi n.(Y/4).n)
    exp(pi i n.X.n / 4) cos(pi n.m'' / 2), X = Re(tau), with the exact
    cos(pi k / 2) = [1, 0, -1, 0][k mod 4], and n = 0 adds 1 to coset 0.
    Cosine and coset see n mod 4 only, so terms are first summed per class of
    n mod 4, and every m'' (non-binary ones too) is read from the 4^g class
    sums by one product.  The summation order is fixed.
    """
    if not chars:
        return []
    g = point.g
    for m in chars:
        _check_degree(m, point)
    classes, weights, class_coset = _class_tables(g)
    x = np.array([[v % 4 for v in m.vector()] for m in chars], dtype=np.int64)
    coset = class_coset[x[:, :g] @ weights]
    r = truncation_radius(chars[0], point, tail_tol)
    rho2 = np.full(2 ** g, -1.0)                # cosets no characteristic asks for stay empty
    rho2[coset] = point.im_min_eig * r * r
    phase = _COS_QUARTER[(x[:, g:] @ classes) % 4]
    phase[coset[:, None] != class_coset] = 0.0  # classes of other cosets
    sums = np.zeros(4 ** g, dtype=complex)
    for n, q, cls in _half_lattice(point.tau.imag / 4.0, rho2):
        size = np.exp(-math.pi * q)
        turn = math.pi * _quad(point.tau.real / 4.0, n)
        sums += np.bincount(cls, size * np.cos(turn), 4 ** g)
        sums += 1j * np.bincount(cls, size * np.sin(turn), 4 ** g)
    return (phase[:, 0] + 2.0 * (phase @ sums)).tolist()


def theta_constant(m: Characteristic, point: SiegelPoint,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> complex:
    """The theta constant at one characteristic; see theta_constants."""
    return theta_constants([m], point, tail_tol)[0]


# ---------------------------------------------------------------------------
# Mobius action and the square-root factor
# ---------------------------------------------------------------------------

def _transform(mat: SymplecticMatrix, point: SiegelPoint) -> tuple:
    """(M tau, det(c tau + d)) from one c tau + d, checked once for
    conditioning; M tau = (a tau + b)(c tau + d)^-1, re-symmetrized and
    revalidated."""
    _check_degree(mat, point)
    den = mat.c.astype(float) @ point.tau + mat.d.astype(float)
    if np.linalg.cond(den) > COND_LIMIT:
        raise SingularFactor("c tau + d is numerically singular")
    out = (mat.a.astype(float) @ point.tau + mat.b.astype(float)) @ np.linalg.inv(den)
    return SiegelPoint.make((out + out.T) / 2.0), complex(np.linalg.det(den))


def mobius(mat: SymplecticMatrix, point: SiegelPoint) -> SiegelPoint:
    """(a tau + b)(c tau + d)^-1, re-symmetrized and revalidated."""
    return _transform(mat, point)[0]


def det_sqrt_factor(mat: SymplecticMatrix, point: SiegelPoint) -> complex:
    """Principal square root of det(c tau + d); argument in (-pi/2, pi/2].

    Every characteristic in one verification call shares the same branch
    value, otherwise the multiplier could not cancel.
    """
    return cmath.sqrt(_transform(mat, point)[1])


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one transformation-formula sweep.

    ratios holds the per-characteristic unit estimates; estimated_unit is
    their mean, the branch-adjusted multiplier.  passed requires the ratios
    to agree pairwise within tolerance, the unit to have modulus 1 within
    tolerance, and its eighth power to be 1 within 8x tolerance.
    """

    m_list: tuple
    ratios: tuple
    estimated_unit: complex
    max_deviation: float
    tolerance: float
    passed: bool


def _max_deviation(ratios, centre: complex) -> float:
    """max |r_i - r_j| over all pairs, bit for bit the pairwise loop over
    abs() of Python complex differences: np.hypot rounds exactly as abs()
    does, and every pair that could reach the maximum is compared.

    With rho_i = |r_i - centre|, |r_i - r_j| <= rho_i + rho_j.  Rows are
    taken in order of decreasing rho_i, each compared with every row, and the
    sweep stops at the first i with 2 rho_i + slack < best, the maximum so
    far, past which no pair can reach it.  A difference of two floats is
    rounded once, so each computed rho and |r_i - r_j| is within a few 2^-53
    of its value, relative; slack = 1e-9 max rho covers that, as after the
    first row best is about max rho at least when the centre, the mean, lies
    in the hull of the r.  Sorting stays in Python: numpy's sort code would
    add its pages to the peak memory of a CLI run.
    """
    r = np.array(ratios)
    d = r - centre
    rho = np.hypot(d.real, d.imag).tolist()
    if not all(map(math.isfinite, rho)):        # nothing to order by: every row
        return float(max(np.hypot(d.real, d.imag).max() for d in (r - x for x in r)))
    order = sorted(range(len(rho)), key=rho.__getitem__, reverse=True)
    slack, best = 1e-9 * rho[order[0]], 0.0
    for i in order:
        if 2.0 * rho[i] + slack < best:
            break
        d = r - r[i]
        best = max(best, np.hypot(d.real, d.imag).max())
    return float(best)


def _assemble_report(labels, ratios, tol, unit_power: int = 8) -> VerificationReport:
    unit = sum(ratios) / len(ratios)
    dev = _max_deviation(ratios, unit)
    ok = (dev <= tol
          and abs(abs(unit) - 1.0) <= tol
          and abs(unit ** unit_power - 1.0) <= unit_power * tol)
    return VerificationReport(m_list=tuple(labels), ratios=tuple(ratios),
                              estimated_unit=unit, max_deviation=dev,
                              tolerance=float(tol), passed=bool(ok))


def _sweep(mat: SymplecticMatrix, point: SiegelPoint, chars: list, tail_tol: float,
           needed=(), image=lambda m: m) -> tuple:
    """The body of every verification sweep.  After the degree check, keep the
    characteristics whose theta constant at tau clears THETA_FLOOR; raise
    TooFewUsable unless two of chars and all of needed do (needed ones outside
    chars are summed but not counted); then form M tau and det(c tau + d) once
    (SingularFactor) and sum theta at M tau over image(m) for each kept m.
    Returns the kept m, their theta at tau, those at M tau, and the det.
    """
    _check_degree(mat, point)           # before any theta work, as for the level-2 check
    extra = [m for m in dict.fromkeys(needed) if m not in chars]
    chars = chars + extra
    usable = [(m, val) for m, val in zip(chars, theta_constants(chars, point, tail_tol))
              if abs(val) > THETA_FLOOR]
    count = sum(m not in extra for m, _ in usable)
    if count < 2:
        raise TooFewUsable(f"only {count} theta constants above the floor")
    labels, vals = map(list, zip(*usable))
    if not set(needed) <= set(labels):
        raise TooFewUsable("requested characteristic below the theta floor")
    moved, det = _transform(mat, point)
    return labels, vals, theta_constants([image(m) for m in labels], moved, tail_tol), det


def verify_character(mat: SymplecticMatrix, point: SiegelPoint,
                     tol: float = DEFAULT_TOL,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Check that theta(m, M tau) / (sqrt-det * theta(m, tau) * chi) is m-free.

    The common value of the ratios is the branch-adjusted multiplier of the
    matrix; it is never compared against a predicted value, only tested for
    unit modulus and trivial eighth power.
    """
    chis = chi_even_values(mat)         # raises NotLevel2 before any theta work
    labels, vals, tops, det = _sweep(mat, point, list(chis), tail_tol)
    root = cmath.sqrt(det)
    ratios = [top / (root * val) / EighthRoot(chis[m]).value
              for m, val, top in zip(labels, vals, tops)]
    return _assemble_report(labels, ratios, tol)


def verify_transformation_general(mat: SymplecticMatrix, m_set, point: SiegelPoint,
                                  tol: float = DEFAULT_TOL,
                                  tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Full-group transformation check with the unreduced action and full phase.

    For each even m in m_set with theta above the floor, compares
    theta(M o m, M tau) against e(phase) * sqrt-det * theta(m, tau); the
    ratio must not depend on m.  Valid for every symplectic matrix.
    """
    labels, vals, tops, det = _sweep(mat, point, [m for m in m_set if is_even(m)], tail_tol,
                                     image=lambda m: act(mat, m))
    root = cmath.sqrt(det)
    ratios = [top / (EighthRoot(phase_full(m, mat).eighths).value * root * val)
              for m, val, top in zip(labels, vals, tops)]
    return _assemble_report(labels, ratios, tol)


def verify_igusa_product(m: Characteristic, n: Characteristic,
                         mat: SymplecticMatrix, point: SiegelPoint,
                         tol: float = DEFAULT_TOL,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Pair-independence of the product-character ratio.

    psi = theta_m theta_n transforms with det(c tau + d) and chi_m chi_n; the
    leftover factor (the squared multiplier) must be the same for every pair,
    and its fourth power must be 1.  The sweep covers the given pair plus all
    usable even pairs; no square root is taken, so no branch enters.  chi
    sees m mod 2 only, so the values at the even classes serve every pair.
    """
    chis = chi_even_values(mat)         # raises NotLevel2 before any theta work
    if not (is_even(m) and is_even(n)):
        raise TooFewUsable("product verification needs even characteristics")
    keys, vals, tops, det = _sweep(mat, point, list(chis), tail_tol, needed=(m, n))
    values, moved_values = dict(zip(keys, vals)), dict(zip(keys, tops))
    pairs = {}
    for a, b in [(m, n)] + [(a, b) for s, a in enumerate(keys) for b in keys[s:]]:
        pairs.setdefault(frozenset((a, b)), (a, b))
    labels = list(pairs.values())
    k = {a: chis[a.mod2()] for a in keys}
    roots = [EighthRoot(x).value for x in range(8)]
    ratios = [(moved_values[a] * moved_values[b])
              / (det * values[a] * values[b] * roots[(k[a] + k[b]) % 8])
              for a, b in labels]
    return _assemble_report(labels, ratios, tol, unit_power=4)
