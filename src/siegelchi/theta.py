"""Floating-point theta constants by truncated lattice sums, the generalized
Mobius action, and transformation-formula checks in which the unknown
eighth-root multiplier cancels.

All arithmetic here is binary64.  Exact statements live in the character
module; this module only ever confirms them within an explicit tolerance.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NonPositiveTolerance, NotLevel2, NotUpperHalfSpace,
                     SingularFactor, TooFewUsable, _check_degree)
from .characteristics import Characteristic, act, enumerate_even_mod2, is_even
from .character import chi, phase_full, EighthRoot
from .symplectic import SymplecticMatrix, is_level2

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_TOL = 1e-6
THETA_FLOOR = 1e-4        # characteristics with |theta| below this are unusable
SYMMETRY_TOL = 1e-12
COND_LIMIT = 1e12
_CHUNK = 1 << 17          # lattice points per summation block


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """Symmetric complex g x g matrix with positive-definite imaginary part."""

    g: int
    tau: np.ndarray

    def __post_init__(self):
        self.tau.setflags(write=False)

    @classmethod
    def make(cls, tau) -> "SiegelPoint":
        mat = np.array(tau, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotUpperHalfSpace(f"tau must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise NotUpperHalfSpace("tau has a non-finite entry")
        if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL:
            raise NotUpperHalfSpace("tau is not symmetric within 1e-12")
        if _min_eig(mat.imag) <= 0.0:
            raise NotUpperHalfSpace("Im(tau) is not positive definite")
        return cls(g=mat.shape[0], tau=mat)

    @property
    def im_min_eig(self) -> float:
        return _min_eig(self.tau.imag)

    def __repr__(self):
        return f"SiegelPoint(g={self.g}, tau={self.tau.tolist()})"


def _min_eig(y: np.ndarray) -> float:
    sym = (y + y.T) / 2.0
    try:
        return float(np.linalg.eigvalsh(sym)[0])
    except np.linalg.LinAlgError:
        # Gershgorin lower bound as a fallback
        return float(min(sym[i, i] - sum(abs(sym[i, j]) for j in range(sym.shape[0]) if j != i)
                         for i in range(sym.shape[0])))


def siegel_point(tau) -> SiegelPoint:
    """Validated point of the degree-g upper half-space."""
    return SiegelPoint.make(tau)


def truncation_radius(m: Characteristic, point: SiegelPoint, tail_tol: float) -> int:
    """Box radius R making the discarded tail heuristically below tail_tol.

    Terms decay like exp(-pi lam |v|^2) with lam the smallest eigenvalue of
    Im(tau); a crude 3^g count factor absorbs the number of boundary boxes.
    """
    if tail_tol <= 0.0:
        raise NonPositiveTolerance("tail_tol must be positive")
    lam = point.im_min_eig
    if lam <= 0.0:
        raise NotUpperHalfSpace("Im(tau) is not positive definite")
    count = 3.0 ** point.g
    base = math.sqrt(max(0.0, math.log(count / tail_tol)) / (math.pi * lam))
    return math.ceil(base) + 2 + math.ceil(max(abs(int(x)) for x in m.m_prime) / 2)


def theta_constant(m: Characteristic, point: SiegelPoint,
                   tail_tol: float = DEFAULT_TAIL_TOL, radius: int | None = None) -> complex:
    """Truncated lattice sum for the theta constant at characteristic m.

    Sums exp(pi i (v.tau v + v.m'')) over v = p + m'/2 with |v|_inf <= R,
    where R comes from truncation_radius unless an explicit radius is given.
    The summation order is fixed, so results are deterministic for a fixed R.
    """
    _check_degree(m, point)
    if tail_tol <= 0.0:
        raise NonPositiveTolerance("tail_tol must be positive")
    r = truncation_radius(m, point, tail_tol) if radius is None else int(radius)
    g = point.g
    mp = [int(x) for x in m.m_prime]
    mpp = np.array([int(x) for x in m.m_double], dtype=float)
    half = np.array(mp, dtype=float) / 2.0
    ranges = [range(math.ceil(-r - mp[i] / 2.0), math.floor(r - mp[i] / 2.0) + 1)
              for i in range(g)]
    # m'.m''/2 enters every term; keep it separate so the integer part of the
    # linear form can be reduced mod 2 exactly.
    pairing_half = float(sum(a * b for a, b in zip(m.m_prime, m.m_double))) / 2.0

    total = 0.0 + 0.0j
    points_iter = itertools.product(*ranges)
    while True:
        block = list(itertools.islice(points_iter, _CHUNK))
        if not block:
            break
        p = np.array(block, dtype=float)
        v = p + half
        quad = np.einsum("ni,ij,nj->n", v, point.tau, v)
        lin = np.mod(p @ mpp + pairing_half, 2.0)
        total += complex(np.exp(1j * math.pi * (quad + lin)).sum())
    return total


# ---------------------------------------------------------------------------
# Mobius action and the square-root factor
# ---------------------------------------------------------------------------

def _factor(mat: SymplecticMatrix, point: SiegelPoint) -> np.ndarray:
    """c tau + d as a complex array, checked for conditioning."""
    _check_degree(mat, point)
    den = mat.c.astype(float) @ point.tau + mat.d.astype(float)
    if np.linalg.cond(den) > COND_LIMIT:
        raise SingularFactor("c tau + d is numerically singular")
    return den


def mobius(mat: SymplecticMatrix, point: SiegelPoint) -> SiegelPoint:
    """(a tau + b)(c tau + d)^-1, re-symmetrized and revalidated."""
    den = _factor(mat, point)
    num = mat.a.astype(float) @ point.tau + mat.b.astype(float)
    out = num @ np.linalg.inv(den)
    return SiegelPoint.make((out + out.T) / 2.0)


def det_sqrt_factor(mat: SymplecticMatrix, point: SiegelPoint) -> complex:
    """Principal square root of det(c tau + d); argument in (-pi/2, pi/2].

    Every characteristic in one verification call shares the same branch
    value, otherwise the multiplier could not cancel.
    """
    return cmath.sqrt(complex(np.linalg.det(_factor(mat, point))))


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


def _assemble_report(labels, ratios, tol, unit_power: int = 8) -> VerificationReport:
    dev = max(abs(x - y) for x in ratios for y in ratios)
    unit = sum(ratios) / len(ratios)
    ok = (dev <= tol
          and abs(abs(unit) - 1.0) <= tol
          and abs(unit ** unit_power - 1.0) <= unit_power * tol)
    return VerificationReport(m_list=tuple(labels), ratios=tuple(ratios),
                              estimated_unit=unit, max_deviation=float(dev),
                              tolerance=float(tol), passed=bool(ok))


def _usable_even(point: SiegelPoint, tail_tol: float):
    """Even mod-2 representatives whose theta constant clears the floor."""
    out = []
    for m in enumerate_even_mod2(point.g):
        val = theta_constant(m, point, tail_tol)
        if abs(val) > THETA_FLOOR:
            out.append((m, val))
    return out


def verify_character(mat: SymplecticMatrix, point: SiegelPoint,
                     tol: float = DEFAULT_TOL,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Check that theta(m, M tau) / (sqrt-det * theta(m, tau) * chi) is m-free.

    The common value of the ratios is the branch-adjusted multiplier of the
    matrix; it is never compared against a predicted value, only tested for
    unit modulus and trivial eighth power.
    """
    if not is_level2(mat):
        raise NotLevel2("verify_character needs M = I mod 2")
    usable = _usable_even(point, tail_tol)
    if len(usable) < 2:
        raise TooFewUsable(f"only {len(usable)} theta constants above the floor")
    moved = mobius(mat, point)
    root = det_sqrt_factor(mat, point)
    labels, ratios = [], []
    for m, val in usable:
        top = theta_constant(m, moved, tail_tol)
        ratios.append(top / (root * val) / chi(m, mat).value)
        labels.append(m)
    return _assemble_report(labels, ratios, tol)


def verify_transformation_general(mat: SymplecticMatrix, m_set, point: SiegelPoint,
                                  tol: float = DEFAULT_TOL,
                                  tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Full-group transformation check with the unreduced action and full phase.

    For each even m in m_set with theta above the floor, compares
    theta(M o m, M tau) against e(phase) * sqrt-det * theta(m, tau); the
    ratio must not depend on m.  Valid for every symplectic matrix.
    """
    moved = mobius(mat, point)
    root = det_sqrt_factor(mat, point)
    labels, ratios = [], []
    for m in m_set:
        if not is_even(m):
            continue
        val = theta_constant(m, point, tail_tol)
        if abs(val) <= THETA_FLOOR:
            continue
        top = theta_constant(act(mat, m), moved, tail_tol)
        phase = EighthRoot(phase_full(m, mat).eighths).value
        ratios.append(top / (phase * root * val))
        labels.append(m)
    if len(ratios) < 2:
        raise TooFewUsable(f"only {len(ratios)} theta constants above the floor")
    return _assemble_report(labels, ratios, tol)


def verify_igusa_product(m: Characteristic, n: Characteristic,
                         mat: SymplecticMatrix, point: SiegelPoint,
                         tol: float = DEFAULT_TOL,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> VerificationReport:
    """Pair-independence of the product-character ratio.

    psi = theta_m theta_n transforms with det(c tau + d) and chi_m chi_n; the
    leftover factor (the squared multiplier) must be the same for every pair,
    and its fourth power must be 1.  The sweep covers the given pair plus all
    usable even pairs; no square root is taken, so no branch enters.
    """
    if not is_level2(mat):
        raise NotLevel2("verify_igusa_product needs M = I mod 2")
    if not (is_even(m) and is_even(n)):
        raise TooFewUsable("product verification needs even characteristics")
    usable = _usable_even(point, tail_tol)
    if len(usable) < 2:
        raise TooFewUsable(f"only {len(usable)} theta constants above the floor")
    moved = mobius(mat, point)
    det = complex(np.linalg.det(_factor(mat, point)))
    values = {mm: val for mm, val in usable}
    moved_values = {mm: theta_constant(mm, moved, tail_tol) for mm in values}
    for extra in (m, n):
        if extra not in values:
            val = theta_constant(extra, point, tail_tol)
            if abs(val) <= THETA_FLOOR:
                raise TooFewUsable("requested characteristic below the theta floor")
            values[extra] = val
            moved_values[extra] = theta_constant(extra, moved, tail_tol)

    keys = list(values)
    pairs = [(m, n)] + [(keys[s], keys[t])
                        for s in range(len(keys)) for t in range(s, len(keys))]
    labels, ratios = [], []
    seen = set()
    for mm, nn in pairs:
        tag = frozenset(((mm.vector()), (nn.vector())))
        if tag in seen:
            continue
        seen.add(tag)
        character = (chi(mm, mat) * chi(nn, mat)).value
        ratio = (moved_values[mm] * moved_values[nn]) / (det * values[mm] * values[nn] * character)
        labels.append((mm, nn))
        ratios.append(ratio)
    return _assemble_report(labels, ratios, tol, unit_power=4)
