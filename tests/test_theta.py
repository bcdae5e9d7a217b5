import cmath
import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelchi import (DEFAULT_TOL, THETA_FLOOR, Characteristic, DegreeMismatch,
                       NonPositiveTolerance, NotLevel2, NotUpperHalfSpace, SingularFactor,
                       TooFewUsable, characteristic, det_sqrt_factor, enumerate_even_mod2,
                       enumerate_mod2, generator, identity, is_even, make_matrix, mobius,
                       multiply, random_word, shift, siegel_point,
                       theta_constant, theta_constants,
                       truncation_radius, verify_character, verify_igusa_product,
                       verify_transformation_general, word, word_to_matrix)
from siegelchi import theta
from siegelchi.theta import _assemble_report

from util import random_sp, random_tau, seeded, sign_shift_exponent, theta_box

TAU_I = siegel_point([[1j]])


def oracle_theta_at_i(a, b, radius=12):
    """Sum exp(i pi ((p + a/2)^2 i + (p + a/2) b)) by direct loop."""
    total = 0.0 + 0.0j
    for p in range(-radius, radius + 1):
        v = p + a / 2.0
        total += cmath.exp(1j * math.pi * (v * v * 1j + v * b))
    return total


# ---------------------------------------------------------------------------
# Point validation
# ---------------------------------------------------------------------------

def test_point_validation():
    good = siegel_point([[0.3 + 1j, 0.1], [0.1, 2j]])
    assert good.g == 2
    with pytest.raises(NotUpperHalfSpace):
        siegel_point([[1j, 0.5], [0.0, 1j]])           # not symmetric
    with pytest.raises(NotUpperHalfSpace):
        siegel_point([[-1j]])                          # Im not positive definite
    with pytest.raises(NotUpperHalfSpace):
        siegel_point([[1j, 0.0]])                      # not square
    with pytest.raises(NotUpperHalfSpace):
        siegel_point(np.zeros((0, 0)))                 # empty
    with pytest.raises(NotUpperHalfSpace):
        siegel_point([[1j, 0], [0]])                   # ragged


@pytest.mark.parametrize("tau", [[[1j * math.inf]], [[math.nan + 1j]],
                                 [[1j, 0.0], [0.0, math.inf * 1j]]])
def test_point_rejects_non_finite_entries(tau):
    with pytest.raises(NotUpperHalfSpace):
        siegel_point(tau)


def test_non_positive_tolerance():
    with pytest.raises(NonPositiveTolerance):
        theta_constant(characteristic(0, 0), TAU_I, tail_tol=0.0)


# ---------------------------------------------------------------------------
# Theta constants against independent sums
# ---------------------------------------------------------------------------

def test_classical_value_at_i():
    # reference 1.0864348112... from the direct Gaussian sum
    oracle = oracle_theta_at_i(0, 0, radius=10)
    value = theta_constant(characteristic(0, 0), TAU_I)
    assert abs(value - oracle) < 1e-9
    assert abs(value - 1.0864348112133080) < 1e-9
    assert abs(value.imag) < 1e-12


def test_half_shift_values_agree_at_i():
    v10 = theta_constant(characteristic(1, 0), TAU_I)
    v01 = theta_constant(characteristic(0, 1), TAU_I)
    assert abs(v10 - oracle_theta_at_i(1, 0)) < 1e-10
    assert abs(v01 - oracle_theta_at_i(0, 1)) < 1e-10
    assert abs(v10 - v01) < 1e-10            # specific to tau = i
    assert abs(v10 - 0.9135791381561168) < 1e-10


def test_odd_characteristic_vanishes():
    assert abs(theta_constant(characteristic(1, 1), TAU_I)) < 1e-10
    rng = seeded(61)
    for g in (1, 2):
        for _ in range(10):
            point = random_tau(g, rng)
            m = Characteristic.from_vector([rng.randint(-2, 2) for _ in range(2 * g)])
            if not is_even(m):
                assert abs(theta_constant(m, point)) < 2e-12


def theta_at_radius(chars, point, r):
    """theta_constants summed over the ellipsoid of radius r in place of
    truncation_radius's."""
    with mock.patch.object(theta, "truncation_radius", return_value=r):
        return theta_constants(chars, point)


def test_truncation_radius_doubling():
    rng = seeded(62)
    for g in (1, 2):
        for _ in range(8):
            point = random_tau(g, rng)
            m = Characteristic.from_vector([rng.randint(-1, 1) for _ in range(2 * g)])
            r = truncation_radius(m, point, 1e-12)
            b = theta_at_radius([m], point, 2 * r)[0]
            assert abs(theta_constant(m, point) - b) < 1e-12


def test_truncation_radius_once_per_call(monkeypatch):
    # One R serves every coset, so a call asks for it once; R does not depend on m.
    calls = []
    radius = theta.truncation_radius
    monkeypatch.setattr(theta, "truncation_radius",
                        lambda *args: calls.append(args) or radius(*args))
    wide = [characteristic(3, 0, 1, 1), characteristic(-4, 1, 0, 2), characteristic(1, 2, 1, 0)]
    point = random_tau(2, seeded(66))
    theta_constants(enumerate_mod2(2) + wide, point)
    assert len(calls) == 1
    assert all(radius(m, point, 1e-12) == radius(wide[0], point, 1e-12) for m in wide)


def tail_bound(g, lam, radius):
    """B(R) = (g/2) (2/rho)^g Gamma(g/2, rho^2 (R - 1/2)^2), rho = sqrt(pi lam),
    at 30 digits from mpmath's upper incomplete gamma."""
    with mpmath.workdps(30):
        rho = mpmath.sqrt(mpmath.pi * lam)
        s = mpmath.mpf(g) / 2
        return s * (2 / rho) ** g * mpmath.gammainc(s, (rho * (radius - mpmath.mpf(0.5))) ** 2)


# A binary64 theta sum adds a few hundred terms of modulus at most 1, each
# rounded to 2^-53 relative: far below this.
ROUNDING = 1e-14


@pytest.mark.parametrize("g, seed", [(1, 5), (2, 6), (3, 7)])
def test_truncation_error_is_within_the_tail_bound(g, seed):
    # Radii just above the lower limit 1/2 + sqrt(g/2)/rho, where B(R) is of
    # order 1, and the radii truncation_radius picks from tail_tol 1e4 (target
    # 1: the lower limit) down to 1e-8, against the 40-digit box sum.
    point = random_tau(g, seeded(seed))
    lam = point.im_min_eig
    chars = enumerate_mod2(g)
    refs = theta_box(chars, point.tau)
    low = 0.5 + math.sqrt(g / 2) / math.sqrt(math.pi * lam)
    runs = [(low * f, theta_at_radius(chars, point, low * f)) for f in (1.0, 1.1, 1.3, 1.6)]
    for tail_tol in (1e4, 1.0, 1e-4, 1e-8):
        r = truncation_radius(chars[0], point, tail_tol)
        assert tail_bound(g, lam, r) <= tail_tol * THETA_FLOOR * (1 + 1e-12)
        runs.append((r, theta_constants(chars, point, tail_tol)))
    for r, values in runs:
        bound = tail_bound(g, lam, r)
        for m, value, ref in zip(chars, values, refs):
            assert abs(value - ref) <= bound + ROUNDING, (m, r, value, ref, bound)


@settings(max_examples=150, deadline=None)
@example(3, 0.8, 5e-324)      # past x = 700, the asymptotic branch
@example(2, 0.3, 1e-300)
@example(4, 100.0, 1e4)       # the lower limit
@given(st.integers(1, 4), st.floats(1e-2, 1e2),
       st.floats(-30.0, 4.0).map(lambda e: 10.0 ** e))
def test_truncation_radius_is_the_least_certified(g, lam, tail_tol):
    # B(R) <= tail_tol * THETA_FLOOR (to the stated relative 1e-12), and R is
    # least to a relative 1e-9 unless it sits at the lower limit.
    point = siegel_point(1j * lam * np.eye(g))
    lam = point.im_min_eig
    r = truncation_radius(characteristic(*[0] * 2 * g), point, tail_tol)
    target = mpmath.mpf(tail_tol) * THETA_FLOOR
    low = 0.5 + math.sqrt(g / 2) / math.sqrt(math.pi * lam)
    assert math.isfinite(r) and r >= low * (1 - 1e-15)
    assert tail_bound(g, lam, r) <= target * (1 + 1e-12)
    assert tail_bound(g, lam, r * (1 - 1e-9)) > target or r * (1 - 1e-9) < low


def test_non_binary_characteristic_sums_its_binary_coset():
    # R does not see m and the coset sees m' mod 2 only, so m'_1 = 2^40 + 1
    # sums exactly the terms m'_1 = 1 does.
    value = theta_constant(characteristic(2 ** 40 + 1, 0), TAU_I)
    assert value == theta_constant(characteristic(1, 0), TAU_I)


_entries = st.one_of(st.integers(-1, 1).map(float), st.floats(-1.0, 1.0))
_radii = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 8.0))


@settings(max_examples=80, deadline=None)
# two pairs with n.(y/4).n = 3 exactly, one of which rounding in the Cholesky
# factor would push outside, and a pair (n = +-2) just outside the enlarged bounds
@example(([-0.4884079572441151, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, -1.0, 1.0], 1.0, [0, 0, 0], 3.0,
          -1.0, 64))
@example(([0.0], 1.0, [0], 1.0 - 5e-10, 0.5, 64))
@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
           st.lists(_entries, min_size=g * g, max_size=g * g),
           st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 1.0)),
           st.lists(st.integers(0, 1), min_size=g, max_size=g),
           _radii, st.one_of(st.just(-1.0), _radii),
           st.sampled_from([64, theta._BLOCK]))))
def test_lattice_is_the_ellipsoid(case):
    # Coset `bits` (n = bits mod 2, n = 2v) gets radius rho2, every other coset
    # `other` (-1: empty).  The blocks must hold one of each pair +-n != 0 of
    # the brute-force box filter, by the same bits of n.(y/4).n, 0 never, each
    # with its class n mod 4 and that class's coset within its cut.
    entries, boost, bits, rho2, other, cap = case
    g = len(bits)
    a = np.array(entries).reshape(g, g)
    y = (a @ a.T + boost * np.eye(g)) / 4.0
    cuts = np.full(2 ** g, other)
    cuts[int("".join(map(str, bits)), 2)] = rho2
    with mock.patch.object(theta, "_BLOCK", cap):
        blocks = list(theta._half_lattice(y, cuts))
    assert all(n.shape[1] <= cap and np.array_equal(q, theta._quad(y, n)) for n, q, _ in blocks)
    class_coset = theta._class_tables(g)[2]
    for n, q, cls in blocks:
        for col, qq, k in zip(n.T.tolist(), q.tolist(), cls.tolist()):
            assert k == int("".join(str(int(x) % 4) for x in col), 4)
            coset = int("".join(str(int(x) % 2) for x in col), 2)
            assert class_coset[k] == coset and qq <= cuts[coset]
    half = [tuple(col) for n, _, _ in blocks for col in n.T.tolist()]
    assert len(half) == len(set(half))
    assert all([x for x in col if x][-1] > 0 for col in half)      # so 0 is never listed
    mirror = {tuple(-x for x in col) for col in half}
    assert not mirror & set(half)
    reach = math.ceil(math.sqrt(max(rho2, other) / np.linalg.eigvalsh(y)[0])) + 1
    box = np.array(list(itertools.product(range(-reach, reach + 1), repeat=g))).T
    q = theta._quad(y, box.astype(float))
    assert np.allclose(q, np.einsum("in,ij,jn->n", box, y, box), rtol=1e-13, atol=0.0)
    inside = box[:, q <= cuts[(box % 2).T @ (1 << np.arange(g - 1, -1, -1))]]
    zero = {(0,) * g} if cuts[0] >= 0.0 else set()
    assert set(half) | mirror | zero == {tuple(col) for col in inside.T.tolist()}


def test_batched_matches_single_characteristic():
    rng = seeded(65)
    for g in (1, 2, 3):
        for _ in range(4):
            point = random_tau(g, rng)
            chars = [Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
                     for _ in range(8)] + enumerate_even_mod2(g)
            batch = theta_constants(chars, point)
            for m, value in zip(chars, batch):
                assert abs(value - theta_constant(m, point)) < 1e-14


@pytest.mark.parametrize("tau", [0.37 + 0.08j, -0.45 + 0.12j, 0.1 + 0.3j,
                                 1j, 0.2 + 3.5j, -0.8 + 6.0j])
def test_genus_one_matches_jacobi_theta(tau):
    # theta[a, b](tau) with q = e^(pi i tau): [0,0] -> theta_3, [1,0] -> theta_2,
    # [0,1] -> theta_4 and [1,1] -> theta_1 = 0 at z = 0.
    point = siegel_point([[tau]])
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        for (a, b), kind in {(0, 0): 3, (1, 0): 2, (0, 1): 4, (1, 1): 1}.items():
            ref = complex(mpmath.jtheta(kind, 0, q))
            value = theta_constant(characteristic(a, b), point)
            assert abs(value - ref) < 1e-13 * max(1.0, abs(ref)), (a, b, value, ref)


def assert_matches_box_sum(tau):
    # Every binary class, even and odd, and three non-binary characteristics.
    g = len(tau)
    chars = enumerate_mod2(g) + [Characteristic.from_vector(v[:g] + v[3:3 + g]) for v in (
        [2, -1, 3, 1, 0, -2], [-3, 4, -1, 2, -5, 1], [3, 3, -2, 5, 2, -1])]
    refs = theta_box(chars, tau)
    for m, value, ref in zip(chars, theta_constants(chars, siegel_point(tau)), refs):
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), (m, value, ref)


@pytest.mark.parametrize("tau", [
    [[0.3 + 1.1j, 0.1 - 0.2j], [0.1 - 0.2j, -0.25 + 0.9j]],
    [[0.2 + 1.0j, -0.3 + 0.97j], [-0.3 + 0.97j, 0.45 + 1.0j]],       # Im tau: condition 66
    [[0.1 + 1.0j, 0.2 - 0.1j, -0.15 + 0.05j], [0.2 - 0.1j, -0.3 + 0.9j, 0.1 + 0.2j],
     [-0.15 + 0.05j, 0.1 + 0.2j, 0.25 + 1.2j]]])
def test_matches_box_sum_at_40_digits(tau):
    assert_matches_box_sum(tau)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.floats(0.1, 1.0))
def test_matches_box_sum_at_drawn_points(re, im, boost):
    # Im tau = a a^T + boost I has condition number at most 4 / boost + 1 <= 41.
    a = np.array(im).reshape(2, 2)
    x = np.array([[re[0], re[1]], [re[1], re[2]]])
    assert_matches_box_sum((x + 1j * (a @ a.T + boost * np.eye(2))).tolist())


def test_shift_sign_rule():
    rng = seeded(63)
    for g in (1, 2):
        for _ in range(12):
            point = random_tau(g, rng)
            m = Characteristic.from_vector([rng.randint(0, 1) for _ in range(2 * g)])
            bump = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
            lhs = theta_constant(shift(m, bump), point)
            rhs = (-1) ** sign_shift_exponent(m, bump) * theta_constant(m, point)
            assert abs(lhs - rhs) < 2e-12


def test_degree_three_runs():
    point = random_tau(3, seeded(64))
    value = theta_constant(Characteristic.from_vector([0] * 6), point)
    assert abs(value) > 0.1


# ---------------------------------------------------------------------------
# Mobius action and the square-root factor
# ---------------------------------------------------------------------------

def test_mobius_identity():
    point = random_tau(2, seeded(71))
    moved = mobius(identity(2), point)
    assert np.allclose(moved.tau, point.tau)


def test_mobius_c11_at_i():
    moved = mobius(generator("C", 1, 1, 1), TAU_I)
    assert moved.tau[0, 0] == pytest.approx((2 + 1j) / 5)   # i / (2i + 1)


def test_mobius_preserves_upper_half_space():
    rng = seeded(72)
    for g in (1, 2):
        for _ in range(100):
            mat = random_sp(g, rng)
            point = random_tau(g, rng)
            moved = mobius(mat, point)          # revalidates on construction
            assert moved.im_min_eig > 0


def test_mobius_left_action():
    rng = seeded(73)
    for g in (1, 2):
        for _ in range(20):
            m1 = random_sp(g, rng, length=2)
            m2 = random_sp(g, rng, length=2)
            point = random_tau(g, rng)
            a = mobius(multiply(m1, m2), point)
            b = mobius(m1, mobius(m2, point))
            assert np.max(np.abs(a.tau - b.tau)) < 1e-9


def test_det_sqrt_factor_values():
    assert det_sqrt_factor(identity(1), TAU_I) == pytest.approx(1.0)
    assert det_sqrt_factor(generator("B", 1, 1, 1), TAU_I) == pytest.approx(1.0)
    root = det_sqrt_factor(generator("C", 1, 1, 1), TAU_I)
    assert root == pytest.approx(1.272019649514069 + 0.7861513777574233j)
    assert -math.pi / 2 < cmath.phase(root) <= math.pi / 2


def test_det_sqrt_branch_is_principal():
    rng = seeded(74)
    for g in (1, 2):
        for _ in range(40):
            root = det_sqrt_factor(random_sp(g, rng), random_tau(g, rng))
            assert -math.pi / 2 < cmath.phase(root) <= math.pi / 2 + 1e-15


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------

def test_verify_character_identity():
    report = verify_character(identity(1), TAU_I)
    assert report.passed
    assert all(abs(r - 1) < 1e-12 for r in report.ratios)


def test_verify_character_b11_at_i():
    report = verify_character(generator("B", 1, 1, 1), TAU_I, tol=1e-6)
    assert report.passed
    assert len(report.m_list) == 3
    assert report.max_deviation < 1e-9


def test_verify_character_random_words():
    rng = seeded(81)
    for s in range(50):
        mat = word_to_matrix(random_word(1, rng.randint(1, 4), s))
        report = verify_character(mat, random_tau(1, rng))
        assert report.passed, (s, report.max_deviation)


def test_verify_character_requires_level2():
    with pytest.raises(NotLevel2):
        verify_character(make_matrix([[1, 1], [0, 1]]), TAU_I)


def test_verify_igusa_product_requires_level2(monkeypatch):
    # The level-2 check comes from the character kernel, before any theta sum.
    def no_theta(*args, **kwargs):
        raise AssertionError("theta work before the level-2 check")

    monkeypatch.setattr("siegelchi.theta.theta_constants", no_theta)
    zero = characteristic(0, 0)
    with pytest.raises(NotLevel2):
        verify_igusa_product(zero, zero, make_matrix([[1, 1], [0, 1]]), TAU_I)
    with pytest.raises(NotLevel2):
        verify_character(make_matrix([[1, 1], [0, 1]]), TAU_I)


def test_verify_general_identity():
    report = verify_transformation_general(
        identity(2), enumerate_even_mod2(2), random_tau(2, seeded(82)))
    assert report.passed
    assert all(abs(r - 1) < 1e-10 for r in report.ratios)


def test_verify_general_full_group():
    # cross terms in the phase only matter off the level-2 group
    rng = seeded(83)
    for g in (1, 2):
        for _ in range(12):
            mat = random_sp(g, rng)
            report = verify_transformation_general(
                mat, enumerate_even_mod2(g), random_tau(g, rng), tol=1e-6)
            assert report.passed, report.max_deviation
            assert abs(report.estimated_unit ** 8 - 1) < 1e-5


def test_verify_general_agrees_with_character_sweep():
    rng = seeded(84)
    for _ in range(10):
        mat = word_to_matrix(random_word(1, rng.randint(1, 4), rng.randint(0, 10**9)))
        point = random_tau(1, rng)
        a = verify_character(mat, point)
        b = verify_transformation_general(mat, enumerate_even_mod2(1), point)
        assert a.passed and b.passed
        assert abs(a.estimated_unit - b.estimated_unit) < 1e-9


def test_verify_general_too_few_usable():
    with pytest.raises(TooFewUsable):
        verify_transformation_general(identity(1), [characteristic(1, 1)], TAU_I)


def test_verify_igusa_product_identity():
    report = verify_igusa_product(characteristic(0, 0), characteristic(1, 0),
                                  identity(1), TAU_I)
    assert report.passed
    assert all(abs(r - 1) < 1e-10 for r in report.ratios)


def test_verify_igusa_product_b11_at_i():
    report = verify_igusa_product(characteristic(0, 0), characteristic(1, 0),
                                  generator("B", 1, 1, 1), TAU_I, tol=1e-6)
    assert report.passed
    assert report.max_deviation < 1e-9
    assert abs(report.estimated_unit ** 4 - 1) < 1e-6


def test_verify_igusa_product_requires_even():
    with pytest.raises(TooFewUsable):
        verify_igusa_product(characteristic(1, 1), characteristic(0, 0),
                             identity(1), TAU_I)


def test_verify_igusa_product_requested_pair_below_floor():
    # theta[1, 0](20 i) is about 3e-7: below the floor, while two even classes clear it
    with pytest.raises(TooFewUsable, match="requested characteristic below the theta floor"):
        verify_igusa_product(characteristic(1, 0), characteristic(0, 0),
                             identity(1), siegel_point([[20j]]))


# A^(10^6) on e_1, e_2 is level 2, and at tau = i I its d block has condition about 4e12.
SINGULAR = word_to_matrix(word(2, [("A", 1, 2, 10 ** 6)]))
TAU_I2 = siegel_point([[1j, 0], [0, 1j]])
ZERO2 = characteristic(0, 0, 0, 0)
SWEEPS = {
    "character": lambda mat, point: verify_character(mat, point),
    "general": lambda mat, point: verify_transformation_general(
        mat, enumerate_even_mod2(point.g), point),
    "product": lambda mat, point: verify_igusa_product(
        characteristic(*[0] * 2 * point.g), characteristic(*[0] * 2 * point.g), mat, point),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_one_conditioning_check_per_sweep(monkeypatch, sweep):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *args: calls.append(1) or cond(*args))
    mat = word_to_matrix(random_word(2, 3, 91))
    assert SWEEPS[sweep](mat, random_tau(2, seeded(92))).passed
    assert len(calls) == 1


def test_singular_factor_is_raised():
    with pytest.raises(SingularFactor):
        mobius(SINGULAR, TAU_I2)
    for sweep in SWEEPS.values():
        with pytest.raises(SingularFactor):
            sweep(SINGULAR, TAU_I2)


@pytest.mark.parametrize("sweep", SWEEPS)
def test_too_few_usable_comes_before_singular_factor(monkeypatch, sweep):
    monkeypatch.setattr(theta, "theta_constants", lambda chars, *args: [0.0] * len(chars))
    with pytest.raises(TooFewUsable):
        SWEEPS[sweep](SINGULAR, TAU_I2)


def test_degree_mismatch_comes_before_too_few_usable():
    with pytest.raises(DegreeMismatch):
        verify_transformation_general(identity(2), [characteristic(1, 1)], TAU_I)


def test_product_extras_do_not_count_as_usable(monkeypatch):
    # Non-binary m, n are summed with the even classes but only those count.
    m, n = characteristic(2, 0), characteristic(0, 2)
    assert verify_igusa_product(m, n, generator("B", 1, 1, 1), TAU_I).passed
    monkeypatch.setattr(theta, "theta_constants",
                        lambda chars, *args: [1.0, 0.0, 0.0, 1.0, 1.0][:len(chars)])
    with pytest.raises(TooFewUsable, match="only 1 theta"):
        verify_igusa_product(m, n, identity(1), TAU_I)


def test_unit_estimates_are_eighth_roots():
    rng = seeded(85)
    for _ in range(10):
        mat = word_to_matrix(random_word(2, rng.randint(1, 4), rng.randint(0, 10**9)))
        report = verify_character(mat, random_tau(2, rng))
        assert report.passed
        assert abs(abs(report.estimated_unit) - 1) < 1e-9
        assert abs(report.estimated_unit ** 8 - 1) < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False), min_size=2, max_size=50))
def test_max_deviation_is_the_pairwise_maximum(ratios):
    # Bit for bit the Python pairwise loop it replaced.
    report = _assemble_report(list(range(len(ratios))), ratios, DEFAULT_TOL)
    assert report.max_deviation == max(abs(x - y) for x in ratios for y in ratios)


@pytest.mark.parametrize("ratios", [
    [1 + 0.5j],                                                     # n = 1
    [1 + 0.5j, -0.25 + 2j],                                         # n = 2
    [0.7 - 0.7j] * 40,                                              # all equal
    [complex(t, 2 * t - 1) for t in np.linspace(-3.0, 5.0, 60)],    # collinear
    [1 + 1e-9 * k + 1e-10j * k * k for k in range(30)]
    + [-1 + 3e-10 * k - 1e-9j * k for k in range(25)],              # two clusters
    [1 + 1e-12 * k - 3e-13j * k for k in range(50)] + [1 + 1e-6j],  # one outlier
    [1.2j, -1, 1] + [0] * 20,           # the widest pair avoids the point farthest out
    [5, -5, 5j, -5j] + [complex(a * x, b * y) for a in (1, -1) for b in (1, -1)
                        for x, y in ((3, 4), (4, 3))],  # a ring, every rho 5: every row visited
    [cmath.exp(2j * math.pi * k / 666) for k in range(666)],      # 666 labels, as a g = 3
    [complex(*z) for z in np.random.default_rng(666).normal(size=(666, 2)).tolist()],  # product
])
def test_max_deviation_prunes_exactly(ratios):
    report = _assemble_report(list(range(len(ratios))), ratios, DEFAULT_TOL)
    assert report.max_deviation == max(abs(x - y) for x in ratios for y in ratios)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_max_deviation_of_non_finite_ratios():
    # no finite distance to order rows by: every pair is compared
    assert _assemble_report([0, 1, 2], [1, math.inf, 2], DEFAULT_TOL).max_deviation == math.inf
    report = _assemble_report([0, 1, 2], [1, complex(math.nan, 0), 2], DEFAULT_TOL)
    assert math.isnan(report.max_deviation) and not report.passed
