import cmath
import itertools
import math
import warnings
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelchi import (DEFAULT_TOL, THETA_FLOOR, Characteristic, DegreeMismatch, EighthRoot,
                       NonPositiveTolerance, NotLevel2, NotUpperHalfSpace, SingularFactor,
                       TooFewUsable, act, characteristic, det_sqrt_factor, enumerate_even_mod2,
                       enumerate_mod2, generator, identity, is_even, make_matrix, mobius,
                       multiply, phase_full, random_word, shift, siegel_point,
                       theta_constant, theta_constants,
                       truncation_radius, verify_character, verify_igusa_product,
                       verify_transformation_general, word, word_to_matrix)
from siegelchi import theta
from siegelchi.theta import SYMMETRY_TOL, _assemble_report

from util import (class_sums_reference, delta, quad_reference, random_sp, random_tau, seeded,
                  sign_shift_exponent, theta_box, theta_dense_reference)

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
                                 [[1j, 0.0], [0.0, math.inf * 1j]],
                                 [[9e307j]], [[1e308j]], [[1e308 + 1j]]])
def test_point_rejects_non_finite_entries(tau):
    # Past half the binary64 range the sum of two entries overflows.
    with pytest.raises(NotUpperHalfSpace):
        siegel_point(tau)


def test_large_finite_point_is_accepted():
    assert theta_constant(characteristic(0, 0), siegel_point([[1e200j]])) == 1.0


@pytest.mark.parametrize("re", [1e300, 4e307])
def test_real_part_is_read_mod_8(re):
    # re is a multiple of 8 in binary64, so tau is i + 8k: theta is its value
    # at i bit for bit, and finite, with no RuntimeWarning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = theta_constant(characteristic(0, 0), siegel_point([[re + 1j]]))
    assert value == theta_constant(characteristic(0, 0), TAU_I) and cmath.isfinite(value)


def test_translation_past_binary64_precision_verifies():
    # B(1, 1)^(2 10^307) sends i to i + 4e307, a multiple of 8.
    mat = word_to_matrix(word(1, [("B", 1, 1, 2 * 10 ** 307)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_character(mat, TAU_I).passed


_dyadic = st.integers(0, 255).map(lambda k: k / 64.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
           st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.lists(_dyadic, min_size=g * g, max_size=g * g),
           st.lists(st.integers(-20, 20), min_size=g * g, max_size=g * g),
           st.lists(st.integers(0, 2 ** 40), min_size=g * g, max_size=g * g))))
def test_theta_is_periodic_by_8_in_re_tau(case):
    # theta(tau + 8S) = theta(tau) for integral symmetric S: bit for bit when
    # S >= 0 and Re tau is dyadic in [0, 4), as then fmod returns Re tau
    # itself; to 1e-12 for a small S of either sign and any Re tau.
    seed, exact, dyadic, small, large = case
    g = math.isqrt(len(dyadic))
    base = random_tau(g, seeded(seed)).tau
    if exact:
        re, s = np.array(dyadic).reshape(g, g), np.array(large).reshape(g, g)
    else:
        re, s = base.real, np.array(small).reshape(g, g)
    re, s = np.triu(re) + np.triu(re, 1).T, np.triu(s) + np.triu(s, 1).T
    chars = enumerate_mod2(g)
    before = theta_constants(chars, siegel_point(re + 1j * base.imag))
    after = theta_constants(chars, siegel_point(re + 8.0 * s + 1j * base.imag))
    if exact:
        assert after == before
    else:
        assert max(abs(p - q) for p, q in zip(after, before)) <= 1e-12


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
          -1.0, 64, [0.0] * 9))
@example(([0.0], 1.0, [0], 1.0 - 5e-10, 0.5, 64, [0.3]))
@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
           st.lists(_entries, min_size=g * g, max_size=g * g),
           st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 1.0)),
           st.lists(st.integers(0, 1), min_size=g, max_size=g),
           _radii, st.one_of(st.just(-1.0), _radii),
           st.sampled_from([64, theta._BLOCK]),
           st.lists(_entries, min_size=g * g, max_size=g * g))))
def test_lattice_is_the_ellipsoid(case):
    # t = tau/4; coset `bits` (n = bits mod 2, n = 2v) gets radius rho2, every
    # other coset `other` (-1: empty).  The blocks hold at most `cap` points,
    # each within the cut of its class's coset, and their (z, class n mod 4)
    # are, bit for bit and as a multiset, those of the brute-force box filter
    # with one of each pair +-n != 0 (its last nonzero coordinate positive)
    # and z = _quad(t, n): all that the theta sums read.
    entries, boost, bits, rho2, other, cap, real = case
    g = len(bits)
    a, x = np.array(entries).reshape(g, g), np.array(real).reshape(g, g)
    y = (a @ a.T + boost * np.eye(g)) / 4.0
    t = (x + x.T) / 8.0 + 1j * y
    cuts = np.full(2 ** g, other)
    cuts[int("".join(map(str, bits)), 2)] = rho2
    with mock.patch.object(theta, "_BLOCK", cap):
        blocks = list(theta._half_lattice(t[None], cuts[None]))
    class_coset = theta._class_tables(g)[1]
    for z, cls in blocks:
        assert len(z) == len(cls) <= cap and np.all(z.imag <= cuts[class_coset[cls]])
    listed = sorted((w.real, w.imag, k) for z, cls in blocks
                    for w, k in zip(z.tolist(), cls.tolist()))
    reach = math.ceil(math.sqrt(max(rho2, other) / np.linalg.eigvalsh(y)[0])) + 1
    box = np.array(list(itertools.product(range(-reach, reach + 1), repeat=g))).T
    q = theta._quad(t, box.astype(float))
    assert np.allclose(q.imag, np.einsum("in,ij,jn->n", box, y, box), rtol=1e-13, atol=0.0)
    last = box[g - 1 - np.argmax(box[::-1] != 0, axis=0), np.arange(box.shape[1])]
    coset = (box % 2).T @ (2 ** np.arange(g - 1, -1, -1))
    keep = (last > 0) & (q.imag <= cuts[coset])
    classes = (box % 4).T @ (4 ** np.arange(g - 1, -1, -1))
    assert listed == sorted(zip(q.real[keep].tolist(), q.imag[keep].tolist(),
                                classes[keep].tolist()))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda g: st.tuples(
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.booleans(),
                              st.lists(st.booleans(), min_size=2 ** g, max_size=2 ** g)),
                    min_size=1, max_size=3))))
def test_one_stacked_pass_is_each_point_alone(case):
    # A stack of points, each tau or M tau for a symplectic M beyond level 2,
    # each summing its own cosets (none at all included), with blocks of at
    # most 64 points so that a point spans several.  Each point's pieces of
    # the stacked blocks are, bit for bit, the blocks of its own pass, and its
    # class sums and theta constants those of its own pass.  An M tau whose
    # ellipsoid holds more than about 2 10^4 points is replaced by tau, to
    # bound the time of one example.
    seed, draws = case
    g = len(draws[0][1]).bit_length() - 1
    rng = seeded(seed)
    points = []
    for moved, _ in draws:
        point = random_tau(g, rng)
        try:
            image = mobius(random_sp(g, rng), point)
        except NotUpperHalfSpace:
            image = point
        points.append(image if moved and lattice_size(image) < 2e4 else point)
    t, every = class_sum_arguments(*points)
    rho2 = np.where([asks for _, asks in draws], every, -1.0)
    reads = [([r for r in range(4 ** g) if asks[r >> g]] or [0], point)
             for point, (_, asks) in zip(points, draws)]
    with mock.patch.object(theta, "_BLOCK", 64):
        pieces = [[] for _ in points]
        for z, cls in theta._half_lattice(t, rho2):
            for p, piece in enumerate(pieces):
                mine = cls >> 2 * g == p
                if mine.any():
                    piece.append((z[mine].tobytes(), (cls[mine] - (p << 2 * g)).tobytes()))
        sums = theta._class_sums(t, rho2).reshape(len(points), -1)
        values = theta._theta_rows(reads, theta.DEFAULT_TAIL_TOL)
        for p, read in enumerate(reads):
            alone = theta._half_lattice(t[p:p + 1], rho2[p:p + 1])
            assert pieces[p] == [(z.tobytes(), cls.tobytes()) for z, cls in alone if len(z)]
            assert sums[p].tobytes() == theta._class_sums(t[p:p + 1], rho2[p:p + 1]).tobytes()
            assert values[p] == theta._theta_rows([read], theta.DEFAULT_TAIL_TOL)[0]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_an_empty_read_yields_nothing_and_keeps_its_neighbours_bits(g):
    # An empty row list is an empty index array, not float64, and reads [];
    # a read stacked next to it keeps the values of its own pass, bit for bit.
    rng = seeded(g)
    empty, full = random_tau(g, rng), random_tau(g, rng)
    rows = list(range(0, 4 ** g, 3))
    alone = theta._theta_rows([(rows, full)], theta.DEFAULT_TAIL_TOL)
    assert theta._theta_rows([([], empty)], theta.DEFAULT_TAIL_TOL) == [[]]
    for reads, p in [([([], empty), (rows, full)], 1), ([(rows, full), ([], empty)], 0)]:
        values = theta._theta_rows(reads, theta.DEFAULT_TAIL_TOL)
        assert values[1 - p] == [] and repr(values[p]) == repr(alone[0])


_parts = st.floats(-4.0, 4.0, allow_subnormal=False)
_skews = st.floats(-SYMMETRY_TOL, SYMMETRY_TOL, allow_subnormal=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
           st.lists(st.tuples(_parts, _parts), min_size=g * g, max_size=g * g),
           st.lists(st.tuples(_skews, _skews), min_size=g * g, max_size=g * g),
           st.lists(st.lists(st.integers(-60, 60), min_size=g, max_size=g),
                    min_size=1, max_size=16))))
def test_quad_is_the_elementwise_form_to_rounding(case):
    # a is symmetric only to within SYMMETRY_TOL, as a validated tau may be.
    # Multiplying by an integer-valued n and adding are componentwise, so each
    # part of either form is a real computation on that part of a, whose
    # every term a_ij n_i n_j passes through at most 2g roundings in the
    # elementwise form and g + 3 in _quad (the sum a_ij + a_ji, its product,
    # the sum l_i, adding a_ii n_i, the product by n_i and one addition per
    # level after); so they differ by at most (gamma_2g + gamma_(g+3))
    # sum |a_ij n_i n_j|, gamma_k = k u / (1 - k u), u = 2^-53.
    parts, skews, cols = case
    g = len(cols[0])
    a = np.array([complex(*p) for p in parts]).reshape(g, g)
    a = (a + a.T) / 2.0 + np.triu(np.array([complex(*p) for p in skews]).reshape(g, g), 1)
    n = np.array(cols, dtype=float).T
    z, ref = theta._quad(a, n), quad_reference(a, n)
    gamma = sum(k * 2.0 ** -53 / (1 - k * 2.0 ** -53) for k in (2 * g, g + 3))
    for part in (np.real, np.imag):
        terms = np.einsum("ij,in,jn->n", np.abs(part(a)), np.abs(n), np.abs(n))
        assert np.all(np.abs(part(z) - part(ref)) <= gamma * terms)
    if g == 1:
        assert np.array_equal(z, ref)       # the same two products, in the same order


_char_entries = st.one_of(st.integers(0, 1), st.integers(-5, 5), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda g: st.tuples(
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.lists(_char_entries, min_size=2 * g, max_size=2 * g),
                    min_size=1, max_size=12))))
def test_theta_rows_match_the_dense_product(case):
    # Every binary row (odd ones too) and drawn characteristics, binary or
    # not, up to +-2^70.  == compares each nonzero part bit for bit; an exact
    # zero may carry either sign.
    seed, vectors = case
    g = len(vectors[0]) // 2
    point = random_tau(g, seeded(seed))
    binary = enumerate_mod2(g)
    chars = binary + [Characteristic.from_vector(v) for v in vectors]
    values = theta_constants(chars, point)
    assert values == theta_dense_reference(chars, point)
    assert all(values[m._row] == 0 for m in binary if not is_even(m))
    for m, value in zip(chars, values):
        b = m.mod2()
        at_row = values[b._row]
        assert value == (-at_row if sign_shift_exponent(b, delta(b, m)) else at_row)


def lattice_size(point):
    """Half the volume of the ellipsoid _half_lattice walks for the point, about
    the number of points it lists."""
    t, rho2 = class_sum_arguments(point)
    g = point.g
    ball = math.pi ** (g / 2) / math.gamma(g / 2 + 1) * rho2.max() ** (g / 2)
    return ball / math.sqrt(np.linalg.det(t[0].imag)) / 2


def class_sum_arguments(*points):
    """The stacks t and rho2 that _theta_rows passes _class_sums for these
    points, every coset asked for."""
    t = np.array([point.tau for point in points])
    t.real = np.fmod(t.real, 8.0)
    r = [truncation_radius(None, point, theta.DEFAULT_TAIL_TOL) for point in points]
    rho2 = np.array([[point.im_min_eig * x * x] * 2 ** point.g for point, x in zip(points, r)])
    return t / 4.0, rho2


def assert_class_sums_match_cos_sin(point):
    # Per term and part, within 4.1 u and 7.9 u of exp(-pi Im z) (the first-order
    # bound of the _class_sums docstring, tan within one ulp), the cos/sin
    # reference within 1 u; each addition of either sum rounds by u of the moduli.
    t, rho2 = class_sum_arguments(point)
    sums = theta._class_sums(t, rho2)
    ref, moduli, adds = class_sums_reference(t, rho2)
    tol = (9.0 + 2.0 * adds) * 2.0 ** -53 * moduli
    assert np.all(np.abs(sums.real - ref.real) <= tol), (sums, ref, tol)
    assert np.all(np.abs(sums.imag - ref.imag) <= tol), (sums, ref, tol)
    return sums, ref


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_half_angle_class_sums_match_cos_sin(g, seed):
    # At tau and at M tau for a symplectic M beyond level 2.
    rng = seeded(seed)
    point = random_tau(g, rng)
    assert_class_sums_match_cos_sin(point)
    assert_class_sums_match_cos_sin(mobius(random_sp(g, rng), point))


_BELOW_8 = 8.0 - 2.0 ** -49


@pytest.mark.parametrize("tau", [
    [[4.0 + 0.5j]], [[-4.0 + 0.5j]], [[math.nextafter(4.0, 0.0) + 0.5j]],
    [[math.nextafter(4.0, 8.0) + 0.5j]], [[4.0 + 0.8j, 0.3], [0.3, -4.0 + 0.6j]],
], ids=["4", "-4", "4-ulp", "4+ulp", "g2"])
def test_half_angle_near_an_odd_multiple_of_half_pi(tau):
    # Re tau_ii = +-4 puts (pi/2) Re z at n_i^2 (pi/2) +- an ulp for odd n_i,
    # so tan there is about 1e16.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = siegel_point(tau)
        assert_class_sums_match_cos_sin(point)
        t, rho2 = class_sum_arguments(point)
        turns = np.concatenate([z.real for z, _ in theta._half_lattice(t, rho2)])
        assert np.abs(np.tan((0.5 * math.pi) * turns)).max() > 1e14


@pytest.mark.parametrize("tau", [
    [[_BELOW_8 + 0.01j]], [[-_BELOW_8 + 0.01j]],
    [[_BELOW_8 + 0.015j, -_BELOW_8 + 0.002j], [-_BELOW_8 + 0.002j, -_BELOW_8 + 0.015j]],
], ids=["8", "-8", "g2"])
def test_half_angle_far_from_zero(tau):
    # Re tau just below +-8 and Im tau small: the lattice reaches |Re z| ~ 1e4.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = siegel_point(tau)
        assert_class_sums_match_cos_sin(point)
        t, rho2 = class_sum_arguments(point)
        assert max(np.abs(z.real).max() for z, _ in theta._half_lattice(t, rho2)) > 5e3


@pytest.mark.parametrize("g", [1, 2, 3])
def test_half_angle_at_zero_real_part(g):
    # Re z = 0: tan is 0 and each term is exp(-pi Im z), as cos and sin give it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, ref = assert_class_sums_match_cos_sin(siegel_point(0.7j * np.eye(g)))
    assert np.array_equal(sums, ref) and not sums.imag.any()


def test_one_tan_per_lattice_block_and_no_cos_or_sin(monkeypatch):
    calls = Counter()
    for name in ("tan", "cos", "sin"):
        monkeypatch.setattr(np, name, lambda *args, f=getattr(np, name), name=name:
                            calls.update([name]) or f(*args))
    blocks = theta._half_lattice
    monkeypatch.setattr(theta, "_half_lattice", lambda *args:
                        (calls.update(["block"]) or block for block in blocks(*args)))
    point = siegel_point([[0.1 + 0.3j, 0.05, 0], [0.05, 0.2 + 0.3j, 0], [0, 0, -0.1 + 0.3j]])
    theta_constants(enumerate_mod2(3), point)
    assert calls["tan"] == calls["block"] > 1 and calls["cos"] == calls["sin"] == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_even_table_is_cached_and_summed_alike(g):
    # The even rows are read through the per-g class tables, built once and
    # read-only, and theta_constants sums them as _theta_rows does.
    evens = enumerate_even_mod2(g)
    tables = theta._class_tables(g)
    assert theta._class_tables(g) is tables and not any(t.flags.writeable for t in tables)
    rows, flips = theta._signed_rows(evens)
    assert rows == [m._row for m in evens] and not any(flips)
    point = random_tau(g, seeded(67 + g))
    assert theta_constants(evens, point) == theta._theta_rows([(rows, point)],
                                                              theta.DEFAULT_TAIL_TOL)[0]


def test_batched_matches_single_characteristic():
    rng = seeded(65)
    for g in (1, 2, 3):
        for _ in range(4):
            point = random_tau(g, rng)
            chars = [Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
                     for _ in range(8)] + enumerate_even_mod2(g)
            batch = theta_constants(chars, point)
            assert theta_constants(iter(chars), point) == batch
            assert theta_constants((m for m in chars), point) == batch
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


def _duplication_gap(point):
    """At every binary m, |theta[m](tau)^2 - sum_c (-1)^(m''.c) theta[c, 0](2 tau)
    theta[c + m', 0](2 tau)|, c binary, and the sum of the moduli of the terms
    on the right.  Rows and c are indices in enumerate_mod2 order, so c + m'
    mod 2 is an XOR of indices and m''.c the parity of an AND."""
    g = point.g
    chars = enumerate_mod2(g)
    twice = np.array(theta_constants(chars[::2 ** g], siegel_point(2 * point.tau)))
    mp, mpp = np.divmod(np.arange(4 ** g), 2 ** g)
    c = np.arange(2 ** g)
    terms = ((1.0 - 2.0 * (np.bitwise_count(mpp[:, None] & c) & 1))
             * twice[c] * twice[mp[:, None] ^ c])
    left = np.array(theta_constants(chars, point)) ** 2
    return np.abs(left - terms.sum(axis=1)), np.abs(terms).sum(axis=1)


# Each theta value is within tail_tol = 1e-12 of itself (truncation_radius)
# and |theta[m]|^2 is at most the scale, the sum of the moduli on the right,
# so truncation moves the identity by at most 4e-12 of the scale.  Rounding
# has no stated bound yet; it was at most 4.4e-15 of the scale on 200 points
# at g = 1..4, so 1e-11 leaves it room while the identity keeps its teeth: with
# the radius halved it is off by at least 2e-7 of the scale.
DUPLICATION_TOL = 1e-11


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False), st.booleans())
def test_theta_squares_obey_the_duplication_formula(g, rng, moved):
    # Oracle-free at every g, even and odd rows alike: the right side
    # vanishes at odd m.  M tau with Im below 0.3 is replaced by tau, which
    # keeps the lattice at g = 4 small.
    point = random_tau(g, rng)
    if moved:
        image = mobius(word_to_matrix(random_word(g, rng.randint(1, 2), rng.randint(0, 10**9))),
                       point)
        point = image if image.im_min_eig > 0.3 else point
    gap, scale = _duplication_gap(point)
    assert (gap <= DUPLICATION_TOL * scale).all(), (point, (gap / scale).max())


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_duplication_formula_sees_a_halved_radius(monkeypatch, g):
    radius = truncation_radius
    monkeypatch.setattr(theta, "truncation_radius", lambda *args: radius(*args) / 2.0)
    gap, scale = _duplication_gap(random_tau(g, seeded(99 + g)))
    assert (gap > DUPLICATION_TOL * scale).any()


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

    monkeypatch.setattr("siegelchi.theta._theta_rows", no_theta)
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


def test_general_sweep_sums_the_cosets_of_every_image():
    # M tau is summed at the cosets of M o m for every m offered, as the kept m
    # are known only after the pass: with m_set = [m, 0] and M beyond level 2,
    # M o m mostly lies outside the cosets tau sums.  Each report is the one
    # built from theta_constants of each kept m at tau and of M o m at M tau.
    rng = seeded(98)
    zero = characteristic(0, 0, 0, 0)
    reports = 0
    for m in enumerate_even_mod2(2):
        for _ in range(20):
            mat, point = random_sp(2, rng), random_tau(2, rng)
            try:
                report = verify_transformation_general(mat, [m, zero], point)
            except (NotUpperHalfSpace, SingularFactor, TooFewUsable):
                continue
            labels = list(report.m_list)
            tops = theta_constants([act(mat, x) for x in labels], mobius(mat, point))
            root = det_sqrt_factor(mat, point)
            assert report.passed and report.ratios == tuple(
                top / (EighthRoot(phase_full(x, mat).eighths).value * root * val)
                for x, val, top in zip(labels, theta_constants(labels, point), tops))
            reports += 1
    assert reports > 150


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
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    mat = word_to_matrix(random_word(2, 3, 91))
    assert SWEEPS[sweep](mat, random_tau(2, seeded(92))).passed
    assert len(calls) == 1


def test_conditioning_check_stays_in_range():
    # c tau + d with singular values near 1e307: COND_LIMIT times the least
    # one passes the binary64 range, and the check takes it without a warning.
    k = 10 ** 307
    mat = word_to_matrix(word(2, [("C", 1, 2, k), ("C", 1, 1, -k)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUpperHalfSpace, match="not positive definite"):
            mobius(mat, siegel_point([[4 + 1j, 0.5], [0.5, 4 + 1j]]))


def test_singular_factor_is_raised():
    with pytest.raises(SingularFactor):
        mobius(SINGULAR, TAU_I2)
    for sweep in SWEEPS.values():
        with pytest.raises(SingularFactor):
            sweep(SINGULAR, TAU_I2)


@pytest.mark.parametrize("inverse, message", [
    (lambda den: np.full(den.shape, math.nan), "non-finite"),
    (lambda den: -np.eye(len(den)), "not positive definite")])
def test_bad_image_is_not_upper_half_space(monkeypatch, inverse, message):
    # M tau = tau (c tau + d)^-1 at the identity, with the inverse patched to
    # give a non-finite image or -tau: NotUpperHalfSpace, never LinAlgError.
    monkeypatch.setattr(np.linalg, "inv", inverse)
    point = random_tau(2, seeded(93))
    for call in [mobius, det_sqrt_factor] + list(SWEEPS.values()):
        with pytest.raises(NotUpperHalfSpace, match=message):
            call(identity(2), point)


@pytest.mark.parametrize("sweep", SWEEPS)
def test_too_few_usable_comes_before_singular_factor(monkeypatch, sweep):
    monkeypatch.setattr(theta, "_theta_rows",
                        lambda reads, *args: [[0.0] * len(rows) for rows, _ in reads])
    with pytest.raises(TooFewUsable):
        SWEEPS[sweep](SINGULAR, TAU_I2)


@pytest.mark.parametrize("sweep", SWEEPS)
def test_transform_error_gives_way_to_too_few_usable(monkeypatch, sweep):
    # The transform comes before the one lattice pass; when it fails, theta at
    # tau alone decides: SingularFactor with two usable, TooFewUsable without.
    def singular(*args):
        raise SingularFactor("c tau + d is numerically singular")

    monkeypatch.setattr(theta, "_transform", singular)
    mat, point = word_to_matrix(random_word(2, 3, 91)), random_tau(2, seeded(92))
    with pytest.raises(SingularFactor):
        SWEEPS[sweep](mat, point)
    with pytest.raises(TooFewUsable):
        verify_transformation_general(mat, [ZERO2], point)
    passes = []
    monkeypatch.setattr(theta, "_theta_rows", lambda reads, *args: passes.append(len(reads))
                        or [[1.0] + [0.0] * (len(rows) - 1) for rows, _ in reads])
    with pytest.raises(TooFewUsable):
        SWEEPS[sweep](mat, point)
    assert passes == [1]


def test_mobius_det_sqrt_factor_and_sweeps_check_the_degree():
    # mobius and det_sqrt_factor check M against tau, and each sweep does
    # before its lattice pass; _transform, which they share, does not again.
    for call in [mobius, det_sqrt_factor] + list(SWEEPS.values()):
        with pytest.raises(DegreeMismatch):
            call(identity(2), TAU_I)


def test_degree_mismatch_comes_before_too_few_usable():
    with pytest.raises(DegreeMismatch):
        verify_transformation_general(identity(2), [characteristic(1, 1)], TAU_I)


def test_product_extras_do_not_count_as_usable(monkeypatch):
    # Non-binary m, n are read at their rows mod 2: only the three even
    # classes are summed, and one of them above the floor is too few.
    m, n = characteristic(2, 0), characteristic(0, 2)
    assert verify_igusa_product(m, n, generator("B", 1, 1, 1), TAU_I).passed
    monkeypatch.setattr(theta, "_theta_rows", lambda reads, *args: [[1.0, 0.0, 0.0] for _ in reads])
    with pytest.raises(TooFewUsable, match="only 1 theta"):
        verify_igusa_product(m, n, identity(1), TAU_I)


@pytest.mark.parametrize("g, m, n", [
    (2, (2, 0, 0, 2), (3, 0, -2, 1)),
    (3, (2, 0, 0, 0, 2, 0), (-1, 3, 0, 1, 1, 2))], ids=["g2", "g3"])
def test_product_reads_m_and_n_at_their_rows_mod_2(g, m, n):
    # theta[m + 2j] = +-theta[m] with one sign at tau and M tau, so a non-binary
    # pair adds no ratio: its report is that of (m mod 2, n mod 2), bit for bit.
    m, n = characteristic(*m), characteristic(*n)
    mat = word_to_matrix(random_word(g, 3, 94 + g))
    point = random_tau(g, seeded(95 + g))
    report = verify_igusa_product(m, n, mat, point)
    binary = verify_igusa_product(m.mod2(), n.mod2(), mat, point)
    assert report.passed and report.m_list == binary.m_list
    assert report.m_list[0] == (m.mod2(), n.mod2())
    assert report.ratios == binary.ratios and report.estimated_unit == binary.estimated_unit
    if g == 2:
        assert len(report.ratios) == 10


@pytest.mark.parametrize("m, n", [(ZERO2, characteristic(0, 0)), (characteristic(0, 0), ZERO2)],
                         ids=["m", "n"])
def test_product_degree_mismatch_comes_before_theta_work(monkeypatch, m, n):
    def no_theta(*args, **kwargs):
        raise AssertionError("theta work before the degree check")

    monkeypatch.setattr(theta, "_theta_rows", no_theta)
    with pytest.raises(DegreeMismatch):
        verify_igusa_product(m, n, identity(1), TAU_I)


def test_image_past_half_binary64_is_not_upper_half_space():
    # M i = i + 10^308: past half the binary64 maximum, rejected before the
    # re-symmetrization could overflow.
    mat = word_to_matrix(word(1, [("B", 1, 1, 5 * 10 ** 307)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUpperHalfSpace, match="binary64"):
            mobius(mat, siegel_point([[1j]]))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_product_report_pairs_m_with_each_kept_class_once(g):
    # The requested pair first, read mod 2, then m with every other usable
    # even class once: K ratios, where the pair walk made K (K + 1) / 2.
    mat = word_to_matrix(random_word(g, 3, 96 + g))
    point = random_tau(g, seeded(97 + g))
    evens = enumerate_even_mod2(g)
    kept = [m for m, v in zip(evens, theta_constants(evens, point)) if abs(v) > THETA_FLOOR]
    lift = Characteristic.from_vector([2, -4] * g)
    for m, n in [(kept[-1], kept[-1]), (kept[-1], kept[0]), (kept[0], kept[-1]),
                 (shift(kept[-1], lift), shift(kept[0], lift))]:
        report = verify_igusa_product(m, n, mat, point)
        assert report.passed and report.m_list[0] == (m.mod2(), n.mod2())
        assert len(report.ratios) == len(report.m_list) == len(kept)
        assert {a for a, _ in report.m_list} == {m.mod2()}
        assert sorted(b._row for _, b in report.m_list) == sorted(x._row for x in kept)


def _product_terms(monkeypatch, turn=None):
    """Record the q_a = theta_a(M tau) / (theta_a(tau) zeta^k_a) and the det
    of each product sweep, theta at M tau first turned by turn(K) if given."""
    seen = []
    sweep = theta._sweep

    def recorded(mat, *args):
        kept, vals, tops, det = sweep(mat, *args)
        if turn is not None:
            tops = [top * w for top, w in zip(tops, turn(len(tops)))]
        ks, evens = theta._chi_table(mat)[0], theta._mod2_table(mat.g)[2]
        seen.append((np.array([top / (val * EighthRoot(int(ks[evens[i]])).value)
                               for i, val, top in zip(kept, vals, tops)]), det))
        return kept, vals, tops, det

    monkeypatch.setattr(theta, "_sweep", recorded)
    return seen


def _all_pairs(q, det):
    a, b = np.triu_indices(len(q))
    return q[a] * q[b] / det


def test_product_deviation_is_between_the_pair_maximum_and_twice_it(monkeypatch):
    # max_deviation = 2 max|q| diam{q} / |det| bounds every pair's deviation
    # and is at most twice the largest; both within the rounding of the ratios.
    seen = _product_terms(monkeypatch)
    rng = seeded(4901)
    for g in (1, 2, 3):
        evens = enumerate_even_mod2(g)
        for _ in range(40):
            mat = word_to_matrix(random_word(g, rng.randint(1, 4), rng.randint(0, 10**9)))
            report = verify_igusa_product(rng.choice(evens), rng.choice(evens), mat,
                                          random_tau(g, rng))
            r = _all_pairs(*seen[-1])
            pairs = np.abs(r[:, None] - r).max()
            slack = 16 * 2.0 ** -53 * np.abs(r).max()
            assert pairs - slack <= report.max_deviation <= 2 * pairs + slack
    assert len(seen) == 120


@pytest.mark.parametrize("flip", [0, 5], ids=["row-of-m", "other-row"])
def test_one_sign_flip_fails_the_product_sweep(monkeypatch, flip):
    # chi off by 4 at one even row turns one q_a to -q_a: the report's bound
    # reads 4, every pair's maximum 2, while the diagonal pairs |q_a^2 - q_c^2|
    # stay at rounding level, blind to the sign.
    seen = _product_terms(monkeypatch)
    chi_table = theta._chi_table
    evens = enumerate_even_mod2(2)
    monkeypatch.setattr(theta, "_chi_table", lambda mat: (
        (chi_table(mat)[0] + 4 * (np.arange(16) == evens[flip]._row)) % 8,))
    mat = word_to_matrix(random_word(2, 3, 93))
    report = verify_igusa_product(evens[0], evens[1], mat, random_tau(2, seeded(94)))
    q, det = seen[-1]
    r = _all_pairs(q, det)
    assert not report.passed and abs(report.max_deviation - 4) < 1e-9
    assert abs(np.abs(r[:, None] - r).max() - 2) < 1e-9
    assert np.ptp(q * q / det) < 1e-12


def test_product_verdict_near_tol_is_the_pair_rule(monkeypatch):
    # Theta at M tau turned by small centred phases e^(i phi_a): every pair's
    # maximum D is about 2 ptp(phi), and the report's bound equals it to first
    # order, so just below and just above D the verdict is the all-pairs one.
    rng = seeded(4902)
    phi = []
    seen = _product_terms(monkeypatch, turn=lambda k: np.exp(1e-7j * (phi[:k] - phi[:k].mean())))
    for g in (1, 2, 3):
        evens = enumerate_even_mod2(g)
        for _ in range(10):
            mat = word_to_matrix(random_word(g, rng.randint(1, 4), rng.randint(0, 10**9)))
            point, m, n = random_tau(g, rng), rng.choice(evens), rng.choice(evens)
            phi = np.array([rng.uniform(-1, 1) for _ in evens])
            verify_igusa_product(m, n, mat, point)
            r = _all_pairs(*seen[-1])
            pairs = _assemble_report(range(len(r)), r.tolist(), 1.0).max_deviation
            for tol, verdict in [(pairs * (1 - 1e-4), False), (pairs * (1 + 1e-4), True)]:
                rule = _assemble_report(range(len(r)), r.tolist(), tol, unit_power=4)
                assert verify_igusa_product(m, n, mat, point, tol=tol).passed == verdict
                assert rule.passed == verdict


# B(1, 1)^(10^400) is level 2, and 10^400 overflows binary64.
HUGE = word_to_matrix(word(1, [("B", 1, 1, 10 ** 400)]))


def test_entry_past_binary64_is_not_upper_half_space():
    for call in [mobius, det_sqrt_factor] + list(SWEEPS.values()):
        with pytest.raises(NotUpperHalfSpace, match="binary64"):
            call(HUGE, TAU_I)


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
