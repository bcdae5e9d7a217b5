import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelchi import (BadShape, Characteristic, DegreeMismatch, act,
                       characteristic, enumerate_even_mod2,
                       enumerate_mod2, generator,
                       is_even, multiply, random_word,
                       shift, word_to_matrix)

from util import (ParityMismatch, delta, random_level2, random_sp, seeded,
                  sign_shift_exponent, solve_preimage)


# ---------------------------------------------------------------------------
# Parity and enumeration
# ---------------------------------------------------------------------------

def test_parity_examples():
    assert is_even(characteristic(0, 0))
    assert not is_even(characteristic(1, 1))
    assert is_even(characteristic(1, 0, 0, 1))  # pairing (1,0).(0,1) = 0


def test_parity_brute_force():
    # oracle: direct dot product over every vector in {0,1}^4
    for bits in itertools.product((0, 1), repeat=4):
        m = Characteristic.from_vector(bits)
        assert is_even(m) == ((bits[0] * bits[2] + bits[1] * bits[3]) % 2 == 0)


def test_from_vector_validation():
    with pytest.raises(DegreeMismatch):
        Characteristic.from_vector([1, 2, 3])
    with pytest.raises(DegreeMismatch):
        Characteristic.from_vector([])
    with pytest.raises(DegreeMismatch):
        Characteristic(g=2, m_prime=(1,), m_double=(0, 0))


def test_entries_are_python_ints():
    # A float or a bool is refused, not truncated or read as a bit, whichever
    # way the characteristic is built; any integer sequence is stored as a
    # tuple of Python ints, so equal characteristics hash alike.
    for make in (lambda: characteristic(1.7, 0), lambda: characteristic(True, 0),
                 lambda: Characteristic.from_vector([0, 2.0]),
                 lambda: Characteristic.from_vector([False, 1]),
                 lambda: Characteristic(1, (0.5,), (1,)),
                 lambda: Characteristic(1, (1,), (True,))):
        with pytest.raises(BadShape):
            make()
    m = Characteristic(1, [1], [0])
    assert m.m_prime == (1,) and hash(m) == hash(characteristic(1, 0))
    assert type(Characteristic.from_vector(np.arange(2)).m_prime[0]) is int


def test_internal_constructions_equal_checked_ones():
    # act, mod2, shift and the mod-2 table build from Python ints without the
    # check; each result equals, and hashes as, the checked construction.
    rng = seeded(37)
    mat = random_sp(2, rng)
    m, n = characteristic(3, -2, 5, 2 ** 70), characteristic(-1, 0, 4, 1)
    made = [act(mat, m), m.mod2(), shift(m, n)] + enumerate_mod2(2)
    for x in made:
        checked = Characteristic.from_vector(list(x.vector()))
        assert x == checked and hash(x) == hash(checked) and repr(x) == repr(checked)
        assert all(type(v) is int for v in x.vector())
    assert shift(m, n).vector() == (1, -2, 13, 2 ** 70 + 2)


def test_enumerate_even_counts():
    # 2^(g-1) (2^g + 1): brute-force oracle agrees
    for g, expected in ((1, 3), (2, 10), (3, 36)):
        evens = enumerate_even_mod2(g)
        assert len(evens) == expected
        oracle = {bits for bits in itertools.product((0, 1), repeat=2 * g)
                  if sum(bits[i] * bits[g + i] for i in range(g)) % 2 == 0}
        assert {m.vector() for m in evens} == oracle
        assert all(is_even(m) for m in evens)


def test_enumerate_mod2_is_lexicographic_and_complete():
    for g in (1, 2, 3):
        vectors = [m.vector() for m in enumerate_mod2(g)]
        assert vectors == list(itertools.product((0, 1), repeat=2 * g))
        assert enumerate_even_mod2(g) == [m for m in enumerate_mod2(g) if is_even(m)]
        enumerate_mod2(g).clear()                   # each call returns a fresh list
        enumerate_even_mod2(g).clear()
        assert len(enumerate_mod2(g)) == 4 ** g
        assert len(enumerate_even_mod2(g)) == 2 ** (g - 1) * (2 ** g + 1)


def test_enumerate_even_lexicographic():
    vectors = [m.vector() for m in enumerate_even_mod2(2)]
    assert vectors == sorted(vectors)
    assert vectors[0] == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Affine action
# ---------------------------------------------------------------------------

def test_act_identity():
    from siegelchi import identity

    m = characteristic(3, -2, 1, 0)
    assert act(identity(2), m) == m


def test_act_b11():
    assert act(generator("B", 1, 1, 1), characteristic(1, 0)) == characteristic(1, 0)


def test_act_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        act(generator("B", 1, 1, 1), characteristic(1, 0, 0, 0))


def test_act_is_group_action_mod2():
    rng = seeded(11)
    for g in (1, 2, 3):
        for _ in range(30):
            m1 = random_level2(g, rng)
            m2 = random_level2(g, rng)
            m = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
            lhs = act(multiply(m1, m2), m).mod2()
            rhs = act(m1, act(m2, m)).mod2()
            assert lhs == rhs


def test_act_preserves_parity_mod2():
    # parity is a symplectic invariant on the full group, not just level 2
    rng = seeded(12)
    for g in (1, 2, 3):
        for _ in range(25):
            mat = random_sp(g, rng)
            m = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
            assert is_even(act(mat, m)) == is_even(m)


def test_level2_action_fixes_mod2_class():
    rng = seeded(13)
    for g in (1, 2, 3):
        for _ in range(25):
            mat = random_level2(g, rng)
            m = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
            assert act(mat, m).mod2() == m.mod2()
            # hence the preimage delta below never raises ParityMismatch
            delta(m, solve_preimage(mat, m))


# ---------------------------------------------------------------------------
# Exact inversion
# ---------------------------------------------------------------------------

def test_preimage_identity():
    from siegelchi import identity

    m = characteristic(2, -1)
    assert solve_preimage(identity(1), m) == m


def test_preimage_b11():
    assert solve_preimage(generator("B", 1, 1, 1), characteristic(1, 0)) == characteristic(1, 0)


def test_preimage_hand_example():
    from siegelchi import make_matrix

    mat = make_matrix([[5, 2], [2, 1]])
    assert solve_preimage(mat, characteristic(1, 0)) == characteristic(-25, -12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 7),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2))
def test_action_bijection_roundtrip(seed, length, prime, double):
    mat = word_to_matrix(random_word(2, length, seed))
    m = Characteristic(g=2, m_prime=tuple(prime), m_double=tuple(double))
    assert solve_preimage(mat, act(mat, m)) == m
    assert act(mat, solve_preimage(mat, m)) == m


def test_roundtrip_on_full_group():
    rng = seeded(14)
    for g in (1, 2, 3):
        for _ in range(20):
            mat = random_sp(g, rng)
            m = Characteristic.from_vector([rng.randint(-5, 5) for _ in range(2 * g)])
            assert solve_preimage(mat, act(mat, m)) == m
            assert act(mat, solve_preimage(mat, m)) == m


# ---------------------------------------------------------------------------
# Delta and the shift sign
# ---------------------------------------------------------------------------

def test_delta_zero():
    m = characteristic(1, 0, 2, 3)
    assert delta(m, m).vector() == (0, 0, 0, 0)


def test_delta_hand_example():
    assert delta(characteristic(1, 0), characteristic(-25, -12)) == characteristic(-13, -6)


def test_delta_parity_mismatch():
    with pytest.raises(ParityMismatch):
        delta(characteristic(0, 0), characteristic(0, 1))


def test_delta_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        delta(characteristic(0, 0), characteristic(0, 1, 0, 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_shift_and_delta_are_inverse(base, bump):
    m = Characteristic.from_vector(base)
    n = Characteristic.from_vector(bump)
    assert delta(m, shift(m, n)) == n


def test_sign_shift_exponent():
    assert sign_shift_exponent(characteristic(1, 0), characteristic(0, 0)) == 0
    assert sign_shift_exponent(characteristic(1, 0), characteristic(3, -6)) == 0
    assert sign_shift_exponent(characteristic(1, 1, 0, 0),
                               characteristic(0, 0, 1, 0)) == 1
