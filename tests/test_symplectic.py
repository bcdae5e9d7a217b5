import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelchi import (BadShape, IndexOutOfRange, NotSymplectic, alphabet,
                       commutator, generator, identity, inverse,
                       is_igusa48,
                       is_level2, is_level4, make_matrix, matrix_power,
                       multiply, random_igusa48, random_word, word,
                       word_to_matrix)
from siegelchi.symplectic import _generator_power

from util import random_level2, seeded, word_to_matrix_reference


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_identity_accepted():
    for g in (1, 2, 3):
        m = make_matrix(np.eye(2 * g, dtype=int))
        assert m.g == g
        assert is_level2(m) and is_level4(m) and is_igusa48(m)


def test_b11_accepted():
    m = make_matrix([[1, 2], [0, 1]])
    assert m.entries.tolist() == [[1, 2], [0, 1]]
    assert m.a.tolist() == [[1]] and m.b.tolist() == [[2]]


def test_symplectic_but_not_level2():
    m = make_matrix([[1, 1], [0, 1]])
    assert not is_level2(m)
    lower = make_matrix([[1, 0], [1, 1]])
    assert not is_level2(lower)


def test_scalar_two_rejected():
    with pytest.raises(NotSymplectic):
        make_matrix([[2, 0], [0, 2]])


def test_bad_shapes():
    with pytest.raises(BadShape):
        make_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(BadShape):
        make_matrix([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(BadShape):
        make_matrix([[1.5, 0], [0, 1]])
    with pytest.raises(BadShape):
        make_matrix([[True, False], [False, True]])


def test_asymmetric_ab_rejected():
    # upper unipotent with non-symmetric b block
    bad = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NotSymplectic):
        make_matrix(bad)


# ---------------------------------------------------------------------------
# Products and inverses
# ---------------------------------------------------------------------------

def test_b11_times_c11():
    prod = multiply(generator("B", 1, 1, 1), generator("C", 1, 1, 1))
    assert prod.entries.tolist() == [[5, 2], [2, 1]]


def test_inverse_roundtrip():
    rng = seeded(101)
    for g in (1, 2, 3):
        for _ in range(10):
            m = random_level2(g, rng)
            assert multiply(m, inverse(m)) == identity(g)
            assert multiply(inverse(m), m) == identity(g)


def test_a12_power_cancellation():
    a12 = generator("A", 1, 2, 2)
    assert multiply(matrix_power(a12, 5), matrix_power(a12, -5)) == identity(2)


def test_block_inverse_matches_adjugate():
    # independent oracle: exact rational inverse via sympy
    sympy = pytest.importorskip("sympy")
    rng = seeded(202)
    for g in (1, 2, 3):
        for _ in range(5):
            m = random_level2(g, rng)
            expected = sympy.Matrix(m.entries.tolist()).inv()
            assert inverse(m).entries.tolist() == [
                [int(expected[i, j]) for j in range(2 * g)] for i in range(2 * g)]


def test_transpose_relations_hold():
    # membership forces b^T d and a^T c symmetric as well
    rng = seeded(303)
    for g in (1, 2, 3):
        for _ in range(20):
            m = random_level2(g, rng)
            bd = m.b.T @ m.d
            ac = m.a.T @ m.c
            assert np.array_equal(bd, bd.T)
            assert np.array_equal(ac, ac.T)


# ---------------------------------------------------------------------------
# Membership predicates
# ---------------------------------------------------------------------------

def test_b11_membership():
    b11 = generator("B", 1, 1, 1)
    assert is_level2(b11) and not is_level4(b11) and not is_igusa48(b11)


def test_translation_by_eight():
    m = make_matrix([[1, 8], [0, 1]])
    assert is_level2(m) and is_level4(m) and is_igusa48(m)


def test_membership_chain():
    rng = seeded(404)
    for g in (1, 2):
        for k in range(25):
            m = random_igusa48(g, rng.randint(0, 10**9))
            assert is_igusa48(m) and is_level4(m) and is_level2(m)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generator_values_degree_one():
    assert generator("B", 1, 1, 1).entries.tolist() == [[1, 2], [0, 1]]
    assert generator("C", 1, 1, 1).entries.tolist() == [[1, 0], [2, 1]]
    assert generator("A", 1, 1, 1).entries.tolist() == [[-1, 0], [0, -1]]


def test_generator_a12_blocks():
    m = generator("A", 1, 2, 2)
    assert m.a.tolist() == [[1, 2], [0, 1]]
    assert m.b.tolist() == [[0, 0], [0, 0]]
    assert m.c.tolist() == [[0, 0], [0, 0]]
    assert m.d.tolist() == [[1, 0], [-2, 1]]


def test_generator_c_is_transpose_of_b():
    for g in (1, 2, 3):
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                b = generator("B", i, j, g)
                c = generator("C", i, j, g)
                assert np.array_equal(c.entries, b.entries.T)


def test_generator_index_errors():
    with pytest.raises(IndexOutOfRange):
        generator("B", 2, 1, 2)  # B needs i <= j
    with pytest.raises(IndexOutOfRange):
        generator("A", 0, 1, 2)
    with pytest.raises(IndexOutOfRange):
        generator("A", 1, 3, 2)
    with pytest.raises(IndexOutOfRange):
        generator("D", 1, 1, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.data())
def test_generator_powers_in_closed_form(g, data):
    # The reference is matrix_power's products; word_to_matrix must match it too.
    powers = {(kind, i, j, e): matrix_power(generator(kind, i, j, g), e)
              for kind, i, j in alphabet(g) for e in range(-6, 7)}
    for (kind, i, j, e), expected in powers.items():
        closed = _generator_power(kind, i, j, g, e)
        assert closed == expected, (kind, i, j, e)
        assert all(type(x) is int for x in closed.entries.flat)
    letters = data.draw(st.lists(st.sampled_from(sorted(powers)), max_size=10))
    product = identity(g)
    for letter in letters:
        product = multiply(product, powers[letter])
    assert word_to_matrix(word(g, letters)) == product


@pytest.mark.parametrize("kind, i, j", [("B", 1, 1), ("B", 1, 2), ("C", 2, 2),
                                         ("C", 1, 2), ("A", 1, 2), ("A", 2, 1),
                                         ("A", 2, 2)])
def test_matrix_power_matches_closed_form(kind, i, j):
    # Square-and-multiply makes about 2 log2 |k| products, so k = 10**6 is cheap.
    base = generator(kind, i, j, 2)
    for k in [*range(-7, 8), 1000, 10**6]:
        assert matrix_power(base, k) == _generator_power(kind, i, j, 2, k), k


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), st.integers(0, 6),
       st.integers(-25, 25), st.integers(-25, 25))
def test_matrix_power_adds_exponents(g, seed, length, a, b):
    mat = word_to_matrix(random_word(g, length, seed))
    assert matrix_power(mat, a + b) == multiply(matrix_power(mat, a), matrix_power(mat, b))


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def small_exponents():
    return st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_word_to_matrix_matches_product_reference(g, data):
    # Column updates against one exact product per letter.  One letter that is
    # not A(i, i) gets an exponent beyond 2^63: M = P G^E Q = P Q + 2E P N Q with
    # P N Q != 0, so some entry leaves int64 and no cast can hide in the path.
    letters = data.draw(st.lists(st.tuples(st.sampled_from(alphabet(g)), small_exponents()),
                                 max_size=8))
    unipotent = [t for t in alphabet(g) if t[0] != "A" or t[1] != t[2]]
    big = data.draw(st.integers(2**63 + 1, 2**80)) * data.draw(st.sampled_from([-1, 1]))
    letters.insert(data.draw(st.integers(0, len(letters))),
                   (data.draw(st.sampled_from(unipotent)), big))
    w = word(g, [(*t, e) for t, e in letters])
    mat = word_to_matrix(w)
    assert mat == word_to_matrix_reference(w)
    assert max(abs(x) for x in mat.entries.flat) >= 2**63
    assert all(type(x) is int for x in mat.entries.flat)
    assert not mat.entries.flags.writeable
    assert make_matrix(mat.entries.tolist()) == mat


def test_empty_word_is_identity():
    assert word_to_matrix(word(2, [])) == identity(2)


def test_word_product_example():
    w = word(1, [("B", 1, 1, 1), ("C", 1, 1, 1)])
    assert word_to_matrix(w).entries.tolist() == [[5, 2], [2, 1]]


def test_word_single_a12():
    m = word_to_matrix(word(2, [("A", 1, 2, 1)]))
    assert m == generator("A", 1, 2, 2)


def test_words_land_in_level2():
    for g in (1, 2, 3):
        for s in range(15):
            assert is_level2(word_to_matrix(random_word(g, 8, s)))


def test_random_word_deterministic():
    w1 = random_word(2, 12, 99)
    w2 = random_word(2, 12, 99)
    assert w1 == w2
    assert len(w1) == 12
    assert all(e in (-1, 1) for _, _, _, e in w1.letters)
    assert random_word(2, 12, 100) != w1
    with pytest.raises(BadShape):
        random_word(2, -3, 1)


def test_word_validates_letters():
    with pytest.raises(IndexOutOfRange):
        word(2, [("B", 2, 1, 1)])


# ---------------------------------------------------------------------------
# Commutators and subgroup sampling
# ---------------------------------------------------------------------------

def test_commutator_with_self():
    m = word_to_matrix(random_word(2, 4, 5))
    assert commutator(m, m) == identity(2)


def test_commutator_of_b_and_c():
    k = commutator(generator("B", 1, 1, 1), generator("C", 1, 1, 1))
    assert is_igusa48(k)


def test_fourth_power_of_b11():
    m = matrix_power(generator("B", 1, 1, 1), 4)
    assert m.entries.tolist() == [[1, 8], [0, 1]]
    assert is_igusa48(m)


def test_commutators_land_in_igusa_group():
    # level-2 commutators always satisfy the mod-4 / diagonal-mod-8 conditions
    rng = seeded(505)
    for g in (1, 2, 3):
        for _ in range(70):
            m1 = random_level2(g, rng, max_length=4)
            m2 = random_level2(g, rng, max_length=4)
            assert is_igusa48(commutator(m1, m2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), st.integers(0, 8),
       st.integers(1, 4))
def test_group_operations_stay_symplectic(g, seed, length, k):
    # multiply, inverse and generator skip revalidation; make_matrix must
    # accept everything they build.
    x = word_to_matrix(random_word(g, length, seed))
    y = word_to_matrix(random_word(g, length, seed + 1))
    built = [x, inverse(x), matrix_power(x, k), matrix_power(x, -k),
             commutator(x, y)]
    built += [generator(kind, i, j, g) for kind, i, j in alphabet(g)]
    for mat in built:
        assert make_matrix(mat.entries) == mat


def test_random_igusa48_always_in_subgroup():
    for g in (1, 2, 3):
        for s in range(30):
            assert is_igusa48(random_igusa48(g, s))
