"""The exact layer against its object-array transcriptions in util.py.

word_to_matrix, act, phase_full, phase_level2, congruent_to_identity,
congruent_to_igusa48 (with the four is_* predicates that read the cached
residue) and the subgroup sampler work on Python-int rows or int64 residues;
util.py keeps the object-array versions they replaced, among them
congruent_to_identity_reference.  The draws reach the inputs those
versions handled without thought: symplectic matrices that are not level 2,
letter exponents up to 2^40, squared words whose entries leave int64, and
characteristics that are negative or beyond int64.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelchi import (Characteristic, NotLevel2, SymplecticMatrix, act,
                       chi_even_values, is_chi_constant_over_even, is_igusa48,
                       is_igusa48_up_to_sign, is_level2, is_level4, multiply,
                       phase_full, phase_level2, word, word_to_matrix)
from siegelchi.symplectic import (_generator_power, _random_igusa48, _residue8, alphabet,
                                  congruent_to_identity, congruent_to_igusa48)

from util import (act_reference, congruent_to_identity_reference,
                  congruent_to_igusa48_reference,
                  phase_full_reference, phase_level2_reference,
                  random_igusa48_reference, random_sp, seeded,
                  word_to_matrix_objects)

EXPONENTS = st.one_of(st.integers(-5, 5), st.integers(-2**40, 2**40))
ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70))


def draw_word(data, g):
    letters = data.draw(st.lists(st.tuples(st.sampled_from(alphabet(g)), EXPONENTS),
                                 max_size=8))
    return word(g, [(*t, e) for t, e in letters])


def draw_matrix(data, g):
    """A symplectic matrix that is not level 2 in general, a word's matrix, or
    the square of one, whose entries reach about 2^80 and more."""
    kind = data.draw(st.sampled_from(["sp", "word", "square"]))
    if kind == "sp":
        return random_sp(g, seeded(data.draw(st.integers(0, 10**9))))
    mat = word_to_matrix(draw_word(data, g))
    return multiply(mat, mat) if kind == "square" else mat


def draw_characteristic(data, g):
    return Characteristic.from_vector(data.draw(st.lists(ENTRIES, min_size=2 * g,
                                                         max_size=2 * g)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_word_to_matrix_matches_object_columns(g, data):
    w = draw_word(data, g)
    mat = word_to_matrix(w)
    assert mat == word_to_matrix_objects(w)
    assert all(type(x) is int for x in mat.entries.flat)
    assert mat.entries.dtype == object and not mat.entries.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_act_matches_object_reference(g, data):
    mat, m = draw_matrix(data, g), draw_characteristic(data, g)
    moved = act(mat, m)
    assert moved == act_reference(mat, m)
    assert all(type(x) is int for x in moved.vector())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_phases_match_object_reference(g, data):
    mat, m = draw_matrix(data, g), draw_characteristic(data, g)
    full = phase_full(m, mat).raw_numerator
    assert type(full) is int and full == phase_full_reference(m, mat).raw_numerator
    if is_level2(mat):
        level2 = phase_level2(m, mat).raw_numerator
        assert level2 == phase_level2_reference(m, mat).raw_numerator
    else:
        for phase in (phase_level2, phase_level2_reference):
            with pytest.raises(NotLevel2):
                phase(m, mat)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_igusa48_residue_test_matches_exact_entries(g, data):
    # I + 4 X passes the mod-4 test, so the two diagonal tests decide; a
    # symplectic draw and its negative exercise the mod-4 test itself.  One
    # entry of X and the unipotent power B(1, 1)^big leave int64, so a cast
    # before the reduction would fail.
    big = data.draw(st.integers(2**63 + 1, 2**80)) * data.draw(st.sampled_from([-1, 1]))
    x = data.draw(st.lists(ENTRIES, min_size=4 * g * g - 1, max_size=4 * g * g - 1))
    x.insert(data.draw(st.integers(0, len(x))), big)
    near = np.eye(2 * g, dtype=object) + 4 * np.array(x, dtype=object).reshape(2 * g, 2 * g)
    mat = draw_matrix(data, g)
    mats = (mat, SymplecticMatrix(g=g, entries=-mat.entries),
            multiply(mat, _generator_power("B", 1, 1, g, big)))
    assert max(abs(v) for v in near.flat) >= 2**63
    for entries in (near, *(m.entries for m in mats)):
        m8 = _residue8(entries)
        assert congruent_to_igusa48(m8) == congruent_to_igusa48_reference(entries)
        for k in (2, 4, 8):
            assert congruent_to_identity(m8, k) == congruent_to_identity_reference(entries, k)
    for m in mats:
        igusa48 = congruent_to_igusa48_reference(m.entries)
        assert is_level2(m) == congruent_to_identity_reference(m.entries, 2)
        assert is_level4(m) == congruent_to_identity_reference(m.entries, 4)
        assert is_igusa48(m) == igusa48
        assert is_igusa48_up_to_sign(m) == (igusa48 or congruent_to_igusa48_reference(-m.entries))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_constancy_reads_the_even_rows(g, data):
    mat = word_to_matrix(draw_word(data, g))
    expected = len(set(chi_even_values(mat).values())) == 1
    assert is_chi_constant_over_even(mat) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**9))
def test_random_igusa48_word_matches_commutator_products(g, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _random_igusa48(g, rng) == random_igusa48_reference(g, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
