import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelchi import (AbelianExponents, Characteristic, DegreeMismatch,
                       EighthRoot, InterpolationInconsistent, NotLevel2,
                       characteristic,
                       chi, chi_even_values, chi_exponents, chi_from_exponents,
                       chi_generator, chi_word, delta_sign_bit,
                       enumerate_even_mod2, enumerate_mod2,
                       extract_abelian_exponents, generator, identity,
                       is_chi_constant_over_even,
                       is_igusa48, is_igusa48_up_to_sign, make_matrix,
                       matrix_power, multiply, phase_full, phase_level2,
                       random_igusa48, random_word, shift, word,
                       word_exponents, word_to_matrix)
from siegelchi import character
from siegelchi.symplectic import alphabet, congruent_to_identity

from util import chi_reference, random_level2, seeded


def all_binary(g):
    return [Characteristic(g=g, m_prime=bits[:g], m_double=bits[g:])
            for bits in itertools.product((0, 1), repeat=2 * g)]


# ---------------------------------------------------------------------------
# Eighth roots of unity
# ---------------------------------------------------------------------------

def test_eighth_root_group_law():
    for a in range(8):
        for b in range(8):
            assert (EighthRoot(a) * EighthRoot(b)).k == (a + b) % 8
    assert (EighthRoot(3) ** -1).k == 5
    assert EighthRoot(5).inverse().k == 3
    assert (EighthRoot(1) ** 8).k == 0


def test_eighth_root_values_and_symbols():
    assert EighthRoot(0).value == pytest.approx(1)
    assert EighthRoot(2).value == pytest.approx(1j)
    assert EighthRoot(4).value == pytest.approx(-1)
    assert EighthRoot(6).value == pytest.approx(-1j)
    assert EighthRoot(0).symbol == "1"
    assert EighthRoot(2).symbol == "i"
    assert EighthRoot(6).symbol == "-i"


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def test_phase_zero_at_identity():
    for g in (1, 2):
        for m in all_binary(g):
            p = phase_full(m, identity(g))
            assert p.eighths == 0 and p.raw_numerator == 0


def test_phase_full_hand_values():
    b11 = generator("B", 1, 1, 1)
    p = phase_full(characteristic(1, 0), b11)
    assert p.raw_numerator == -2          # 2 - 4, so the phase is 1/4
    assert p.eighths == 2
    c11 = generator("C", 1, 1, 1)
    q = phase_full(characteristic(0, 1), c11)
    assert q.raw_numerator == 2           # phase -1/4, class 3/4 mod 1
    assert q.eighths == 6


def test_phase_level2_hand_value():
    mat = make_matrix([[5, 2], [2, 1]])
    p = phase_level2(characteristic(1, 0), mat)
    assert p.raw_numerator == -18         # phase 9/4, class 1/4 mod 1
    assert p.eighths == 2


def test_phase_level2_requires_level2():
    with pytest.raises(NotLevel2):
        phase_level2(characteristic(1, 0), make_matrix([[1, 1], [0, 1]]))


def test_phase_level2_equals_full_mod1():
    rng = seeded(21)
    for g in (1, 2, 3):
        for _ in range(170):
            mat = random_level2(g, rng)
            m = Characteristic.from_vector([rng.randint(-4, 4) for _ in range(2 * g)])
            assert phase_level2(m, mat) == phase_full(m, mat)


def test_phase_shift_invariance():
    # the phase class mod 1 only sees the characteristic mod 2
    rng = seeded(22)
    for g in (1, 2, 3):
        for _ in range(170):
            mat = random_level2(g, rng)
            m = Characteristic.from_vector([rng.randint(-4, 4) for _ in range(2 * g)])
            bump = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
            assert phase_level2(shift(m, bump), mat) == phase_level2(m, mat)


def test_phase_action_invariance():
    from siegelchi import act

    rng = seeded(23)
    for g in (1, 2, 3):
        for _ in range(170):
            mat = random_level2(g, rng)
            other = random_level2(g, rng)
            m = Characteristic.from_vector([rng.randint(-4, 4) for _ in range(2 * g)])
            assert phase_level2(act(other, m), mat) == phase_level2(m, mat)


# ---------------------------------------------------------------------------
# The character
# ---------------------------------------------------------------------------

def test_chi_trivial_at_zero_characteristic():
    rng = seeded(31)
    for g in (1, 2):
        zero = Characteristic.from_vector([0] * (2 * g))
        for _ in range(20):
            assert chi(zero, random_level2(g, rng)).k == 0


def test_chi_hand_values():
    b11 = generator("B", 1, 1, 1)
    assert chi(characteristic(1, 0), b11).k == 2  # value i
    assert chi_exponents(b11).tolist() == [0, 0, 2, 2]  # at 00, 01, 10, 11

    mat = make_matrix([[5, 2], [2, 1]])
    assert chi(characteristic(1, 0), mat).k == 2
    # equals the product of the two generator values, and delta'' is even
    c11 = generator("C", 1, 1, 1)
    prod = chi(characteristic(1, 0), b11) * chi(characteristic(1, 0), c11)
    assert prod.k == chi(characteristic(1, 0), mat).k
    assert delta_sign_bit(characteristic(1, 0), mat) == 0


def test_chi_requires_level2():
    with pytest.raises(NotLevel2):
        chi(characteristic(1, 0), make_matrix([[1, 1], [0, 1]]))
    with pytest.raises(NotLevel2):
        delta_sign_bit(characteristic(1, 0), make_matrix([[1, 1], [0, 1]]))
    with pytest.raises(NotLevel2):
        chi_exponents(make_matrix([[1, 1], [0, 1]]))
    bad = make_matrix([[1, 1], [0, 1]])
    for _ in range(2):  # the failed first call leaves no table behind
        with pytest.raises(NotLevel2):
            chi(characteristic(1, 0), bad)
    assert "_chi_table" not in vars(bad)


def test_chi_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        chi(characteristic(1, 0, 0, 0), generator("B", 1, 1, 1))
    b11 = generator("B", 1, 1, 1)
    chi_exponents(b11)  # builds the table
    with pytest.raises(DegreeMismatch):
        chi(characteristic(1, 0, 0, 0), b11)
    with pytest.raises(DegreeMismatch):
        delta_sign_bit(characteristic(1, 0, 0, 0), b11)
    m = characteristic(1, 0, 0, 0)
    chi(m, identity(2))  # caches the row of m
    with pytest.raises(DegreeMismatch):
        chi(m, b11)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**9), st.integers(0, 10), st.data())
def test_chi_reads_the_cached_row(g, seed, length, data):
    mat = word_to_matrix(random_word(g, length, seed))
    entries = st.lists(st.integers(-10**20, 10**20), min_size=2 * g, max_size=2 * g)
    m = Characteristic.from_vector(data.draw(entries))
    assert chi(m, mat) is chi(m.mod2(), mat)
    assert chi(m, mat).k == chi_reference(m, mat)[0]


def test_cached_row_leaves_eq_hash_and_repr_alone():
    m, fresh = characteristic(3, -1, 2, 10**20, 0, 5), characteristic(3, -1, 2, 10**20, 0, 5)
    chi(m, identity(3))
    assert "_row" in vars(m) and "_row" not in vars(fresh)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert [f.name for f in dataclasses.fields(Characteristic)] == ["g", "m_prime", "m_double"]


def test_cached_residue_is_read_only_and_leaves_eq_hash_and_repr_alone():
    w = word(3, [("B", 1, 2, 2**70), ("C", 3, 3, -3), ("A", 2, 1, 5)])
    mat, fresh = word_to_matrix(w), word_to_matrix(w)
    assert max(abs(x) for x in mat.entries.flat) >= 2**63
    is_igusa48(mat)  # reads the residue before any chi table exists
    m8 = vars(mat)["_mod8"]
    assert mat._m8 is m8 and m8.dtype == np.int64 and not m8.flags.writeable
    assert m8.tolist() == (mat.entries % 8).tolist()
    with pytest.raises(dataclasses.FrozenInstanceError):
        mat._m8 = m8
    assert "_mod8" not in vars(fresh)
    assert mat == fresh and hash(mat) == hash(fresh) and repr(mat) == repr(fresh)
    assert chi_exponents(mat).tolist() == chi_exponents(fresh).tolist()
    assert [f.name for f in dataclasses.fields(type(mat))] == ["g", "entries"]


def test_chi_is_multiplicative():
    rng = seeded(32)
    for g in (1, 2, 3):
        for _ in range(40):
            m1 = random_level2(g, rng)
            m2 = random_level2(g, rng)
            prod = multiply(m1, m2)
            for m in all_binary(g):
                assert (chi(m, m1) * chi(m, m2)).k == chi(m, prod).k


def test_chi_depends_on_mod2_class_only():
    rng = seeded(33)
    for g in (1, 2, 3):
        for _ in range(60):
            mat = random_level2(g, rng)
            m = Characteristic.from_vector([rng.randint(-4, 4) for _ in range(2 * g)])
            bump = Characteristic.from_vector([rng.randint(-3, 3) for _ in range(2 * g)])
            assert chi(m, mat).k == chi(shift(m, bump), mat).k


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 6))
def test_chi_word_matches_matrix_path(seed, length):
    w = random_word(2, length, seed)
    mat = word_to_matrix(w)
    for m in all_binary(2):
        assert chi_word(m, w).k == chi(m, mat).k


# ---------------------------------------------------------------------------
# The mod-8 kernel against the exact per-characteristic reference
# ---------------------------------------------------------------------------

def characteristics(g):
    """Integer characteristics of degree g: binary, odd, small and beyond int64."""
    entry = st.integers(-9, 9) | st.integers(-2**70, 2**70)
    return st.lists(entry, min_size=2 * g, max_size=2 * g).map(Characteristic.from_vector)


def assert_matches_reference(mat, extra):
    """chi, delta_sign_bit and chi_exponents against chi_reference at every
    binary characteristic and at each characteristic in extra."""
    binary = enumerate_mod2(mat.g)
    assert chi_exponents(mat).tolist() == [chi_reference(m, mat)[0] for m in binary]
    for m in binary + list(extra):
        assert (chi(m, mat).k, delta_sign_bit(m, mat)) == chi_reference(m, mat), m


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**9), st.integers(0, 30), st.data())
def test_kernel_matches_reference_on_long_words(g, seed, length, data):
    mat = word_to_matrix(random_word(g, length, seed))
    assert_matches_reference(mat, data.draw(st.lists(characteristics(g), max_size=6)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**9), st.integers(1, 8), st.data())
def test_kernel_matches_reference_beyond_int64(g, seed, length, data):
    # Square until an entry no longer fits in int64; finite-order words never get there.
    mat = word_to_matrix(random_word(g, length, seed))
    for _ in range(70):
        if max(abs(int(x)) for x in mat.entries.flat) >= 2**63:
            break
        mat = multiply(mat, mat)
    assume(max(abs(int(x)) for x in mat.entries.flat) >= 2**63)
    assert_matches_reference(mat, data.draw(st.lists(characteristics(g), max_size=6)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**9), st.integers(0, 12), st.data())
def test_kernel_invariant_under_gamma8(g, seed, length, data):
    # Fourth powers of B(i,j), C(i,j) and of A(i,j) with i != j are = I mod 8.
    pool = [(k, i, j) for k, i, j in alphabet(g) if not (k == "A" and i == j)]
    letters = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((-4, 4))),
                                 min_size=1, max_size=4))
    k8 = word_to_matrix(word(g, [(*letter, e) for letter, e in letters]))
    assert congruent_to_identity(k8._m8, 8)
    mat = word_to_matrix(random_word(g, length, seed))
    moved = multiply(mat, k8)
    extra = data.draw(st.lists(characteristics(g), max_size=6))
    assert_matches_reference(moved, extra)
    assert chi_exponents(moved).tolist() == chi_exponents(mat).tolist()
    for m in enumerate_mod2(g) + extra:
        assert chi_reference(m, moved) == chi_reference(m, mat)


# ---------------------------------------------------------------------------
# The per-matrix table: one kernel pass, then lookups
# ---------------------------------------------------------------------------

def test_table_is_built_once_per_matrix(monkeypatch):
    runs = []
    kernel = character._chi_rows
    monkeypatch.setattr(character, "_chi_rows",
                        lambda mat, chars: runs.append(mat) or kernel(mat, chars))
    for g in (1, 2, 3):
        mat = word_to_matrix(random_word(g, 10, 60 + g))
        zeros = [0] * (g - 1)
        chars = enumerate_mod2(g) + [Characteristic.from_vector(v) for v in (
            [2, *zeros, -4, *zeros],                    # non-binary, even
            [3, *zeros, -5, *zeros],                    # non-binary, odd
            [2**70 + 1, *zeros, -2**70 - 1, *zeros],    # beyond int64, odd
            [-2**70, *zeros, 2**70 + 1, *zeros])]       # beyond int64, even
        for _ in range(2):
            for m in chars:
                assert (chi(m, mat).k, delta_sign_bit(m, mat)) == chi_reference(m, mat), m
            assert chi_exponents(mat).tolist() == [chi_reference(m, mat)[0]
                                                   for m in enumerate_mod2(g)]
        extract_abelian_exponents(mat)
        assert is_chi_constant_over_even(mat) == is_igusa48_up_to_sign(mat)
    assert len(runs) == 3


def test_chi_returns_shared_roots():
    for g in (1, 2, 3):
        mat = word_to_matrix(random_word(g, 10, 70 + g))
        for m in enumerate_mod2(g):
            root, ref = chi(m, mat), EighthRoot(chi_reference(m, mat)[0])
            assert root == ref and root is character._ROOTS[ref.k]
            assert (repr(root), hash(root), root.symbol) == (repr(ref), hash(ref), ref.symbol)


def test_chi_exponents_returns_a_copy():
    b11 = generator("B", 1, 1, 1)
    out = chi_exponents(b11)
    out[:] = 7
    assert chi_exponents(b11).tolist() == [0, 0, 2, 2]
    assert chi(characteristic(1, 0), b11).k == 2


# ---------------------------------------------------------------------------
# Generator closed forms
# ---------------------------------------------------------------------------

def test_generator_closed_form_examples():
    assert chi_generator(characteristic(1, 0), "B", 1, 1).k == 2   # -1 * e(-1/4) = i
    assert chi_generator(characteristic(0, 1), "C", 1, 1).k == 6   # e(-1/4) = -i
    m = characteristic(1, 0, 0, 1)  # m'_1 = 1, m''_2 = 1
    assert chi_generator(m, "A", 1, 2).k == 4                      # value -1


def test_generator_closed_form_covers_diagonal_a():
    # the A closed form also holds at i == j, where the probe is odd
    for g in (1, 2):
        for i in range(1, g + 1):
            mat = generator("A", i, i, g)
            for m in all_binary(g):
                assert chi(m, mat).k == chi_generator(m, "A", i, i).k


def test_generator_table_all_match():
    for g in (1, 2, 3):
        chars = all_binary(g)
        for kind, i, j in alphabet(g):
            mat = generator(kind, i, j, g)
            for m in chars:
                assert chi(m, mat).k == chi_generator(m, kind, i, j).k


def test_off_diagonal_generators_give_signs():
    # off-diagonal values are always +-1 (exponent 0 or 4)
    for g in (2, 3):
        for kind, i, j in alphabet(g):
            if i == j:
                continue
            for m in all_binary(g):
                assert chi_generator(m, kind, i, j).k in (0, 4)


def test_chi_word_examples():
    assert chi_word(characteristic(1, 0), word(1, [])).k == 0
    w = word(1, [("B", 1, 1, 1), ("C", 1, 1, 1)])
    assert chi_word(characteristic(1, 0), w).k == 2


# ---------------------------------------------------------------------------
# Exponent tables
# ---------------------------------------------------------------------------

def test_exponent_evaluation_examples():
    zero = AbelianExponents.zero(1)
    assert chi_from_exponents(characteristic(1, 0), zero).k == 0

    q1 = AbelianExponents.make(1, [[0]], [1], [[0]], [0], [[0]])
    assert chi_from_exponents(characteristic(1, 0), q1).k == 2   # value i

    q1r1 = AbelianExponents.make(1, [[0]], [1], [[0]], [1], [[0]])
    assert chi_from_exponents(characteristic(1, 0), q1r1).k == 2  # r needs m''


def test_extraction_identity():
    exps = extract_abelian_exponents(identity(2))
    assert exps == AbelianExponents.zero(2)


def test_extraction_b11():
    exps = extract_abelian_exponents(generator("B", 1, 1, 1))
    assert exps.q_diag == (1,)
    assert exps.r_diag == (0,) and exps.p == ((0,),)


def test_extraction_requires_level2():
    with pytest.raises(NotLevel2):
        extract_abelian_exponents(make_matrix([[1, 1], [0, 1]]))


def test_extraction_matches_letter_counts():
    # oracle: sum the word's letter exponents and reduce to the stored moduli
    rng = seeded(41)
    for g, count in ((1, 25), (2, 25), (3, 25), (4, 4)):
        for _ in range(count):
            w = random_word(g, rng.randint(0, 8), rng.randint(0, 10**9))
            mat = word_to_matrix(w)
            assert extract_abelian_exponents(mat) == word_exponents(w)


def exponent_vector(exps):
    """exps as one vector in the column order of character._exponent_tables."""
    g = exps.g
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    return ([x for row in exps.p for x in row] + list(exps.q_diag)
            + [exps.q_off[i][j] for i, j in pairs] + list(exps.r_diag)
            + [exps.r_off[i][j] for i, j in pairs])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_exponent_tables_match_the_closed_form(g, data):
    square = st.lists(st.lists(st.integers(-9, 9), min_size=g, max_size=g),
                      min_size=g, max_size=g)
    row = st.lists(st.integers(-9, 9), min_size=g, max_size=g)
    exps = AbelianExponents.make(g, data.draw(square), data.draw(row), data.draw(square),
                                 data.draw(row), data.draw(square))
    probe, scale, closed = character._exponent_tables(g)
    e = exponent_vector(exps)
    k = closed @ e % 8
    assert k.tolist() == [chi_from_exponents(m, exps).k for m in enumerate_mod2(g)]
    assert (probe @ k % 8).tolist() == (scale * e).tolist()


def with_table(mat, row, value):
    """mat with its chi table patched to value at one row."""
    k, s, _ = character._chi_table(mat)
    k = k.copy()
    k[row] = value
    vars(mat)["_chi_table"] = (k, s, tuple(character._ROOTS[x % 8] for x in k.tolist()))
    return mat


@pytest.mark.parametrize("row, value", [
    (8, 1),       # e'_1: odd where k = 2 q_11
    (2, 7),       # e''_1: odd where k = -2 r_11
    (10, 2),      # e'_1 + e''_1 minus its units is 2, not a multiple of 4
])
def test_extraction_rejects_inconsistent_probes(row, value):
    with pytest.raises(InterpolationInconsistent, match="not multiples"):
        extract_abelian_exponents(with_table(identity(2), row, value))


def test_extraction_checks_every_row_not_only_the_probes():
    # The all-ones m at g = 2 is no probe: shifting it by 4 leaves every
    # probe consistent, and only the check over all 4^g rows sees it.
    mat = word_to_matrix(random_word(2, 9, 44))
    k = chi_exponents(mat)
    with pytest.raises(InterpolationInconsistent, match="at 1 of 16"):
        extract_abelian_exponents(with_table(mat, 15, k[15] + 4))


def test_extraction_reproduces_chi_everywhere():
    rng = seeded(42)
    for g in (1, 2, 3):
        for _ in range(15):
            mat = word_to_matrix(random_word(g, rng.randint(0, 8), rng.randint(0, 10**9)))
            exps = extract_abelian_exponents(mat)
            for m in all_binary(g):
                assert chi_from_exponents(m, exps).k == chi(m, mat).k


# ---------------------------------------------------------------------------
# Triviality on the mod-4 / diagonal-mod-8 subgroup
# ---------------------------------------------------------------------------

def test_chi_trivial_on_igusa_group():
    for g in (1, 2, 3):
        for s in range(20):
            mat = random_igusa48(g, s)
            for m in all_binary(g):
                assert chi(m, mat).k == 0


# ---------------------------------------------------------------------------
# Product character and the constancy criterion
# ---------------------------------------------------------------------------

def test_product_character_examples():
    b11 = generator("B", 1, 1, 1)
    zero = characteristic(0, 0)
    assert (chi(zero, b11) * chi(zero, b11)).k == 0
    assert (chi(characteristic(1, 0), b11) * chi(characteristic(0, 1), b11)).k == 2
    # squaring halves the order: always a fourth root of unity
    rng = seeded(51)
    for _ in range(20):
        mat = random_level2(2, rng)
        for m in enumerate_even_mod2(2):
            assert (chi(m, mat) * chi(m, mat)).k % 2 == 0


def test_constancy_examples():
    assert is_chi_constant_over_even(identity(2))
    assert not is_chi_constant_over_even(generator("B", 1, 1, 1))
    values = set(chi_even_values(generator("B", 1, 1, 1)).values())
    assert values == {0, 2}  # 1 and i both occur


def test_constancy_requires_level2():
    with pytest.raises(NotLevel2):
        is_chi_constant_over_even(make_matrix([[1, 1], [0, 1]]))


def test_constancy_detects_membership_up_to_sign():
    # Exact criterion: the even sweep is constant iff M or -M lies in the
    # mod-4 / diagonal-mod-8 subgroup.  The sign ambiguity is intrinsic: the
    # negated identity fixes every point of the upper half-space, so theta
    # ratios cannot see it.
    rng = seeded(52)
    for g in (1, 2):
        pool = []
        for _ in range(120):
            pool.append(random_level2(g, rng, max_length=8))
        for s in range(40):
            pool.append(random_igusa48(g, rng.randint(0, 10**9)))
        for _ in range(40):
            i = rng.randint(1, g)
            near = matrix_power(generator(rng.choice("BC"), i, i, g), 2)
            pool.append(multiply(near, random_igusa48(g, rng.randint(0, 10**9))))
        # force the boundary: the negated identity and a negated subgroup element
        minus_one = matrix_power(
            multiply(*[generator("A", i, i, g) for i in range(1, g + 1)])
            if g > 1 else generator("A", 1, 1, 1), 1)
        pool.append(minus_one)
        pool.append(multiply(minus_one, random_igusa48(g, 7)))
        for mat in pool:
            assert is_chi_constant_over_even(mat) == is_igusa48_up_to_sign(mat)


def test_minus_identity_is_the_literal_counterexample():
    # chi is identically 1 on even classes at -I, but -I is not congruent to
    # I mod 4: the literal equivalence with strict membership fails exactly
    # on the negated coset.
    minus_one = generator("A", 1, 1, 1)
    assert minus_one.entries.tolist() == [[-1, 0], [0, -1]]
    assert is_chi_constant_over_even(minus_one)
    assert not is_igusa48(minus_one)
    assert is_igusa48_up_to_sign(minus_one)
    # odd characteristics do see the sign
    assert chi(characteristic(1, 1), minus_one).k == 4
