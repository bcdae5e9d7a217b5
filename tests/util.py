"""Shared helpers for the test suite: samplers for the full symplectic group
(beyond the level-2 alphabet), random upper-half-space points, a
product-per-letter reference for word_to_matrix, object-array transcriptions
of the exact layer (words, the action, the phases, the congruence tests and
the commutator-product sampler), the exact per-characteristic reference for the
character (preimage, delta, shift sign), and a direct high-precision box sum
for theta constants."""

import itertools
import math
import random

import mpmath
import numpy as np

from siegelchi import (Characteristic, NotLevel2, PhaseValue, SiegelChiError,
                       SiegelPoint, SymplecticMatrix, commutator, identity,
                       is_level2, make_matrix, matrix_power, multiply,
                       random_word, word_to_matrix)
from siegelchi.errors import _check_degree
from siegelchi.symplectic import _blocks, _generator_power, _random_word, alphabet
from siegelchi.theta import _class_sums, _half_lattice, truncation_radius


def generator_reference(kind, i, j, g):
    """The generator written entry by entry from its definition: A(i, j) is
    diag(a, a^-T) with a = I + 2 E_ij (i != j) or I - 2 E_ii, B(i, j) carries 2
    at (i, g+j) and (j, g+i), and C(i, j) is its transpose."""
    i, j = i - 1, j - 1
    out = np.eye(2 * g, dtype=object)
    if kind == "A" and i != j:
        out[i, j], out[g + j, g + i] = 2, -2
    elif kind == "A":
        out[i, i] = out[g + i, g + i] = -1
    elif kind == "B":
        out[i, g + j] = out[j, g + i] = 2
    else:
        out[g + i, j] = out[g + j, i] = 2
    return make_matrix(out)


def word_to_matrix_reference(w):
    """The word's matrix as one exact product per letter, each letter's power
    taken by matrix_power of generator_reference."""
    out = identity(w.g)
    for kind, i, j, e in w.letters:
        out = multiply(out, matrix_power(generator_reference(kind, i, j, w.g), e))
    return out


# ---------------------------------------------------------------------------
# Object-array transcriptions of the exact layer
# ---------------------------------------------------------------------------

def halves(m):
    """m' and m'' as object vectors of Python ints."""
    return (np.array([int(x) for x in m.m_prime], dtype=object),
            np.array([int(x) for x in m.m_double], dtype=object))


def ab_diag(mat):
    """(a b^T)_0 as an object vector."""
    return (mat.a @ mat.b.T).diagonal()


def cd_diag(mat):
    """(c d^T)_0 as an object vector."""
    return (mat.c @ mat.d.T).diagonal()


def word_to_matrix_objects(w):
    """The word's matrix by the same column updates as word_to_matrix, applied
    with numpy slices to one (2g, 2g) object array."""
    g = w.g
    out = np.eye(2 * g, dtype=object)
    for kind, i, j, e in w.letters:
        i, j, x = i - 1, j - 1, 2 * e
        if kind != "A":
            src, dst = (0, g) if kind == "B" else (g, 0)
            out[:, dst + j] += x * out[:, src + i]
            if i != j:
                out[:, dst + i] += x * out[:, src + j]
        elif i != j:
            out[:, j] += x * out[:, i]
            out[:, g + i] -= x * out[:, g + j]
        elif e % 2:
            out[:, [i, g + i]] *= -1
    return SymplecticMatrix(g=g, entries=out)


def act_reference(mat, m):
    """(d m' - c m'' + (c d^T)_0, -b m' + a m'' + (a b^T)_0) in object matmuls."""
    _check_degree(mat, m)
    mp, mpp = halves(m)
    top = mat.d @ mp - mat.c @ mpp + cd_diag(mat)
    bot = -mat.b @ mp + mat.a @ mpp + ab_diag(mat)
    return Characteristic(g=m.g, m_prime=tuple(int(x) for x in top),
                          m_double=tuple(int(x) for x in bot))


def phase_full_reference(m, mat):
    """-1/8 ( m'.(b^T d).m' + m''.(a^T c).m'' - 2 m'.(b^T c).m''
    - 2 (a b^T)_0 . (d m' - c m'') ) in object matmuls."""
    _check_degree(m, mat)
    mp, mpp = halves(m)
    num = (mp @ (mat.b.T @ mat.d) @ mp
           + mpp @ (mat.a.T @ mat.c) @ mpp
           - 2 * (mp @ (mat.b.T @ mat.c) @ mpp)
           - 2 * (ab_diag(mat) @ (mat.d @ mp - mat.c @ mpp)))
    return PhaseValue(raw_numerator=int(num))


def phase_level2_reference(m, mat):
    """The level-2 phase -1/8 ( m'.(b^T d).m' + m''.(a^T c).m''
    - 2 (a b^T)_0.(d m') ) in object matmuls."""
    _check_degree(m, mat)
    if not is_level2(mat):
        raise NotLevel2("matrix not congruent to I mod 2")
    mp, mpp = halves(m)
    num = (mp @ (mat.b.T @ mat.d) @ mp
           + mpp @ (mat.a.T @ mat.c) @ mpp
           - 2 * (ab_diag(mat) @ (mat.d @ mp)))
    return PhaseValue(raw_numerator=int(num))


def congruent_to_identity_reference(entries, modulus):
    """entries = I mod modulus, by object subtraction and mod on the exact entries."""
    return bool(((entries - np.eye(len(entries), dtype=object)) % modulus == 0).all())


def congruent_to_igusa48_reference(entries):
    """entries = I mod 4 and 8 | (a b^T)_0, (c d^T)_0, on the exact entries."""
    a, b, c, d = _blocks(entries)
    return (congruent_to_identity_reference(entries, 4)
            and bool(((a @ b.T).diagonal() % 8 == 0).all())
            and bool(((c @ d.T).diagonal() % 8 == 0).all()))


def random_igusa48_reference(g, rng):
    """The subgroup sampler as a product of commutator matrices and generator
    powers, drawing from rng in the same order as symplectic._random_igusa48."""
    out = identity(g)
    for _ in range(rng.randint(1, 3)):
        w1 = word_to_matrix(_random_word(g, rng.randint(1, 4), rng))
        w2 = word_to_matrix(_random_word(g, rng.randint(1, 4), rng))
        out = multiply(out, commutator(w1, w2))
    for _ in range(rng.randint(0, 3)):
        kind, i, j = rng.choice(alphabet(g))
        out = multiply(out, _generator_power(kind, i, j, g, 2 if kind == "A" else 4))
    return out


def random_level2(g, rng, max_length=6):
    """Random level-2 element via a random generator word."""
    return word_to_matrix(random_word(g, rng.randint(0, max_length), rng.randint(0, 10**9)))


def _j_matrix(g):
    eye = np.eye(g, dtype=object)
    zero = np.zeros((g, g), dtype=object)
    return make_matrix(np.block([[zero, -eye], [eye, zero]]))


def _translation(g, rng):
    s = np.zeros((g, g), dtype=object)
    for i in range(g):
        for j in range(i, g):
            v = rng.randint(-2, 2)
            s[i, j] = v
            s[j, i] = v
    eye = np.eye(g, dtype=object)
    zero = np.zeros((g, g), dtype=object)
    return make_matrix(np.block([[eye, s], [zero, eye]]))


def _gl_part(g, rng):
    u = np.eye(g, dtype=object)
    if g > 1:
        i = rng.randint(0, g - 2)
        u[i, i + 1] = rng.randint(-1, 1)
    d = np.eye(g, dtype=object)
    if g > 1:
        d[i + 1, i] = -u[i, i + 1]
    zero = np.zeros((g, g), dtype=object)
    return make_matrix(np.block([[u, zero], [zero, d]]))


def random_sp(g, rng, length=4):
    """Random symplectic matrix mixing non-level-2 factors (J, odd translations,
    GL blocks) with level-2 generators."""
    out = make_matrix(np.eye(2 * g, dtype=object))
    for _ in range(length):
        kind = rng.choice("JTUW")
        if kind == "J":
            factor = _j_matrix(g)
        elif kind == "T":
            factor = _translation(g, rng)
        elif kind == "U":
            factor = _gl_part(g, rng)
        else:
            factor = random_level2(g, rng, max_length=2)
        out = multiply(out, factor)
    return out


def random_tau(g, rng):
    """Random symmetric point with well-conditioned positive-definite imaginary part."""
    re = np.array([[rng.uniform(-0.4, 0.4) for _ in range(g)] for _ in range(g)])
    re = (re + re.T) / 2.0
    w = np.array([[rng.uniform(-0.3, 0.3) for _ in range(g)] for _ in range(g)])
    im = (0.6 + rng.uniform(0.0, 0.4)) * np.eye(g) + w @ w.T
    return SiegelPoint.make(re + 1j * im)


def seeded(seed):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Reference oracle for the character: one exact preimage solve per value
# ---------------------------------------------------------------------------

class ParityMismatch(SiegelChiError):
    """Two characteristics are not congruent mod 2 componentwise."""


def solve_preimage(mat, m):
    """The unique n with act(mat, n) == m, by the closed block-transpose form."""
    _check_degree(mat, m)
    mp, mpp = halves(m)
    cd0, ab0 = cd_diag(mat), ab_diag(mat)
    top = mat.a.T @ mp + mat.c.T @ mpp - mat.a.T @ cd0 - mat.c.T @ ab0
    bot = mat.b.T @ mp + mat.d.T @ mpp - mat.b.T @ cd0 - mat.d.T @ ab0
    n = Characteristic(g=m.g, m_prime=tuple(int(x) for x in top),
                       m_double=tuple(int(x) for x in bot))
    assert act_reference(mat, n) == m, "closed-form preimage must invert the action"
    return n


def delta(m, n):
    """Componentwise (n - m) / 2; exact, so the halves must agree mod 2."""
    _check_degree(m, n)
    diff = [b - a for a, b in zip(m.vector(), n.vector())]
    if any(x % 2 for x in diff):
        raise ParityMismatch("characteristics differ by an odd vector")
    half = [x // 2 for x in diff]
    return Characteristic.from_vector(half)


def sign_shift_exponent(m, n):
    """Exponent bit of the sign relating the theta constant at m + 2n to the one at m."""
    _check_degree(m, n)
    return sum(p * q for p, q in zip(m.m_prime, n.m_double)) % 2


def chi_reference(m, mat):
    """(k, s) of chi(m, mat) on exact integers, with nothing reduced: the
    level-2 phase plus 4 s, s = m'.delta'' mod 2 from the exact preimage."""
    s = sign_shift_exponent(m, delta(m, solve_preimage(mat, m)))
    return (phase_level2_reference(m, mat).eighths + 4 * s) % 8, s


def chi_rows_reference(mat):
    """The C-column kernel: (k, s) of chi at every binary characteristic
    (p, q) in enumerate_mod2 order, as int64 arrays, from the two coefficient
    columns that character._chi_rows derives for num and t over the monomials
    [p x p | q x q | p x q | p], read off M mod 8 in object arithmetic and
    summed against each row's monomials: s = (t mod 8)/4, k = (t - num) mod 8."""
    if not congruent_to_identity_reference(mat.entries, 2):
        raise NotLevel2("matrix not congruent to I mod 2")
    g = mat.g
    a, b, c, d = _blocks(mat.entries % 8)
    ab0 = -2 * (a * b).sum(1)
    zero = 0 * b
    t = np.concatenate((2 * b.T, zero, 2 * (d.T - np.eye(g, dtype=object)), ab0), axis=None)
    num = np.concatenate((b.T @ d, a.T @ c, zero, ab0), axis=None)
    bits = np.array(list(itertools.product((0, 1), repeat=2 * g)), dtype=object)
    p, q = bits[:, :g, None], bits[:, g:, None]
    monomials = np.concatenate([(p * p.mT).reshape(4 ** g, -1), (q * q.mT).reshape(4 ** g, -1),
                                (p * q.mT).reshape(4 ** g, -1), p[:, :, 0]], axis=1)
    t, num = monomials @ t, monomials @ num
    return ((t - num) % 8).astype(np.int64), (t % 8 // 4).astype(np.int64)


_VALUATION8 = np.array([3, 0, 1, 0, 2, 0, 1, 0])     # 2-valuation of x mod 8, 3 for 0


def smith_z8(rows):
    """The 2-valuations v of the Smith form over Z/8 of an integer matrix, one
    per nonzero invariant 2^v: its rows span a subgroup of (Z/8)^n of order
    2^(sum of 3 - v).  Each step pivots on an entry 2^v u, u odd, of least
    2-valuation; every entry of the other rows is a multiple of it mod 8, w
    2^v = (w u) 2^v u as u^2 = 1 mod 8, so row operations clear its column.
    The span is then the pivot row's cyclic group, of order 2^(3 - v) as each
    of its entries has valuation at least v, plus the span of the rest, which
    is zero in that column: a direct sum, so the orders multiply."""
    a = np.array(rows, dtype=np.int64) % 8
    found = []
    while a.size:
        i, j = np.unravel_index(_VALUATION8[a].argmin(), a.shape)
        v = int(_VALUATION8[a[i, j]])
        if v == 3:
            break
        found.append(v)
        factor = (a[:, j] >> v) * (a[i, j] >> v) % 8
        a = np.delete((a - factor[:, None] * a[i]) % 8, i, axis=0)
    return found


# ---------------------------------------------------------------------------
# Reference oracle for theta constants: the plain box sum in mpmath
# ---------------------------------------------------------------------------

def theta_box(chars, tau, digits=40):
    """Theta constants sum exp(pi i (v.tau.v + v.m'')) over v in Z^g + m'/2,
    term by term at `digits` decimal digits, over the box |v|_inf <= B less
    the terms below 1e-20.  Every v outside the box has v.Im(tau).v >
    lam B^2 >= 46 / pi, lam the smallest eigenvalue of Im(tau), so its term
    is below 1e-20 too.  exp(pi i v.m'') = i^(2 v.m'') exactly."""
    tau = np.asarray(tau, dtype=complex)
    g = len(tau)
    lam = float(np.linalg.eigvalsh((tau.imag + tau.imag.T) / 2.0)[0])
    reach = math.ceil(math.sqrt(46.0 / (math.pi * lam)))
    out = []
    with mpmath.workdps(digits):
        x = [[mpmath.mpf(tau[i, j].real) for j in range(g)] for i in range(g)]
        y = [[mpmath.mpf(tau[i, j].imag) for j in range(g)] for i in range(g)]
        terms = {}
        for m in chars:
            shift = tuple(int(a) % 2 for a in m.m_prime)      # Z + 3/2 = Z + 1/2
            if shift not in terms:
                terms[shift] = []
                axes = [[mpmath.mpf(2 * p + s) / 2 for p in range(-reach, reach + 1 - s)]
                        for s in shift]
                for v in itertools.product(*axes):
                    depth = mpmath.pi * sum(v[i] * y[i][j] * v[j] for i in range(g) for j in range(g))
                    if depth <= 46:
                        turn = mpmath.pi * sum(v[i] * x[i][j] * v[j] for i in range(g) for j in range(g))
                        terms[shift].append((v, mpmath.exp(mpmath.mpc(-depth, turn))))
            out.append(complex(sum(e * 1j ** int(sum(2 * a * int(b) for a, b in zip(v, m.m_double)) % 4)
                                   for v, e in terms[shift])))
    return out


def theta_dense_reference(chars, point, tail_tol=1e-12):
    """Theta constants as theta_constants read them before the +-1 transform:
    per characteristic, a row of cos(pi n.m''/2) at every class n mod 4 of its
    coset m' mod 2 and 0 at the classes of other cosets, times the class sums
    of the same lattice pass, theta._class_sums at Re tau mod 8, plus the 1 of
    n = 0 at coset 0."""
    g = point.g
    classes = np.indices((4,) * g).reshape(g, -1)
    bits = 1 << np.arange(g - 1, -1, -1)
    class_coset = bits @ (classes & 1)
    x = np.array([v & 3 for m in chars for v in m.vector()]).reshape(len(chars), 2 * g)
    coset = class_coset[x[:, :g] @ (bits * bits)]
    phase = np.array([1.0, 0.0, -1.0, 0.0])[(x[:, g:] @ classes) & 3]
    phase[coset[:, None] != class_coset] = 0.0
    r = truncation_radius(None, point, tail_tol)
    rho2 = np.full(2 ** g, -1.0)
    rho2[coset] = point.im_min_eig * r * r
    tau = point.tau.copy()
    tau.real = np.fmod(tau.real, 8.0)
    return (phase[:, 0] + 2.0 * (phase @ _class_sums(tau[None] / 4.0, rho2[None]))).tolist()


def class_sums_reference(t, rho2):
    """The class sums of theta._class_sums with each term turned by np.cos and
    np.sin of pi Re z, summed in the same order, and per class the sum of the
    moduli exp(-pi Im z) and the number of additions (terms plus blocks); t
    and rho2 are stacks, as _class_sums takes them."""
    size = len(t) << 2 * t.shape[1]
    sums, moduli, adds = np.zeros(size, dtype=complex), np.zeros(size), np.zeros(size)
    for z, cls in _half_lattice(t, rho2):
        modulus = np.exp(-math.pi * z.imag)
        turn = math.pi * z.real
        sums += np.bincount(cls, modulus * np.cos(turn), size)
        sums += 1j * np.bincount(cls, modulus * np.sin(turn), size)
        moduli += np.bincount(cls, modulus, size)
        adds += np.bincount(cls, minlength=size) + 1
    return sums, moduli, adds


def quad_reference(a, n):
    """n.a.n for each column of n in elementwise steps, row by row: the form
    theta._quad took before it followed the enumerator's partial sums."""
    return sum(n[i] * sum(a[i, j] * n[j] for j in range(len(a))) for i in range(len(a)))
