"""
Exact character values on the generator alphabet
=================================================

The level-2 congruence subgroup of the integral symplectic group is generated
by three families of elementary matrices.  For a fixed integer characteristic
m, the map M -> chi(m, M) is a character valued in eighth roots of unity, and
on the generators it collapses to tiny closed forms.  This demo evaluates the
character both ways, through the matrix kernel (the phase and sign of all
4^g binary characteristics as one exact product of a fixed map, built once per
degree, with the entries of M mod 8 and their pairwise products; see
character._chi_rows and character._chi_map) and through the closed forms, and
prints the degree-1 table.
"""

import itertools

from siegelchi import (Characteristic, chi, chi_generator, generator,
                       make_matrix, multiply)
from siegelchi.symplectic import alphabet

g = 1
print(f"degree g = {g}: generators {['%s_%d%d' % t for t in alphabet(g)]}")
print()
header = f"{'m':>10} | " + " | ".join(f"{k}_{i}{j}" for k, i, j in alphabet(g))
print(header)
print("-" * len(header))
for bits in itertools.product((0, 1), repeat=2 * g):
    m = Characteristic(g=g, m_prime=bits[:g], m_double=bits[g:])
    row = []
    for kind, i, j in alphabet(g):
        direct = chi(m, generator(kind, i, j, g))
        closed = chi_generator(m, kind, i, j)
        assert direct.k == closed.k
        row.append(f"{direct.symbol:>4}")
    print(f"{str(bits):>10} | " + " | ".join(row))

# The character is multiplicative, so values on products come for free.
print()
b11 = generator("B", 1, 1, 1)
c11 = generator("C", 1, 1, 1)
prod = multiply(b11, c11)
m = Characteristic.from_vector([1, 0])
print(f"B_11 C_11 = {prod.entries.tolist()}")
print(f"chi((1,0), B_11) * chi((1,0), C_11) = "
      f"{(chi(m, b11) * chi(m, c11)).symbol}")
print(f"chi((1,0), B_11 C_11)               = {chi(m, prod).symbol}")

# The same value falls out of the hand computation: the exact preimage of
# (1,0) under the affine action of (5 2; 2 1) is (-25, -12), the phase class
# is 1/4, and the correction sign is trivial.
mat = make_matrix([[5, 2], [2, 1]])
print(f"chi((1,0), (5 2; 2 1))              = {chi(m, mat).symbol}")
