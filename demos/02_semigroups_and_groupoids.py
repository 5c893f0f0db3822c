"""Inverse semigroups, groupoids, and the bisection semigroup.

Run:  python3 demos/02_semigroups_and_groupoids.py
"""

from finsys.invsgrp import (
    bisection_semigroup,
    groupoid_predicates,
    induced_semigroup,
    matrix_groupoid,
    symmetric_inverse_monoid,
)

# All partial injections of {1, 2}: seven of them, each with a unique
# generalized inverse (its relational converse).
S = symmetric_inverse_monoid(2)
print(f"partial injections of {{1,2}}: {len(S)} elements")
swap = ((1, 2), (2, 1))
print(f"  swap* = swap: {S.star(swap) == swap}")
print(f"  swap . swap = {S.mul(swap, swap)}  (the identity)")

# The natural partial order is restriction of partial maps.
ident = ((1, 1), (2, 2))
part = ((1, 1),)
print(f"  {part} <= identity: {S.leq(part, ident)}")
print(f"  empty map below everything: "
      f"{all(S.leq((), t) for t in S.elements)}")

# The full groupoid on two objects: one arrow between any ordered pair.
G = matrix_groupoid([1, 2])
print(f"\nfull groupoid on 2 objects: {len(G.morphisms)} morphisms")
print(f"  (1,2) o (2,1) = {G.compose((1, 2), (2, 1))}")
print(f"  predicates: {groupoid_predicates(G)}")

# Its induced semigroup adjoins an absorbing element for the failures of
# composability.
ind = induced_semigroup(G)
print(f"  induced semigroup: {len(ind)} elements, zero = {ind.zero()!r}")
print(f"  (1,2).(1,2) = {ind.mul((1, 2), (1, 2))}  (not composable)")

# Bisections: subsets on which domain and codomain are injective.  They form
# an inverse semigroup under setwise composition, ordered by inclusion.
B = bisection_semigroup(G)
print(f"\nbisections of the groupoid: {len(B)}")
units = frozenset({(1, 1), (2, 2)})
flip = frozenset({(1, 2), (2, 1)})
print(f"  flip . flip = units: {B.mul(flip, flip) == units}")
print(f"  order is inclusion: "
      f"{all(B.leq(U, V) == (U <= V) for U in B.elements for V in B.elements)}")
