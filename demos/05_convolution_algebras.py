"""Convolution algebras of finite discrete groupoids and their translation
to skew rings of bisection actions.

Run:  python3 demos/05_convolution_algebras.py
"""

from finsys import catalog
from finsys.finring import is_simple
from finsys.invsgrp import all_bisections, matrix_groupoid
from finsys.skewconstruct import build_skew_ring
from finsys.steinberg import (
    ga_partial_action,
    simplicity_verdicts,
    steinberg_ring,
    translation,
    z_s_units,
)

F2 = catalog.prime_field(2)
F2xF2 = catalog.product_ring(F2, F2)
G = matrix_groupoid([1, 2])

# Functions on the morphisms under convolution; for a discrete groupoid this
# is the groupoid ring, and both constructions are compared internally.
sp = steinberg_ring(F2, G)
print(f"convolution algebra of the 2-object full groupoid over F2: "
      f"order {sp.ring.order}, simple: {is_simple(sp.ring)}")

# Indicator functions multiply along the set product of bisections.
U = frozenset({(1, 2)})
V = frozenset({(2, 1)})
prod = sp.ring.mul(sp.indicator((1,), U), sp.indicator((1,), V))
print(f"  1_U * 1_V = 1_UV: {prod == sp.indicator((1,), frozenset({(1, 1)}))}")
print(f"  bisections available: {len(all_bisections(G))}")

# The bisections act on functions on the objects by transporting values.
pi, objects = ga_partial_action(F2, G)
flip = frozenset({(1, 2), (2, 1)})
ind1 = objects.vector({1: (1,)})
print(f"  flip moves the indicator of object 1 to object 2: "
      f"{pi.maps[flip][ind1] == objects.vector({2: (1,)})}")

# Translating back and forth between the skew ring of that action and the
# convolution algebra is a verified ring isomorphism both ways.
pair = translation(pi, objects, build_skew_ring(pi), sp)
print(f"  translation verified on {len(pair.alpha)} skew elements and "
      f"{len(pair.beta)} functions")

# The simplicity battery ties everything together; with coefficients that are
# not simple, the algebra fails exactly as the coefficient ideal predicts.
print("\nverdicts over F2:")
for line in simplicity_verdicts(F2, G).lines():
    print("   ", line)

print(f"\nz-central s-units for F2xF2: {z_s_units(F2xF2)}")
print("verdicts over F2 x F2 (coefficients not simple):")
for line in simplicity_verdicts(F2xF2, G).lines():
    print("   ", line)
