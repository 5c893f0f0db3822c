"""Systems: rings carrying semigroup-indexed components, and their verdicts.

Run:  python3 demos/03_graded_systems.py
"""

from finsys import catalog
from finsys.finring import is_simple
from finsys.invsgrp import cyclic_group, induced_semigroup, matrix_groupoid
from finsys.syscheck import (
    degree,
    epsilon_characterizations,
    is_system_simple,
    max_commutative_r0,
    structural_predicates,
    system_ideal_closure,
    theorem_verdicts,
    validate_system,
)

# The 2x2 matrices graded by matrix units over the induced semigroup of the
# full groupoid on two objects.
M2 = catalog.matrix_ring(catalog.prime_field(2), 2)
S = induced_semigroup(matrix_groupoid([1, 2]))
units = {(1, 1): [(1, 0, 0, 0)], (1, 2): [(0, 1, 0, 0)],
         (2, 1): [(0, 0, 1, 0)], (2, 2): [(0, 0, 0, 1)]}
sr = validate_system(M2, S, units)
print("matrix-unit grading of M2(F2):")
preds = structural_predicates(sr)
print(f"  graded={preds['graded']} strong={preds['strong']} "
      f"coherent={preds['coherent']} symmetric={preds['symmetric']}")
print(f"  system simple: {is_system_simple(sr)[0]}, "
      f"diagonal maximally commutative: {max_commutative_r0(sr)[0]}")
print(f"  => the simplicity criterion applies and the ring is simple: "
      f"{is_simple(M2)}")
for line in theorem_verdicts(sr).lines():
    print("   ", line)

# The group algebra F2[C2] is system simple but not simple: the proper ideal
# spanned by 1+g is invisible to the grading (it is not a system ideal).
R = catalog.semigroup_algebra(catalog.prime_field(2), ["g0", "g1"],
                              cyclic_group(2).mul, name="F2[C2]")
gr = validate_system(R, cyclic_group(2), {"g0": [(1, 0)], "g1": [(0, 1)]})
print("\ngroup algebra F2[C2] graded by C2:")
print(f"  system simple: {is_system_simple(gr)[0]}, simple: {is_simple(R)}")
print(f"  smallest system ideal containing g: "
      f"{sorted(system_ideal_closure(gr, (0, 1)).elements)}")
print(f"  degree of 1+g: {degree(gr, (1, 1))}")

# Three independent routes to epsilon-strength agree on every instance.
for line in epsilon_characterizations(gr).lines():
    print("   ", line)
