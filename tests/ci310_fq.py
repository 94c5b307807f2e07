"""The fq group against its enumeration, on Python 3.10, the declared minimum.

The generators are built once and the order 8! is read from their Coxeter
presentation.  For every isotropic h, the orbit counts of Stab(h), read off
the orbits of pairs (h, x) under the seven generators, and its order, 8!
over the orbit of h, are compared with the breadth-first closure of all
40320 elements in ``tests/oracles.py``.  Exits nonzero with a message on the
first disagreement.  Not a pytest module; run it from the repository root:

    PYTHONPATH=src:tests python3.10 -B tests/ci310_fq.py
"""

import sys

from modpoints import fqspace
from oracles import generate_group, stabilizer
generators = fqspace.coxeter_generators()
order = fqspace.group_order(generators)
if order != generate_group().order:
    sys.exit(f"group_order() gave {order}, the closure has {generate_group().order} elements")
for h in fqspace.isotropic_vectors():
    stab = stabilizer(h)
    perp = [v for v in range(1, fqspace.SIZE) if fqspace.b(v, h) == 0]
    expected = {
        "isotropic_orbits": len(fqspace.orbits_under(stab, [v for v in perp if fqspace.q(v) == 0])),
        "nonisotropic_orbits": len(fqspace.orbits_under(stab, [v for v in perp if fqspace.q(v) == 1])),
        "stabilizer_order": len(stab),
    }
    summary = fqspace.stab_orbit_summary(generators, h, order, fqspace.orbits_under(generators, [h])[0])
    if summary != expected:
        sys.exit(f"stab_orbit_summary({h}) gave {summary}, the closure gives {expected}")
print("fq group: the order and Stab(h) of all 35 isotropic h agree with the closure")
