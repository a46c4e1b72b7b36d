"""The Koszul complex of a singular constraint surface, made constructive.

The circle action on C^4 has an indefinite quadratic constraint whose zero
set is a cone.  The engine certifies exactness of the complex degree by
degree with exact rank computations, then assembles restriction,
prolongation and a contracting homotopy from canonical slice solves, so
the whole contraction is deterministic and, for torus actions, weight
equivariant.  A repeated constraint shows what failure looks like.
"""

import random
from fractions import Fraction

from redstar.koszul import (
    MomentMapData,
    build_koszul_contraction,
    check_acyclicity,
    koszul_operator,
)
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_bounded_super
from redstar.scalars import QQ_I
from redstar.superalg import LieAlgebraData, SuperElement

names = ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4")
weights = (1, 1, -1, -1, -1, -1, 1, 1)
ctx = VarContext(names, QQ_I, (weights, (1, 1, 1, 1, -1, -1, -1, -1)))
v = lambda n: Poly.variable(ctx, n)
J = (v("z3") * v("zb3") + v("z4") * v("zb4") - v("z1") * v("zb1") - v("z2") * v("zb2")).scale(
    Fraction(1, 2)
)
lie = LieAlgebraData.build(1)
moment = MomentMapData(ctx, (J,), lie)

report = check_acyclicity(moment, 6)
print("complex acyclic up to degree 6:", report.acyclic)
by_degree = {}
for g, d in report.h0_dims.items():
    by_degree[g[0]] = by_degree.get(g[0], 0) + d
print("dim of the quotient model per degree:", dict(sorted(by_degree.items())))

c = build_koszul_contraction(moment, 6)
f = SuperElement.from_poly(v("z1") * v("zb1"), 1, 0)
print("\nnormal form of z1*zb1 modulo the constraint:", c.p(f))
print("restriction kills the constraint:", c.p(SuperElement.from_poly(J, 1, 0)).is_zero())

h = c.h(SuperElement.from_poly(J * v("z2"), 1, 0))
print("homotopy produces an explicit preimage:", h)
d = koszul_operator(moment)
print("check: its boundary is J*z2 again:", d(h) == SuperElement.from_poly(J * v("z2"), 1, 0))

rng = random.Random(1)
good = 0
for _ in range(20):
    x = random_bounded_super(ctx, 1, 0, rng, 6, (2,), terms=2)
    lhs = d(c.h(x)) + c.h(d(x))
    rhs = x - c.i(c.p(x))
    good += (lhs - rhs).is_zero()
print(f"\nhomotopy identity on random elements: {good}/20 exact")

# negative control: a repeated constraint is not a complete intersection
qctx, (q, p) = poly_ring(("q", "p"))
bad = MomentMapData(qctx, (q, q), LieAlgebraData.build(2))
rep2 = check_acyclicity(bad, 6)
print("\nrepeated constraint (q, q): acyclic?", rep2.acyclic)
print("witness cycle:", {a: str(poly) for a, poly in rep2.witness.items()},
      "at slice", rep2.witness_slice)
