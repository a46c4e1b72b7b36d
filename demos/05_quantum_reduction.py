"""End to end: a star product on a singular symplectic quotient.

The pipeline deforms the Koszul contraction (second perturbation lemma),
transfers the quantum differential (first lemma), and then multiplies
invariants through the deformed restriction.  The result is an exact,
associative deformation of the cone's function algebra; its first-order
antisymmetric part is the reduced Poisson bracket, computed independently.
"""

import itertools
import random
from fractions import Fraction

from redstar.brst import brst_transfer, build_delta, poisson_action, reduced_poisson
from redstar.koszul import KoszulSpace, MomentMapData, koszul_contraction
from redstar.poisson import poisson_data
from redstar.poly import Poly, VarContext
from redstar.quantum import star_action
from redstar.reduction import (
    ReductionPipeline,
    deformed_restriction,
    invariant_generators,
    quantum_reduction,
    reduced_star,
)
from redstar.scalars import QQ_I, GaussianRational
from redstar.superalg import LieAlgebraData, StarProduct

ORDER = 4          # asserted order in nu
WORK = ORDER + 2   # headroom for divisions by nu

names = ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4")
ctx = VarContext(
    names, QQ_I, ((1, 1, -1, -1, -1, -1, 1, 1), (1, 1, 1, 1, -1, -1, -1, -1))
)
v = lambda n: Poly.variable(ctx, n)
J = (v("z3") * v("zb3") + v("z4") * v("zb4") - v("z1") * v("zb1") - v("z2") * v("zb2")).scale(
    Fraction(1, 2)
)
moment = MomentMapData(ctx, (J,), LieAlgebraData.build(1))
lam = poisson_data(ctx, [(f"z{k}", f"zb{k}", GaussianRational(0, 2)) for k in range(1, 5)])
star = StarProduct(lam)

print("building the Koszul contraction ...")
space = KoszulSpace(moment, 6)
kc = koszul_contraction(space)
phi = brst_transfer(kc, build_delta(moment, poisson_action(lam)))[0].i

print("deforming the restriction ...")
dc, t = deformed_restriction(kc, moment, star)
print("transferring the quantum differential ...")
qc, d_z_nu = quantum_reduction(dc, build_delta(moment, star_action(star), "delta_nu"))
pipe = ReductionPipeline(moment, lam, star, space, WORK, dc, qc)

gens = [g for g in invariant_generators(ctx, (0,), 4) if g.degree() > 0]
print(f"\n{len(gens)} quadratic invariant generators on the cone, e.g.",
      ", ".join(str(g) for g in gens[:4]), "...")

a, b = gens[2], gens[4]   # z1*zb1 and z2*z3
pipe.certify(a)
pipe.certify(b)
sab = reduced_star(a, b, pipe)
sba = reduced_star(b, a, pipe)
print(f"\n({a}) * ({b}) =", sab)
print("\nclassical part equals the product in the quotient model:",
      sab.classical() == space.normal_form_poly(a * b))

bracket = reduced_poisson(a, b, phi, kc.p, lam, 1)
print("antisymmetrized nu-coefficient equals the reduced bracket:",
      (sab - sba).coefficient(1) == bracket)

rng = random.Random(3)
checked = 0
for f, g, h in itertools.islice(itertools.product(gens[:6], repeat=3), 0, 60, 13):
    lhs = reduced_star(reduced_star(f, g, pipe), h, pipe)
    rhs = reduced_star(f, reduced_star(g, h, pipe), pipe)
    assert (lhs - rhs).is_zero(upto=ORDER)
    checked += 1
print(f"associativity spot check: {checked} generator triples, exact modulo nu^{ORDER + 1}")
print("\n(the scenario runner checks all generator triples; see demos/06_scenarios.py)")
