"""The classical ghost/antighost complex and its reduction.

The charge combines the moment map with the structure constants; its
graded self-bracket vanishes exactly, its adjoint action splits into the
codifferential plus twice the Koszul differential, and transferring along
the contraction produces the reduced Poisson algebra of invariants on the
singular quotient.  The nonabelian commuting variety exercises all the
structure-constant terms.
"""

import random
from fractions import Fraction

from redstar.brst import (
    build_delta,
    check_classical_splitting,
    brst_transfer,
    classical_charge,
    poisson_action,
    reduced_poisson,
)
from redstar.koszul import MomentMapData, build_koszul_contraction
from redstar.poisson import poisson_data
from redstar.poly import Poly, VarContext
from redstar.probes import random_bounded_super
from redstar.scalars import QQ_I, GaussianRational
from redstar.superalg import LieAlgebraData, graded_poisson

# -- nonabelian data: so(3) acting on pairs of symmetric 3x3 matrices ------------

pairs = [(i, j) for i in range(1, 4) for j in range(i, 4)]
names = [f"q{i}{j}" for i, j in pairs] + [f"p{i}{j}" for i, j in pairs]
ctx = VarContext(tuple(names))
lam = poisson_data(
    ctx,
    [(f"q{i}{j}", f"p{i}{j}", Fraction(1) if i == j else Fraction(1, 2)) for i, j in pairs],
)

def qv(i, j):
    i, j = min(i, j), max(i, j)
    return Poly.variable(ctx, f"q{i}{j}")

def pv(i, j):
    i, j = min(i, j), max(i, j)
    return Poly.variable(ctx, f"p{i}{j}")

def comm(r, c):
    out = Poly.zero(ctx)
    for k in range(1, 4):
        out = out + qv(r, k) * pv(k, c) - pv(r, k) * qv(k, c)
    return out

J = (comm(2, 3).scale(2), comm(3, 1).scale(2), comm(1, 2).scale(2))
eps = [
    (a, b, c, (a - b) * (b - c) * (c - a) // 2)
    for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)
    if a < b and (a - b) * (b - c) * (c - a) // 2
]
lie = LieAlgebraData.build(3, eps)
moment = MomentMapData(ctx, J, lie, "commuting variety")

theta = classical_charge(moment, 0)
ghost_cubics = sum(1 for k in theta.terms if len(k[0]) == 2 and len(k[1]) == 1)
print("charge has", ghost_cubics, "structure-constant (ghost-cubic) terms")
print("{theta, theta} = 0:", graded_poisson(theta, theta, lam).is_zero())

delta = build_delta(moment, poisson_action(lam))
rng = random.Random(2)
probes = [random_bounded_super(ctx, 3, 0, rng, 4, (2, 2, 2), terms=2) for _ in range(10)]
residuals = check_classical_splitting(moment, lam, theta, delta, probes)
print("splitting identities on 10 random elements:",
      "all zero" if all(r.is_zero() for _, r in residuals) else "FAILED")

# -- reduction on a small circle scenario ----------------------------------------

zctx = VarContext(("z1", "z2", "zb1", "zb2"), QQ_I, ((-1, 1, 1, -1),))
zlam = poisson_data(
    zctx, [("z1", "zb1", GaussianRational(0, 2)), ("z2", "zb2", GaussianRational(0, 2))]
)
zv = lambda n: Poly.variable(zctx, n)
zJ = (zv("z1") * zv("zb1") - zv("z2") * zv("zb2")).scale(Fraction(1, 2))
zmoment = MomentMapData(zctx, (zJ,), LieAlgebraData.build(1, torus_rows=(0,)), "")
kc = build_koszul_contraction(zmoment, 6)
phi = brst_transfer(kc, build_delta(zmoment, poisson_action(zlam)))[0].i
space = kc.meta["space"]

a = space.normal_form_poly(zv("z1") * zv("zb1"))
b = space.normal_form_poly(zv("z1") * zv("z2"))
rb = reduced_poisson(a, b, phi, kc.p, zlam, 1, zmoment, space, torus_rows=(0,))
print("\nreduced bracket of two invariants on the cone:")
print("  {", a, ",", b, "} =", rb)
print("antisymmetry:", reduced_poisson(b, a, phi, kc.p, zlam, 1, zmoment, space) == -rb)
