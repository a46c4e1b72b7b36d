"""Poisson brackets, the Moyal-type star product and its invariance.

For quadratic constraint functions the star commutator with any function
terminates at first order, which is exactly the strong invariance the
reduction machinery relies on; a cubic perturbation breaks it at nu^3 and
the residual is exhibited exactly.
"""

import random

from redstar.koszul import MomentMapData
from redstar.poisson import (
    check_strong_invariance,
    moyal_commutator,
    moyal_star,
    poisson_bracket,
    poisson_data,
)
from redstar.poly import poly_ring
from redstar.probes import random_poly
from redstar.superalg import LieAlgebraData

ctx, (q, p) = poly_ring(("q", "p"))
lam = poisson_data(ctx, [("q", "p", 1)])

print("{q, p} =", poisson_bracket(q, p, lam))
print("{q^2, p} =", poisson_bracket(q * q, p, lam))

print("\nq * p  =", moyal_star(q, p, lam, 2))
print("q^2 * p^2 =", moyal_star(q * q, p * p, lam, 3))

rng = random.Random(0)
f, g = random_poly(ctx, rng, 4, 3), random_poly(ctx, rng, 4, 3)
comm = moyal_commutator(f, g, lam, 4)
print("\nfirst-order commutator matches the bracket:",
      comm.coefficient(1) == poisson_bracket(f, g, lam))

# strong invariance: exact for quadratic constraints
lie = LieAlgebraData.build(1)
quad = MomentMapData(ctx, (q * q,), lie)
out = check_strong_invariance(quad, lam, 4, [random_poly(ctx, rng, 4, 3) for _ in range(5)])
print("\nstrong invariance for J = q^2:",
      "holds exactly" if all(r.is_zero() for _, r in out) else "fails")

cubic = MomentMapData(ctx, (q * q + q ** 3,), lie)
out = check_strong_invariance(cubic, lam, 4, [p ** 3])
bad = next(r for _, r in out if not r.is_zero())
print("cubic perturbation breaks it; residual on p^3:", bad)
