"""Random probe generation for identity checks (seeded, reproducible)."""

from __future__ import annotations

from itertools import combinations

from .poly import Poly
from .series import Series
from .superalg import SuperElement


def random_poly(ctx, rng, max_degree=3, terms=4, span=5):
    """A small random polynomial with exact coefficients."""
    out = {}
    for _ in range(terms):
        deg = rng.randint(0, max_degree)
        mono = [0] * ctx.nvars
        for _ in range(deg):
            mono[rng.randrange(ctx.nvars)] += 1
        out[tuple(mono)] = ctx.field.random(rng, span)
    return Poly(ctx, out)


def random_bounded_super(ctx, dim, order, rng, bound, jgrade_degs, terms=3, hdegree=None):
    """A random BRST element whose every term stays within the degree bound.

    `jgrade_degs[a]` is the polynomial degree of the a-th moment component;
    a term with antighost set A and coefficient degree d has total degree
    d + sum of the offsets, which is kept <= bound.  With `hdegree`, the
    element is a ghost-free chain whose antighost sets have that size.
    """
    out = {}
    if hdegree is None:
        subsets = [s for r in range(dim + 1) for s in combinations(range(1, dim + 1), r)]
    else:
        subsets = list(combinations(range(1, dim + 1), hdegree))
    for _ in range(terms):
        a = subsets[rng.randrange(len(subsets))]
        g = () if hdegree is not None else subsets[rng.randrange(len(subsets))]
        room = bound - sum(jgrade_degs[x - 1] for x in a)
        if room < 0:
            continue
        deg = rng.randint(0, room)
        coeff = Series.from_poly(random_poly(ctx, rng, deg, terms=2), order)
        key = (g, a)
        cur = out.get(key)
        out[key] = coeff if cur is None else cur + coeff
    return SuperElement(ctx, dim, order, out)
