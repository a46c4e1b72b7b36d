"""Constant-coefficient Poisson brackets and the Moyal-type star product.

The bivector is an antisymmetric invertible matrix over the coefficient
field, stored as its nonzero entries.  The star product is the exponential
bidifferential series

    f * g = sum_k (nu/2)^k / k! * L^{i1 j1} .. L^{ik jk}
            (d_{i1} .. d_{ik} f)(d_{j1} .. d_{jk} g)

truncated at the scenario order.  The operators d_a (x) d_b commute, so for
any constant bivector the exponential factorizes over the nonzero entries
e = (a, b, L_e).  On two monomials it is a sum over counts k_e >= 0 whose
row sums r stay within alpha and column sums c within beta:

    x^alpha * x^beta = sum nu^k prod_e (L_e/2)^{k_e} / k_e!
                       * [alpha]_r [beta]_c x^(alpha + beta - r - c)

with k = sum_e k_e and the falling factorials [alpha]_r = prod_a
alpha_a! / (alpha_a - r_a)!.  This holds for every constant bivector, not
only for Darboux blocks.  The kernel enumerates the counts depth first over
the entries whose two variables both occur and keeps the integer part as
one integer, so each step and each leaf costs one field multiplication.
Every term with k beyond min(deg f, deg g) vanishes, so the expansion is
finite and exact.

The bivector is antisymmetric, so swapping the operands negates the odd
orders: M_k(g, f) = (-1)^k M_k(f, g) for the order-k term M_k.  A pass
that keeps the even orders E and the odd orders O of f * g apart
therefore gives f * g = E + O, g * f = E - O and f * g - g * f = 2 O,
all exact; the commutator drops the even leaves altogether.

There are four ways into the kernel: `moyal_term` gives one order k at
the weights L_e (the Poisson bracket is its k = 1 term), and
`poisson_bracket_into` adds that k = 1 term into a slot dict its caller
owns (the coefficient map {J, .} of the graded Poisson bracket and the
classical codifferential); at the weights L_e / 2, `moyal_star_series`
gives the product (`moyal_star` is that product on two polynomials), and
`star_pass` is the pass behind it, which writes E and O into slot dicts
its caller owns (`reduction.reduced_star` multiplies two ghost-free
invariants with it and sums res_nu's columns over those slots).  The
coefficient maps J * ., . * J and [J, .]* of `superalg` run `star_pass`
with the polynomial J as one operand, once per term of the other, in the
`op_sum` plans of the graded star product, its supercommutator, R and the
deformed codifferential (the commutator keeps the odd leaves alone).
`moyal_commutator` stays two `moyal_star` calls: it is the independent
route by which the covariance checks verify the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import ContextError, ShapeError
from .linalg import SliceSolver
from .poly import Poly
from .series import Series


@dataclass(frozen=True)
class PoissonData:
    """The constant Poisson bivector in the declared coordinates, stored sparse.

    `entries` are its nonzero (a, b, L^{ab}) in (a, b) order, both (a, b)
    and (b, a); `half_entries` the same at L^{ab} / 2, the weights of the
    star product.  Build it with `poisson_data`, which validates it.
    """

    ctx: object
    entries: tuple
    half_entries: tuple


def poisson_data(ctx, entries):
    """Build PoissonData from a sparse list of (name_i, name_j, value).

    Each entry sets L^{ij} = value and L^{ji} = -value; a later entry for a
    pair replaces an earlier one, in either order.
    """
    n = ctx.nvars
    lam = {}
    for ni, nj, v in entries:
        a, b = ctx.index(ni), ctx.index(nj)
        v = ctx.field.coerce(v)
        lam[a, b] = v
        lam[b, a] = -v
    full = tuple((a, b, v) for (a, b), v in sorted(lam.items()) if v)
    if any(a == b for a, b, _ in full):
        raise ShapeError("Poisson matrix must be antisymmetric")
    rows = [[] for _ in range(n)]
    for a, b, v in full:
        rows[a].append((b, v))
    if SliceSolver(rows, n, ctx.field).rank != n:
        raise ShapeError("Poisson matrix must be invertible (symplectic)")
    half = tuple((a, b, v * Fraction(1, 2)) for a, b, v in full)
    return PoissonData(ctx, full, half)


def poisson_bracket(f, g, lam):
    """{f, g} = sum_ij L^{ij} d_i f d_j g, the k = 1 Moyal term."""
    if f.ctx != g.ctx or f.ctx != lam.ctx:
        raise ContextError("bracket operands live in different contexts")
    return moyal_term(f, g, lam, 1)


def poisson_bracket_into(slot, f, g, lam, n=1):
    """Add n {f, g} into the dict `slot` (the k = 1 Moyal leaves, zeros kept)."""
    _moyal_into([None, slot], f, g, lam.entries, n)


def _moyal_into(out, f, g, entries, w=1):
    """Add w times the Moyal terms of f, g into the dicts out[k], by order k.

    w is an int or a field element; it multiplies each coefficient of f
    once.  An order k whose out[k] is None is dropped.  Counts k_e over
    `entries` (a, b, L) weigh prod_e L^{k_e} / k_e!, so L is L_e for the
    bare coefficient and L_e / 2 for the star product.
    """
    zero = out[0]
    for alpha, cf in f.terms.items():
        if w != 1:
            cf = cf * w
        rows = [e for e in entries if alpha[e[0]]]
        for beta, cg in g.terms.items():
            live = [e for e in rows if beta[e[1]]]
            if live:
                _visit(out, live, 0, 0, list(alpha), list(beta), cf * cg, 1)
            elif zero is not None:
                _add(zero, tuple(map(add, alpha, beta)), cf * cg)


def _visit(out, live, t, k, ra, rb, c, n):
    """Choose the counts of live[t:], given field part c and integer part n."""
    hi = len(out) - 1
    if t == len(live) or k == hi:
        if out[k] is not None:
            _add(out[k], tuple(map(add, ra, rb)), c * n if n != 1 else c)
        return
    _visit(out, live, t + 1, k, ra, rb, c, n)
    a, b, w = live[t]
    ea, eb = ra[a], rb[b]
    for j in range(1, min(ea, eb, hi - k) + 1):
        c = c * w
        n = n * (ea - j + 1) * (eb - j + 1) // j
        ra[a], rb[b] = ea - j, eb - j
        _visit(out, live, t + 1, k + j, ra, rb, c, n)
    ra[a], rb[b] = ea, eb


def _add(terms, m, c):
    s = terms.get(m)
    terms[m] = c if s is None else s + c


def moyal_term(f, g, lam, k):
    """The k-th bidifferential coefficient (without the (nu/2)^k factor)."""
    out = {}
    _moyal_into([None] * k + [out], f, g, lam.entries)
    return Poly(f.ctx, {m: c for m, c in out.items() if c}, _clean=True)


def moyal_star(f, g, lam, order):
    """Moyal star product of two polynomials, truncated at `order`."""
    return moyal_star_series(f, g, lam, order)


def _operands(a, b, lam, order):
    """a and b as Series of one truncation order, in the context of lam."""
    if isinstance(a, Poly):
        if order is None and isinstance(b, Poly):
            raise ContextError("a star product of two polynomials needs an order")
        a = Series.from_poly(a, order if order is not None else b.order)
    if isinstance(b, Poly):
        b = Series.from_poly(b, a.order)
    if a.order != b.order:
        raise ContextError("series truncation orders differ")
    if b.ctx != a.ctx or lam.ctx != a.ctx:
        raise ContextError("star operands live in different contexts")
    return a, b


def star_pass(a, b, lam, even, odd, n=1):
    """One kernel pass at the weights L_e / 2 over the coefficient pairs of a, b.

    a and b are each a Series or a Poly (the series with one slot), and
    even and odd equally long lists of slots, the nu powers 0 up to the
    truncation.  The leaf of order k on a_i, b_j adds n times its value to
    the dict even[i + j + k] for even k and odd[i + j + k] for odd k, and
    is dropped where that slot is None or past the end; a slot pair whose
    slots are all None is skipped.  The dicts may keep zero values, as
    `Series.from_slots`, which turns them into a Series, allows.  Passing
    the same dicts twice gives a * b; E + O = a * b and E - O = b * a.
    """
    top = len(even) - 1
    half = lam.half_entries
    for i, ci in enumerate(_slots(a)[: top + 1]):
        for j, cj in enumerate(_slots(b)[: top + 1 - i]):
            if ci.terms and cj.terms:
                out = even[i + j :]
                out[1::2] = odd[i + j + 1 :: 2]
                if out.count(None) < len(out):
                    _moyal_into(out, ci, cj, half, n)


def _slots(a):
    return (a,) if isinstance(a, Poly) else a.coeffs


def moyal_star_series(a, b, lam, order=None):
    """Moyal star product of two Series (or a Series and a Poly), truncated."""
    a, b = _operands(a, b, lam, order)
    out = [{} for _ in range(a.order + 1)]
    star_pass(a, b, lam, out, out)
    return Series.from_slots(a.ctx, a.order, out, min(a.reliable, b.reliable))


def moyal_commutator(f, g, lam, order):
    """f * g - g * f as a Series."""
    return moyal_star(f, g, lam, order) - moyal_star(g, f, lam, order)


def check_quantum_covariance(moment, lam, order):
    """J_a * J_b - J_b * J_a = nu * sum_c f_ab^c J_c: (label, residual) per basis pair."""
    comps = moment.components
    out = []
    for (a, b), row in moment.lie.pairs:
        lhs = moyal_commutator(comps[a], comps[b], lam, order)
        rhs = Poly.zero(moment.ctx)
        for c, v in row:
            rhs = rhs + comps[c].scale(v)
        residual = lhs - Series.from_poly(rhs, order).shift_nu(1)
        out.append((f"pair ({a + 1},{b + 1})", residual))
    return out


def check_strong_invariance(moment, lam, order, probes):
    """J_a * f - f * J_a = nu {J_a, f}: (label, residual) per component and probe."""
    comps = moment.components
    out = []
    for a, j in enumerate(comps):
        for k, f in enumerate(probes):
            lhs = moyal_commutator(j, f, lam, order)
            rhs = Series.from_poly(poisson_bracket(j, f, lam), order).shift_nu(1)
            out.append((f"component {a + 1}, probe {k + 1}", lhs - rhs))
    return out
