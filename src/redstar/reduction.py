"""Quantum reduction: deformed restriction, transfer and the reduced product.

The deformed restriction comes from the second perturbation lemma applied
to the deformed Koszul differential; the full quantum transfer from the
first lemma applied to the quantum BRST differential.  The reduced star
product of two certified invariants is res_nu(prol f * prol g).  The second
lemma keeps the inclusion, so prol is the identity, and the graded star
product of two ghost-free elements is the Moyal product of their
coefficients: for ghost-free invariants the reduced product is the Moyal
product followed by res_nu.  On general cochain classes the transferred
product routes through the perturbed inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .brst import brst_transfer, certify_invariant
from .errors import ContextError, TruncationError
from .hpt import neumann_inverse, perturb_v2
from .koszul import ZERO
from .poisson import star_pass
from .poly import Poly
from .quantum import koszul_difference
from .series import Series
from .superalg import OperatorHandle, SuperElement, op_columns, op_compose


def deformed_restriction(koszul_contraction, moment, star, probes_X=(), probes_Y=(), upto=None):
    """Contraction of the deformed Koszul complex via the second lemma.

    Returns (contraction, t) where the contraction carries res_nu and the
    deformed homotopy, and t = koszul_nu - koszul (`quantum.koszul_difference`,
    one op_sum over the pieces of both) is the initiator.  res_nu
    is C[[nu]]-linear, so it is evaluated once per basis column
    (`op_columns`); the cache lives on this contraction's handle.
    """
    t = koszul_difference(moment, star)
    out = perturb_v2(koszul_contraction, t, ZERO, probes_X, probes_Y, upto=upto)
    return replace(out, p=op_columns(out.p, name="res_nu")), t


def closed_form_res_nu(koszul_contraction, t, order):
    """res (id + (koszul_nu,1 - koszul,1) h_0)^{-1} on the antighost-free sector."""
    c = koszul_contraction
    th = OperatorHandle(
        "t.h", lambda x: t(c.h(x)), 0, frozenset({"nu"})
    )
    inv = neumann_inverse(th, cap=order + 4)
    return op_compose(c.p, inv, name="res_nu_closed")


def quantum_reduction(deformed_contraction, delta_nu, probes_X=(), probes_Y=(), upto=None):
    """Transfer the quantum BRST differential: `brst_transfer` of delta_nu.

    Returns (contraction, d_z_nu) with Phi_nu and H_nu as the contraction's
    `i` and `h`.
    """
    return brst_transfer(deformed_contraction, delta_nu, probes_X, probes_Y, upto)


@dataclass
class ReductionPipeline:
    """Everything needed to evaluate the reduced star product.

    Its operands are invariants, certified by the bracket criterion of
    `certify_invariant` from the moment map, lam and the quotient space.
    """

    moment: object
    lam: object
    star: object
    space: object
    order: int
    deformed_contraction: object
    quantum_contraction: object  # from `quantum_reduction`: Phi_nu, H_nu, d_z_nu

    @property
    def res_nu(self):
        return self.deformed_contraction.p

    def embed(self, f):
        """A Poly (at the pipeline's order) or a Series as a ghost-free element."""
        if isinstance(f, Poly):
            return SuperElement.from_poly(f, self.moment.lie.dim, self.order)
        return SuperElement.scalar(f, self.moment.lie.dim)

    def certify(self, f):
        """Certify that a Poly is invariant (`certify_invariant`).

        The pipeline certifies its generators once, in `classical-reduction`,
        and never calls this; tests and demos do, and perfbench traces it.
        """
        certify_invariant(f, self.moment, self.lam, self.space)


def reduced_star(f, g, pipe):
    """The reduced product res_nu(prol f * prol g) of invariants (see `ReductionPipeline.certify`).

    prol is the identity (the second lemma keeps the inclusion), and the
    graded star product of two ghost-free operands is the Moyal product of
    their coefficients.  So one `star_pass` writes f * g into nu slot
    dicts, and res_nu's `column_sum` (`op_columns`) adds its cached columns
    over the nonzero leaves and returns the image, whose scalar part
    (`SuperElement.as_series`, which refuses ghost content and caps the
    reliable order at the floor) is the result; a leaf that cancelled
    reads no column, and f * g is never built as a Series.  The
    reliable order is op_columns' on the ghost-free element f * g: at most
    min(f.reliable, g.reliable), lowered by the columns it reads and by a
    vanished column's floor; a product that cancels altogether is zero to
    that minimum.  Accepts Poly or Series operands in the quotient model at
    the pipeline's order (`_reliable`, the operand rule); returns a Series
    in the quotient model.  It is C[[nu]]-bilinear: a check that multiplies
    many operands can read it off monomial products (`ProductTable`).
    """
    ctx, order, dim = pipe.moment.ctx, pipe.order, pipe.moment.lie.dim
    reliable = min(_reliable(f, ctx, order), _reliable(g, ctx, order))
    slots = [{} for _ in range(order + 1)]
    star_pass(f, g, pipe.lam, slots, slots)
    floor = None if any(any(s.values()) for s in slots) else reliable
    items = [(((), ()), slots)]
    return pipe.res_nu.column_sum(ctx, dim, order, items, reliable, floor).as_series()


def _reliable(f, ctx, order):
    """The reliable order of a Poly or Series operand of a product at `order` in `ctx`."""
    if f.ctx != ctx:
        raise ContextError("star operands live in different contexts")
    if isinstance(f, Poly):
        return order
    if f.order != order:
        raise TruncationError(f"truncation orders differ: {f.order} vs {order}")
    return f.reliable


class ProductTable:
    """The reduced product of Poly or Series operands read off a lazy table of monomial pairs.

    `reduced_star` is C[[nu]]-bilinear, so f * g is the sum of
    c1 c2 nu^(s+t) T[(m1, m2)] over the terms c1 nu^s m1 of f and
    c2 nu^t m2 of g with s + t within the pipeline's order, truncated
    there, and equals `reduced_star`(f, g) in value and reliable order.
    The entry T[(m1, m2)] is `reduced_star` of the monomial pair, on first
    use, kept as its reliable order and a flat tuple of (nu power,
    monomial, coefficient) terms.  A product is reliable to the minimum of
    f's, g's and every entry's it used.  Each operand's reliable order
    comes from `_reliable`, the operand rule of `reduced_star`, so the
    table refuses what `reduced_star` refuses; a Poly is the one-slot
    series [f].  Each operand's term list is read once per table, keyed by
    the operand object, which the table keeps alive so that its id stays
    its own.  `table(f, g)` is f * g and
    `table.residual((f, g), (f2, g2))` is f * g - f2 * g2 in one Series,
    the form `reduced-star.associativity` reads.
    """

    def __init__(self, pipe):
        self.pipe = pipe
        self.ctx = pipe.moment.ctx
        self.order = pipe.order
        self.entries = {}  # (m1, m2) -> (reliable, ((nu power, monomial, coefficient), ...))
        self.operands = {}  # id(operand) -> (operand, reliable, terms)

    def terms(self, f):
        """f's reliable order and its (nu power, monomial, coefficient) terms."""
        got = self.operands.get(id(f))
        if got is None:
            reliable = _reliable(f, self.ctx, self.order)
            coeffs = [f] if isinstance(f, Poly) else f.coeffs
            terms = [(s, m, c) for s, p in enumerate(coeffs) for m, c in p.terms.items()]
            got = self.operands[id(f)] = (f, reliable, terms)
        return got[1], got[2]

    def _add(self, slots, f, g, negate, reliable):
        """Add f * g (its negative if `negate`) into slots; `reliable` lowered by what it read."""
        ctx, order, entries = self.ctx, self.order, self.entries
        f_reliable, f_terms = self.terms(f)
        g_reliable, g_terms = self.terms(g)
        reliable = min(reliable, f_reliable, g_reliable)
        for s, m1, c1 in f_terms:
            for t, m2, c2 in g_terms:
                st = s + t
                if st > order:
                    continue
                entry = entries.get((m1, m2))
                if entry is None:
                    value = reduced_star(Poly.monomial(ctx, m1), Poly.monomial(ctx, m2), self.pipe)
                    entry = entries[(m1, m2)] = (
                        value.reliable,
                        tuple(
                            (u, m, v)
                            for u, p in enumerate(value.coeffs)
                            for m, v in p.terms.items()
                        ),
                    )
                if entry[0] < reliable:
                    reliable = entry[0]
                w = -(c1 * c2) if negate else c1 * c2
                for u, m, v in entry[1]:
                    k = st + u
                    if k <= order:
                        slot = slots[k]
                        x = slot.get(m)
                        slot[m] = v * w if x is None else x + v * w
        return reliable

    def __call__(self, f, g):
        """f * g."""
        slots = [{} for _ in range(self.order + 1)]
        reliable = self._add(slots, f, g, False, self.order)
        return Series.from_slots(self.ctx, self.order, slots, reliable)

    def residual(self, left, right):
        """f * g - f2 * g2 for left = (f, g) and right = (f2, g2), summed into one slot table."""
        slots = [{} for _ in range(self.order + 1)]
        reliable = self._add(slots, *left, False, self.order)
        reliable = self._add(slots, *right, True, reliable)
        return Series.from_slots(self.ctx, self.order, slots, reliable)


def reduced_star_cohomology(a, b, pipe):
    """[a] * [b] = res_nu(Phi_nu a * Phi_nu b) on quotient cochains.

    The product of classes needs closed inputs: callers check d_X a and
    d_X b as residuals of their own.
    """
    qc = pipe.quantum_contraction
    return pipe.res_nu(pipe.star.star(qc.i(a), qc.i(b)))


def weight_zero_monomials(ctx, torus_rows, max_degree):
    """All monomials of weight zero on the torus rows, by ascending degree."""
    out = []
    for deg in range(max_degree + 1):
        for m in ctx.monomials_of_degree(deg):
            if not any(ctx.torus_weights(m, torus_rows)):
                out.append(m)
    return out


def invariant_generators(ctx, torus_rows, max_degree):
    """Indecomposable weight-zero monomials up to the degree cap, plus 1.

    A weight-zero monomial is kept when it does not factor into two
    nontrivial weight-zero monomials of lower degree; the survivors
    multiplicatively generate every weight-zero monomial within the cap.
    """
    invariants = weight_zero_monomials(ctx, torus_rows, max_degree)
    inv_set = set(invariants)
    gens = []
    for m in invariants:
        deg = sum(m)
        if deg == 0:
            gens.append(m)
            continue
        decomposable = False
        for d in inv_set:
            dd = sum(d)
            if dd == 0 or dd >= deg:
                continue
            rest = tuple(a - b for a, b in zip(m, d))
            if all(e >= 0 for e in rest) and rest in inv_set:
                decomposable = True
                break
        if not decomposable:
            gens.append(m)
    return [Poly.monomial(ctx, m) for m in gens]
