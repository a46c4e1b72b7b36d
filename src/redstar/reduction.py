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
from .hpt import neumann_inverse, perturb_v2
from .koszul import ZERO
from .poisson import moyal_star_series
from .poly import Poly
from .quantum import koszul_difference
from .series import Series, add_shifted
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
    """Everything needed to evaluate the reduced star product."""

    moment: object
    lam: object
    star: object
    space: object
    order: int
    deformed_contraction: object
    quantum_contraction: object  # from `quantum_reduction`: Phi_nu, H_nu, d_z_nu
    torus_rows: tuple = ()

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
        certify_invariant(f, self.moment, self.lam, self.space, self.torus_rows)


def reduced_star(f, g, pipe):
    """The reduced product res_nu(prol f * prol g) of invariants (see `ReductionPipeline.certify`).

    prol is the identity (the second lemma keeps the inclusion), and the
    graded star product of two ghost-free operands is the Moyal product of
    their coefficients, so this is `moyal_star_series` followed by res_nu.
    Accepts Poly or Series in the quotient model; returns a Series in the
    quotient model.  It is C[[nu]]-bilinear: a check that multiplies many
    operands can read it off monomial products (`reduced_star_table`).
    """
    product = moyal_star_series(f, g, pipe.lam, pipe.order)
    return pipe.res_nu(SuperElement.scalar(product, pipe.moment.lie.dim)).as_series()


def reduced_star_table(pipe):
    """The reduced product of Poly or Series operands from a lazy product table.

    `reduced_star` is C[[nu]]-bilinear, so f * g is the sum of
    c1 c2 nu^(s+t) T[(m1, m2)] over the terms c1 nu^s m1 of f and c2 nu^t m2
    of g, truncated at the pipeline's order, where the table entry
    T[(m1, m2)] = `reduced_star`(m1, m2) is filled on first use.  The result
    is reliable to the minimum of f's, g's and every table entry's it used.
    The table lives as long as the returned function.
    """
    ctx, order = pipe.moment.ctx, pipe.order
    table = {}

    def product(f, g):
        (f_reliable, f_terms), (g_reliable, g_terms) = _terms(f, order), _terms(g, order)
        reliable = min(f_reliable, g_reliable)
        slots = [{} for _ in range(order + 1)]
        for s, m1, c1 in f_terms:
            for t, m2, c2 in g_terms:
                if s + t > order:
                    continue
                entry = table.get((m1, m2))
                if entry is None:
                    entry = table[(m1, m2)] = reduced_star(
                        Poly.monomial(ctx, m1), Poly.monomial(ctx, m2), pipe
                    )
                reliable = min(reliable, entry.reliable)
                add_shifted(slots, [p.terms for p in entry.coeffs], s + t, c1 * c2)
        return Series.from_slots(ctx, order, slots, reliable)

    return product


def _terms(f, order):
    """A Poly or Series operand's reliable order and its (nu power, monomial, coefficient) terms."""
    if isinstance(f, Poly):
        f = Series.from_poly(f, order)
    return f.reliable, [(s, m, c) for s, p in enumerate(f.coeffs) for m, c in p.terms.items()]


def table_size(products, order):
    """How many `reduced_star_table` entries the products f * g, (f, g) in `products`, read."""
    pairs = set()
    for f, g in products:
        f_terms, g_terms = _terms(f, order)[1], _terms(g, order)[1]
        pairs.update((m1, m2) for s, m1, _ in f_terms for t, m2, _ in g_terms if s + t <= order)
    return len(pairs)


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
