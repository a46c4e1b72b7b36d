"""Classical BRST: charge, operator set, splitting checks and the transfer.

The charge combines the structure constants and the moment map; its graded
self-bracket vanishes exactly and its adjoint action splits as the
codifferential plus twice the Koszul differential.  Each side holds its
three operators in one `BrstOperators` set (`classical_operators` here,
`quantum.build_quantum_operators` after deformation), which the splitting
checks read and whose codifferential the BRST transfer moves along.  The
codifferential, the quotient representation and the transfer to the
quotient cochains (the first perturbation lemma applied to an extended
contraction) are written once for a given coefficient action, so the
quantum side reuses them with the star commutator in place of the Poisson
bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvarianceError
from .hpt import perturb_v1
from .koszul import ZERO, koszul_operator
from .poisson import poisson_bracket
from .series import Series
from .superalg import (
    OperatorHandle,
    Piece,
    SuperElement,
    _remove_antighost,
    _remove_ghost,
    bracket_pieces,
    bracket_with,
    canonical_monomial,
    graded_poisson,
    op_scale,
    op_sum,
)


def classical_charge(moment, order=0):
    """theta = -1/4 sum f_ab^c e^a e^b e_c + sum_a J_a e^a."""
    ctx, lie = moment.ctx, moment.lie
    cubic = {}
    for a, b, c, v in lie.entries:
        sign, key = canonical_monomial((a + 1, b + 1), (c + 1,))
        cubic[key] = cubic.get(key, 0) + Fraction(-1, 4) * v * sign
    terms = {key: Series.const(ctx, w, order) for key, w in cubic.items()}
    for a, j in enumerate(moment.components):
        terms[((a + 1,), ())] = Series.from_poly(j, order)
    return SuperElement(ctx, lie.dim, order, terms)


def classical_brst_diff(theta, lam):
    """D = {theta, .}: the `op_sum` of theta's bracket pieces, whose plans are built once."""
    return op_sum("D", +1, bracket_pieces(theta, lam), frozenset({"ghost"}))


def poisson_action(lam):
    """The classical action's piece builder: (J, ghosts) -> e^ghosts {J, .} on each coefficient."""
    return lambda j, ghosts=(): Piece(monomial=(ghosts, ()), coeff=bracket_with(j, lam))


def build_delta(moment, action, name="delta"):
    """The Lie-algebra codifferential on the BRST algebra, as one `op_sum`.

    delta = -1/2 f_ab^c e^a e^b i_c + f_ab^c e^a e_c i^b + e^a action(J_a, .),
    where the last piece acts on coefficients only: the Poisson bracket
    (`poisson_action`) classically, the (1/nu) star commutator
    (`quantum.star_action`) for the deformed codifferential.  The
    coefficient action writes each term's image into the slots of its
    output key, which the two structure-constant pieces share.
    """
    pieces = []
    for a, b, c, v in moment.lie.entries:
        pieces.append(Piece(((_remove_ghost, c + 1),), ((a + 1, b + 1), ()), Fraction(-1, 2) * v))
        pieces.append(Piece(((_remove_antighost, b + 1),), ((a + 1,), (c + 1,)), v))
    for a, j in enumerate(moment.components):
        pieces.append(action(j, (a + 1,)))
    return op_sum(name, +1, pieces, frozenset({"ghost"}))


@dataclass
class RepresentationHandle:
    """Per-basis operators realizing a Lie algebra representation."""

    lie: object
    ops: tuple

    def commutator_residuals(self, probes):
        """[L_a, L_b] - sum_c f_ab^c L_c on each probe."""
        out = []
        for (a, b), row in self.lie.pairs:
            for k, x in enumerate(probes):
                r = self.ops[a](self.ops[b](x)) - self.ops[b](self.ops[a](x))
                for c, v in row:
                    r = r - self.ops[c](x).scale(v)
                out.append(((a + 1, b + 1, k), r))
        return out


def quotient_representation(moment, action, res, prol):
    """The quotient-model representation: L^z_a = res after action(J_a, .) after prol.

    `action` is `poisson_action(lam)` for the classical representation and
    `quantum.star_action(star)`, with the deformed restriction as `res`, for
    the deformed one.  It acts on coefficients only, so this is the quotient
    representation on ghost- and antighost-free quotient elements, where the
    adjoint and coadjoint terms vanish.  Each action(J_a, .) is one
    `op_sum` handle, built here once.
    """

    def make(a):
        act = op_sum(f"J_{a + 1}.", 0, [action(moment.components[a])])
        return OperatorHandle(f"Lz_{a + 1}", lambda x: res(act(prol(x))), 0)

    return RepresentationHandle(moment.lie, tuple(make(a) for a in range(moment.lie.dim)))


@dataclass
class BrstOperators:
    """One side's BRST operators: D, the codifferential delta and the Koszul differential."""

    D: OperatorHandle
    delta: OperatorHandle
    koszul: OperatorHandle


def classical_operators(moment, lam, theta):
    """The classical set around the charge theta: D = {theta, .}, delta and koszul."""
    return BrstOperators(
        D=classical_brst_diff(theta, lam),
        delta=build_delta(moment, poisson_action(lam)),
        koszul=koszul_operator(moment),
    )


def splitting_residuals(ops, probes, s=""):
    """Residuals of D = delta + 2 koszul, the three squares and the supercommutator.

    Labels carry the operator suffix `s` ("" classically, "_nu" for the
    deformed set) and the probe index in brackets.
    """
    D, delta, koszul = ops.D, ops.delta, ops.koszul
    out = []
    for k, x in enumerate(probes):
        dx, delta_x, koszul_x = D(x), delta(x), koszul(x)
        out.append((f"D{s}-delta{s}-2koszul{s}[{k}]", dx - delta_x - koszul_x.scale(2)))
        out.append((f"D{s}^2[{k}]", D(dx)))
        out.append((f"delta{s}^2[{k}]", delta(delta_x)))
        out.append((f"koszul{s}^2[{k}]", koszul(koszul_x)))
        out.append(
            (f"delta{s}.koszul{s}+koszul{s}.delta{s}[{k}]", delta(koszul_x) + koszul(delta_x))
        )
    return out


def brst_transfer(contraction, delta, probes_X=(), probes_Y=(), upto=None):
    """Transfer D = delta + 2 d_Y to the quotient cochains along `contraction`.

    The contraction extends to the full BRST algebra with d_Y = 2 koszul by
    a rescaling only: its restriction, prolongation and homotopy already act
    on elements with ghosts (the homotopy with the odd Koszul sign), and the
    homotopy for 2 koszul is h/2.  The first perturbation lemma, applied to
    that extension with the codifferential `delta` as perturbation and
    d_z = res delta prol on the quotient cochains, gives the transferred
    contraction: its `i` is Phi, its `h` is H and its `d_X` equals d_z.
    Returns (contraction, d_z).  Classically `contraction` is the Koszul
    contraction and `delta` the classical set's codifferential;
    `reduction.quantum_reduction` passes the deformed contraction
    (koszul_nu, h_nu) and the deformed set's delta_nu.
    """
    c = contraction
    h = op_scale(c.h, Fraction(1, 2), name="h/2")
    base = replace(c, h=h, d_X=ZERO, d_Y=op_scale(c.d_Y, 2, name="2*koszul"))
    d_z = OperatorHandle("d_z", lambda x: c.p(delta(c.i(x))), +1, frozenset({"ghost"}))
    return perturb_v1(base, delta, d_z, probes_X, probes_Y, upto=upto), d_z


def closed_form_H(koszul_contraction, delta, lie_dim):
    """H = 1/2 h sum_j (-1/2)^j (h delta + delta h)^j, the explicit transfer homotopy."""
    h = koszul_contraction.h

    def fn(x):
        acc = SuperElement.zero(x.ctx, x.dim, x.order)
        term = x
        for j in range(lie_dim + 1):
            acc = acc + term.scale(Fraction(-1, 2) ** j)
            term = h(delta(term)) + delta(h(term))
            if not term.terms:
                acc = acc + term  # the floor of the term that ends the sum
                break
        return h(acc).scale(Fraction(1, 2))

    return OperatorHandle("H_closed", fn, -1)


def closed_form_Phi(koszul_contraction, delta, h_transfer, d_z):
    """Phi = prol - H (delta prol - prol d_z)."""
    prol = koszul_contraction.i

    def fn(x):
        px = prol(x)
        return px - h_transfer(delta(px) - prol(d_z(x)))

    return OperatorHandle("Phi_closed", fn, 0)


def certify_invariant(p, moment, lam, space):
    """Certify that a quotient-model element is invariant.

    This is the paper's invariance condition on the quotient: {J_a, p}
    lies in the vanishing ideal, that is, reduces to zero modulo the ideal,
    for every a.  Raises InvarianceError otherwise.
    """
    for a, j in enumerate(moment.components):
        residual = space.normal_form_poly(poisson_bracket(j, p, lam))
        if not residual.is_zero():
            raise InvarianceError(
                f"{{J_{a + 1}, f}} is not in the ideal: residual {residual}"
            )
    return True


def reduced_poisson(f, g, phi, res, lam, dim):
    """The reduced bracket {[f],[g]} = res {Phi f, Phi g} on invariants (see `certify_invariant`)."""
    fx = SuperElement.from_poly(f, dim, 0)
    gx = SuperElement.from_poly(g, dim, 0)
    out = res(graded_poisson(phi(fx), phi(gx), lam))
    return out.as_series().classical()
