"""Quantum BRST: deformed charge, operator set and the splitting check.

The deformed Koszul differential is right star multiplication by the
moment map plus structure-constant corrections; the deformed
codifferential replaces the coefficient Poisson action by the rescaled
star commutator.  The three deformed operators form one
`brst.BrstOperators` set (`build_quantum_operators`), the one the
splitting checks read and the quantum BRST transfer moves delta_nu from.
Dividing by nu costs one reliable order, which the Series layer tracks;
callers give themselves headroom by working at a truncation above the
order they assert.
"""

from __future__ import annotations

from fractions import Fraction

from .koszul import koszul_pieces
from .series import Series
from .superalg import (  # noqa: F401 (star_right_multiply: R's writer, traced under this module)
    Piece,
    SuperElement,
    _remove_antighost,
    commutator_with,
    op_sum,
    right_star,
    star_right_multiply,
)
from .brst import BrstOperators, build_delta, classical_charge, splitting_residuals


def quantum_charge(moment, order):
    """theta_nu: the classical charge plus the unimodular correction nu tr(ad e_a)/2 e^a."""
    correction = {
        ((a + 1,), ()): Series.nu(moment.ctx, order).scale(Fraction(t, 2))
        for a, t in enumerate(moment.lie.traces)
        if t
    }
    theta = classical_charge(moment, order)
    return theta + SuperElement(moment.ctx, moment.lie.dim, order, correction)


def _antighost_paths(*indices):
    return tuple((_remove_antighost, a + 1) for a in indices)


def r_pieces(moment, star):
    """R(x) = sum_a (i^a x) * J_a: right star multiplication (`superalg.star_right_multiply`)."""
    return [
        Piece(_antighost_paths(a), coeff=right_star(j, star.lam))
        for a, j in enumerate(moment.components)
    ]


def q_pieces(moment):
    """q(x) = -1/2 sum f_ab^c e_c i^a i^b x."""
    return [
        Piece(_antighost_paths(b, a), ((), (c + 1,)), Fraction(-1, 2) * v)
        for a, b, c, v in moment.lie.entries
    ]


def u_pieces(moment):
    """u(x) = sum_a tr(ad e_a) i^a x (the unimodular term)."""
    return [Piece(_antighost_paths(a), scalar=t) for a, t in enumerate(moment.lie.traces) if t]


def quantum_koszul_pieces(moment, star):
    """The pieces of R + nu (u/2 - q): those of R, u and q, the last two shifted by nu."""
    nu = lambda pieces, w: [p._replace(scalar=p.scalar * w, shift=1) for p in pieces]
    return r_pieces(moment, star) + nu(u_pieces(moment), Fraction(1, 2)) + nu(q_pieces(moment), -1)


def build_quantum_koszul(moment, star):
    """The deformed Koszul differential R + nu (u/2 - q), one op_sum over the pieces of all three.

    Each term of x passes once through the plan of its key: the u and q
    entries write their coefficient one nu slot up, into the same output
    slots as R's right star products.
    """
    return op_sum("koszul_nu", +1, quantum_koszul_pieces(moment, star))


def koszul_difference(moment, star):
    """t = koszul_nu - koszul: the pieces of koszul_nu and those of koszul negated."""
    neg = [p._replace(scalar=-p.scalar) for p in koszul_pieces(moment)]
    return op_sum(
        "(koszul_nu-koszul)", +1, quantum_koszul_pieces(moment, star) + neg, frozenset({"nu"})
    )


def star_action(star):
    """The quantum action's piece builder: (J, ghosts) -> e^ghosts (1/nu)[J, .]* on each coefficient.

    The division by nu is exact under quantum covariance and drops one
    reliable order.
    """
    return lambda j, ghosts=(): Piece(
        monomial=(ghosts, ()), coeff=commutator_with(j, star.lam), shift=-1
    )


def quantum_brst_diff(theta_nu, star):
    """D_nu = (1/nu) ad_*(theta_nu): the `op_sum` of theta_nu's commutator pieces.

    Each piece's nu shift is lowered by one, so the level-0 pieces of the
    nu^0 slot divide by nu; the plans are built once, like D's.
    """
    pieces = [p._replace(shift=p.shift - 1) for p in star.commutator_pieces(theta_nu)]
    return op_sum("D_nu", +1, pieces, frozenset({"ghost"}))


def build_quantum_operators(moment, star, theta_nu):
    """The deformed set around the charge theta_nu (see `quantum_charge`).

    Its handles are named D_nu, koszul_nu and delta_nu.
    """
    return BrstOperators(
        D=quantum_brst_diff(theta_nu, star),
        koszul=build_quantum_koszul(moment, star),
        delta=build_delta(moment, star_action(star), "delta_nu"),
    )


def check_quantum_splitting(ops, probes):
    """Residuals of the quantum splitting identities on each probe.

    D_nu = delta_nu + 2 koszul_nu, each square zero, and the two pieces
    anticommute; all modulo the truncation.
    """
    return splitting_residuals(ops, probes, "_nu")
