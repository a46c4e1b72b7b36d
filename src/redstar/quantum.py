"""Quantum BRST: deformed charge, differentials and the splitting check.

The deformed Koszul differential is right star multiplication by the
moment map plus structure-constant corrections; the deformed
codifferential replaces the coefficient Poisson action by the rescaled
star commutator.  Dividing by nu costs one reliable order, which the
Series layer tracks; callers give themselves headroom by working at a
truncation above the order they assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poisson import moyal_bracket_series, moyal_star_series
from .series import Series
from .superalg import (
    OperatorHandle,
    SuperElement,
    contract_antighost,
    left_monomial,
    op_sum,
)
from .brst import build_delta, classical_charge, splitting_residuals


def quantum_charge(moment, order):
    """theta_nu: the classical charge plus the unimodular correction nu tr(ad e_a)/2 e^a."""
    correction = {
        ((a + 1,), ()): Series.nu(moment.ctx, order).scale(Fraction(t, 2))
        for a, t in enumerate(moment.lie.traces)
        if t
    }
    theta = classical_charge(moment, order)
    return theta + SuperElement(moment.ctx, moment.lie.dim, order, correction)


def star_right_multiply(x, j, star):
    """x * J for a ghost-free polynomial J (Moyal on coefficients only)."""
    jser = Series.from_poly(j, x.order)
    return x.map_terms(lambda c: moyal_star_series(c, jser, star.lam))


def build_R(moment, star):
    """R(x) = sum_a (i^a x) * J_a: right star multiplication."""
    pieces = [
        (((contract_antighost, a + 1),), lambda y, j=j: star_right_multiply(y, j, star))
        for a, j in enumerate(moment.components)
    ]
    return op_sum("R", +1, pieces)


def build_q(moment):
    """q(x) = -1/2 sum f_ab^c e_c i^a i^b x."""
    pieces = [
        (
            ((contract_antighost, b + 1), (contract_antighost, a + 1)),
            left_monomial((), (c + 1,), Fraction(-1, 2) * v),
        )
        for a, b, c, v in moment.lie.entries
    ]
    return op_sum("q", +1, pieces)


def build_u(moment):
    """u(x) = sum_a tr(ad e_a) i^a x (the unimodular term)."""
    pieces = [
        (((contract_antighost, a + 1),), lambda y, t=t: y.scale(t))
        for a, t in enumerate(moment.lie.traces)
        if t
    ]
    return op_sum("u", +1, pieces)


def build_quantum_koszul(moment, star):
    """The deformed Koszul differential R + nu (u/2 - q)."""
    r = build_R(moment, star)
    q = build_q(moment)
    u = build_u(moment)

    def fn(x):
        correction = u(x).scale(Fraction(1, 2)) - q(x)
        return r(x) + correction.shift_nu(1)

    return OperatorHandle("koszul_nu", fn, +1)


def star_action(star):
    """The quantum coefficient action (j, x) -> (1/nu)[j, .]* on every coefficient of x.

    The division by nu is exact under quantum covariance and drops one
    reliable order.
    """

    def act(j, x):
        jser = Series.from_poly(j, x.order)
        return x.map_terms(lambda c: moyal_bracket_series(jser, c, star.lam).div_nu(), drop=1)

    return act


def quantum_brst_diff(theta_nu, star):
    """D_nu = (1/nu) ad_*(theta_nu)."""

    def fn(x):
        return star.commutator(theta_nu, x).div_nu()

    return OperatorHandle("D_nu", fn, +1, frozenset({"ghost"}))


@dataclass
class QuantumOperators:
    theta_nu: SuperElement
    D: OperatorHandle
    koszul_nu: OperatorHandle
    delta_nu: OperatorHandle


def build_quantum_operators(moment, star, theta_nu):
    """The deformed operators around the charge theta_nu (see `quantum_charge`)."""
    return QuantumOperators(
        theta_nu=theta_nu,
        D=quantum_brst_diff(theta_nu, star),
        koszul_nu=build_quantum_koszul(moment, star),
        delta_nu=build_delta(moment, star_action(star), "delta_nu"),
    )


def check_quantum_splitting(ops, probes):
    """Residuals of the quantum splitting identities on each probe.

    D_nu = delta_nu + 2 koszul_nu, each square zero, and the two pieces
    anticommute; all modulo the truncation.
    """
    return splitting_residuals(ops.D, ops.delta_nu, ops.koszul_nu, probes, "_nu")
