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

from .errors import ConventionError
from .koszul import koszul_sum
from .poisson import moyal_star_series
from .series import Series
from .superalg import (
    OperatorHandle,
    SuperElement,
    contract_antighost,
    super_mul,
)
from .brst import _antighost, build_delta, classical_charge, splitting_residuals


def quantum_charge_raw(moment, order):
    """theta_nu: the classical charge plus the unimodular nu-correction."""
    ctx = moment.ctx
    dim = moment.lie.dim
    theta = classical_charge(moment, order)
    f = moment.lie.f
    for a in range(dim):
        trace = sum(f[a][b][b] for b in range(dim))
        if trace:
            correction = SuperElement(
                ctx,
                dim,
                order,
                {((a + 1,), ()): Series.nu(ctx, order).scale(Fraction(trace, 2))},
            )
            theta = theta + correction
    return theta


def quantum_charge(moment, star, order):
    """The deformed charge, with nilpotency enforced.

    A nonvanishing square means a sign-convention breach somewhere in the
    product data and aborts the construction.
    """
    theta = quantum_charge_raw(moment, order)
    square = star.star(theta, theta)
    if not square.is_zero():
        raise ConventionError(
            f"quantum charge fails nilpotency: theta_nu * theta_nu = {square}"
        )
    return theta


def star_right_multiply(x, j, star):
    """x * J for a ghost-free polynomial J (Moyal on coefficients only)."""
    jser = Series.from_poly(j, x.order)
    return x.map_terms(lambda c: moyal_star_series(c, jser, star.lam))


def build_R(moment, star):
    """R(x) = sum_a (i^a x) * J_a: right star multiplication."""
    return OperatorHandle(
        "R", lambda x: koszul_sum(x, moment, lambda y, j: star_right_multiply(y, j, star)), +1
    )


def build_q(moment):
    """q(x) = -1/2 sum f_ab^c e_c i^a i^b x."""
    ctx = moment.ctx
    dim = moment.lie.dim
    f = moment.lie.f

    def fn(x):
        out = SuperElement.zero(ctx, dim, x.order)
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    v = f[a][b][c]
                    if not v:
                        continue
                    inner = contract_antighost(contract_antighost(x, b + 1), a + 1)
                    if inner.terms:
                        out = out + super_mul(
                            _antighost(ctx, dim, x.order, c + 1), inner
                        ).scale(Fraction(-1, 2) * v)
        return out

    return OperatorHandle("q", fn, +1)


def build_u(moment):
    """u(x) = sum_ab f_ab^b i^a x (the unimodular term)."""
    dim = moment.lie.dim
    f = moment.lie.f

    def fn(x):
        out = SuperElement.zero(x.ctx, dim, x.order)
        for a in range(dim):
            trace = sum(f[a][b][b] for b in range(dim))
            if trace:
                piece = contract_antighost(x, a + 1)
                if piece.terms:
                    out = out + piece.scale(trace)
        return out

    return OperatorHandle("u", fn, +1)


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
        return x.map_terms(
            lambda c: (
                moyal_star_series(jser, c, star.lam) - moyal_star_series(c, jser, star.lam)
            ).div_nu()
        )

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
