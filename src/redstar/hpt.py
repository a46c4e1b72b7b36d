"""Homological perturbation: Neumann inversion and the two transfer lemmas.

Both lemmas take a contraction plus a perturbation of the big differential
and return the transferred contraction with explicit operators:

  version 1 keeps the projection p and perturbs the inclusion and the
  homotopy; it needs p h = 0 and the compatibility t_X p = p t_Y;

  version 2 keeps the inclusion i and perturbs the projection and the
  homotopy; it needs h i = 0 and t_Y i = i t_X.

All hypotheses are verified on caller-supplied probes, exactly; a failure
names the identity that broke.  Neumann series terminate because the
initiators raise the nu filtration or the ghost degree, both finite here.
"""

from __future__ import annotations

from .errors import FiltrationError, LemmaHypothesisError
from .koszul import Contraction
from .superalg import OperatorHandle, op_compose

NEUMANN_CAP = 32  # Neumann steps allowed for the lemmas' homotopy denominator


def neumann_inverse(t, cap, name=None):
    """(id + t)^{-1} as the alternating Neumann sum, termination enforced.

    `t` must declare what it raises (nu order or ghost degree); `cap` bounds
    the number of iterations actually needed on any input.
    """
    if not t.raises_filtration:
        raise FiltrationError(
            f"operator {t.name} does not declare a filtration it raises"
        )

    def fn(x):
        total = x
        term = x
        for _ in range(cap):
            term = -t(term)
            if not term.terms:
                return total
            total = total + term
        raise FiltrationError(
            f"Neumann series for {t.name} did not terminate within {cap} steps"
        )

    return OperatorHandle(name or f"(id+{t.name})^-1", fn, 0)


def _verify(label, residual, upto=None):
    if not residual.is_zero(upto):
        raise LemmaHypothesisError(f"hypothesis failed: {label}; residual {residual}")


def _homotopy_denominator(c, t_y):
    a = OperatorHandle(
        f"({t_y.name}.h+h.{t_y.name})",
        lambda x: t_y(c.h(x)) + c.h(t_y(x)),
        0,
        t_y.raises_filtration,
    )
    return neumann_inverse(a, NEUMANN_CAP)


def _perturbed_differentials(c, t_y, t_x, probes_X, probes_Y, upto):
    """d_Y + t_Y and d_X + t_X, each verified to square to zero on the probes."""
    d_y = OperatorHandle(
        f"({c.d_Y.name}+{t_y.name})", lambda x: c.d_Y(x) + t_y(x), c.d_Y.degree
    )
    d_x = OperatorHandle(
        f"({c.d_X.name}+{t_x.name})", lambda x: c.d_X(x) + t_x(x), c.d_X.degree
    )
    for y in probes_Y:
        _verify("(d_Y + t_Y)^2 = 0", d_y(d_y(y)), upto)
    for x in probes_X:
        _verify("(d_X + t_X)^2 = 0", d_x(d_x(x)), upto)
    return d_y, d_x


def perturb_v1(c, t_y, t_x, probes_X=(), probes_Y=(), upto=None):
    """Transfer a perturbation keeping p: output has perturbed i and h.

    Preconditions (verified on probes): p h = 0; t_X p = p t_Y;
    (d_Y + t_Y)^2 = 0; (d_X + t_X)^2 = 0.
    """
    for y in probes_Y:
        _verify("p h = 0 (sc3)", c.p(c.h(y)), upto)
        _verify("t_X p = p t_Y", t_x(c.p(y)) - c.p(t_y(y)), upto)
    d_y_new, d_x_new = _perturbed_differentials(c, t_y, t_x, probes_X, probes_Y, upto)

    inv = _homotopy_denominator(c, t_y)
    h_new = op_compose(c.h, inv, name="H")

    def i_fn(x):
        ix = c.i(x)
        return ix - h_new(t_y(ix) - c.i(t_x(x)))

    i_new = OperatorHandle("I", i_fn, c.i.degree)
    return Contraction(
        p=c.p,
        i=i_new,
        h=h_new,
        d_X=d_x_new,
        d_Y=d_y_new,
    )


def perturb_v2(c, t_y, t_x, probes_X=(), probes_Y=(), upto=None):
    """Transfer a perturbation keeping i: output has perturbed p and h.

    Preconditions (verified on probes): h i = 0; t_Y i = i t_X;
    (d_Y + t_Y)^2 = 0; (d_X + t_X)^2 = 0.
    """
    for x in probes_X:
        _verify("h i = 0 (sc2)", c.h(c.i(x)), upto)
        _verify("t_Y i = i t_X", t_y(c.i(x)) - c.i(t_x(x)), upto)
    d_y_new, d_x_new = _perturbed_differentials(c, t_y, t_x, probes_X, probes_Y, upto)

    inv = _homotopy_denominator(c, t_y)
    h_new = op_compose(c.h, inv, name="H'")
    p_new = op_compose(c.p, inv, name="P")
    return Contraction(
        p=p_new,
        i=c.i,
        h=h_new,
        d_X=d_x_new,
        d_Y=d_y_new,
    )
