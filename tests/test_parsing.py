import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from redstar.errors import ParseError
from redstar.parsing import parse_polynomial, poly_to_text
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_poly
from redstar.scalars import QQ, QQ_I, GaussianRational


def test_moment_map_expression():
    ctx = VarContext(
        ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4"), QQ_I
    )
    p = parse_polynomial("1/2*(z3*zb3 + z4*zb4 - z1*zb1 - z2*zb2)", ctx)
    v = lambda n: Poly.variable(ctx, n)
    expect = (
        v("z3") * v("zb3") + v("z4") * v("zb4") - v("z1") * v("zb1") - v("z2") * v("zb2")
    ).scale(GaussianRational(1, 0) / 2)
    assert p == expect


def test_zero():
    ctx, _ = poly_ring(("q", "p"))
    assert parse_polynomial("0", ctx).is_zero()


def test_unknown_identifier():
    ctx, _ = poly_ring(("q", "p"))
    with pytest.raises(ParseError):
        parse_polynomial("q1^1", ctx)


def test_implicit_multiplication_rejected():
    ctx, _ = poly_ring(("q", "p"))
    with pytest.raises(ParseError):
        parse_polynomial("2q", ctx)
    with pytest.raises(ParseError):
        parse_polynomial("q p", ctx)


def test_error_position():
    ctx, _ = poly_ring(("q", "p"))
    with pytest.raises(ParseError) as err:
        parse_polynomial("q + $", ctx)
    assert "position 4" in str(err.value)


def test_imaginary_unit_needs_gaussian_field():
    ctx, _ = poly_ring(("q", "p"))
    with pytest.raises(ParseError):
        parse_polynomial("i*q", ctx)


def test_powers_and_unary_minus():
    ctx, (q, p) = poly_ring(("q", "p"))
    assert parse_polynomial("-q^2 + 3/2*p^3", ctx) == -(q * q) + (p ** 3).scale(Fraction(3, 2))
    assert parse_polynomial("--q", ctx) == q
    assert parse_polynomial("(q + p)^2", ctx) == (q + p) * (q + p)


def test_round_trip_rational():
    ctx, _ = poly_ring(("q", "p", "r"))
    rng = random.Random(21)
    for _ in range(40):
        f = random_poly(ctx, rng, 5, 6)
        assert parse_polynomial(poly_to_text(f), ctx) == f


def test_round_trip_gaussian():
    ctx = VarContext(("z", "zb"), QQ_I)
    rng = random.Random(22)
    for _ in range(40):
        f = random_poly(ctx, rng, 4, 5)
        text = poly_to_text(f)
        assert parse_polynomial(text, ctx) == f


def test_round_trip_examples():
    ctx = VarContext(("z", "zb"), QQ_I)
    i = GaussianRational(0, 1)
    z = Poly.variable(ctx, "z")
    cases = [
        Poly.const(ctx, i),
        z.scale(-i),
        z.scale(GaussianRational(1, -2)),
        Poly.zero(ctx),
        Poly.const(ctx, GaussianRational("-3/4", 0)),
    ]
    for f in cases:
        assert parse_polynomial(poly_to_text(f), ctx) == f


# -- parse after print is the identity, on drawn polynomials -------------------

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    # no shrink phase: a failing example is reported as drawn, in seconds
    phases=(Phase.explicit, Phase.generate),
)
NAMES = ("q", "p", "zb1")
fractions = st.builds(Fraction, st.integers(-500, 500), st.integers(1, 40))
COEFFS = {QQ: fractions, QQ_I: st.builds(GaussianRational, fractions, fractions)}


def polys(field):
    monos = st.tuples(*[st.integers(0, 4)] * len(NAMES))
    return st.dictionaries(monos, COEFFS[field], max_size=6)


@PROPERTY
@given(st.sampled_from([QQ, QQ_I]).flatmap(lambda f: st.tuples(st.just(f), polys(f))))
def test_parse_after_print_is_identity(drawn):
    field, terms = drawn
    ctx = VarContext(NAMES, field)
    f = Poly(ctx, terms)
    text = poly_to_text(f)
    back = parse_polynomial(text, ctx)
    assert back == f and back.terms == f.terms
    assert poly_to_text(back) == text
