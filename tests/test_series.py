import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from redstar.errors import (
    DivisibilityError,
    ReliabilityError,
    TruncationError,
)
from redstar.poly import Poly, poly_ring
from redstar.probes import random_poly
from redstar.series import Series, add_shifted


def setup():
    ctx, (q, p) = poly_ring(("q", "p"))
    return ctx, q, p


def test_mul_truncation_order2():
    ctx, q, p = setup()
    one = Series.const(ctx, 1, 2)
    nu_q = Series.nu(ctx, 2) * q
    a = one + nu_q
    b = one - nu_q
    prod = a * b
    expect = one - Series.nu(ctx, 2, 2) * (q * q)
    assert prod == expect


def test_mul_truncation_order1_drops_nu2():
    ctx, q, p = setup()
    one = Series.const(ctx, 1, 1)
    nu_q = Series.nu(ctx, 1) * q
    assert (one + nu_q) * (one - nu_q) == one


def test_add():
    ctx, q, p = setup()
    a = Series.from_poly(q, 3) + Series.nu(ctx, 3) * p
    b = Series.from_poly(p, 3) - Series.nu(ctx, 3) * p
    assert a + b == Series.from_poly(q + p, 3)


def test_order_mismatch():
    ctx, q, p = setup()
    with pytest.raises(TruncationError):
        Series.from_poly(q, 2) + Series.from_poly(p, 3)


def test_div_nu_shift():
    ctx, q, p = setup()
    s = Series.nu(ctx, 3) * q + Series.nu(ctx, 3, 2) * p
    d = s.div_nu()
    assert d.coefficient(0) == q and d.coefficient(1) == p
    assert d.reliable == 2  # one order lost


def test_div_nu_error():
    ctx, q, p = setup()
    with pytest.raises(DivisibilityError):
        (Series.from_poly(q, 3) + Series.nu(ctx, 3) * p).div_nu()


def test_div_nu_inverts_shift():
    ctx, q, p = setup()
    rng = random.Random(3)
    for _ in range(20):
        a = Series(ctx, 4, [random_poly(ctx, rng, 3, 3) for _ in range(5)])
        assert (a.shift_nu(1).div_nu() - a).is_zero(upto=3)


def test_reliability_guard():
    ctx, q, p = setup()
    a = Series.from_poly(q, 4).shift_nu(1).div_nu()  # reliable 3
    with pytest.raises(ReliabilityError):
        a.is_zero(upto=4)
    assert not a.is_zero(upto=3)


def test_zero_test_at_negative_order_raises():
    ctx, q, p = setup()
    with pytest.raises(ReliabilityError):
        Series(ctx, 1, [q, q], reliable=-1).is_zero()
    a = Series.from_poly(q, 2) + Series.nu(ctx, 2) * p
    with pytest.raises(ReliabilityError):
        a.is_zero(upto=-1)
    # nothing reliable is left after dividing by nu once more than the order
    b = Series.nu(ctx, 1) * q
    b = b.div_nu().shift_nu(1).div_nu()
    assert b.reliable == -1
    with pytest.raises(ReliabilityError):
        b.is_zero()


def test_truncation_is_ring_hom():
    ctx, _, _ = setup()
    rng = random.Random(8)
    for _ in range(25):
        a = Series(ctx, 4, [random_poly(ctx, rng, 3, 3) for _ in range(5)])
        b = Series(ctx, 4, [random_poly(ctx, rng, 3, 3) for _ in range(5)])
        assert (a * b).truncate(2) == a.truncate(2) * b.truncate(2)
        assert (a + b).truncate(2) == a.truncate(2) + b.truncate(2)


def test_neumann_invertibility():
    # (1 + T) * sum_k (-T)^k = 1 modulo nu^{N+1} for T with zero classical part
    ctx, q, p = setup()
    rng = random.Random(11)
    n = 4
    for _ in range(10):
        t = Series(ctx, n, [random_poly(ctx, rng, 3, 3) for _ in range(n + 1)]).shift_nu(1)
        one = Series.const(ctx, 1, n)
        inv = one
        term = one
        for _ in range(n):
            term = -(t * term)
            inv = inv + term
        assert (one + t) * inv == one


def test_poly_like_behavior_of_constant_series():
    ctx, q, p = setup()
    s = Series.from_poly(q, 3)
    assert all(c.is_zero() for c in s.coeffs[1:])
    assert (s * p).classical() == q * p
    assert s.classical() == q


# -- ring laws, with the min rule for reliable orders ---------------------------

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    # no shrink phase: a failing example is reported as drawn, in seconds
    phases=(Phase.explicit, Phase.generate),
)
LAW_CTX = poly_ring(("q", "p"))[0]
LAW_ORDER = 2
_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_polys = st.builds(
    lambda terms: Poly(LAW_CTX, terms),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _coeffs, max_size=3),
)
series = st.builds(
    lambda coeffs, reliable: Series(LAW_CTX, LAW_ORDER, coeffs, reliable),
    st.lists(_polys, min_size=LAW_ORDER + 1, max_size=LAW_ORDER + 1),
    st.integers(-1, LAW_ORDER),
)


def same(x, y, reliable):
    assert x == y
    assert x.reliable == y.reliable == reliable


@PROPERTY
@given(series, series, series)
def test_series_ring_laws_and_min_reliable(a, b, c):
    low = min(a.reliable, b.reliable, c.reliable)
    same((a + b) + c, a + (b + c), low)
    same((a * b) * c, a * (b * c), low)
    same(a * (b + c), a * b + a * c, low)
    same((a + b) * c, a * c + b * c, low)
    same(a + b, b + a, min(a.reliable, b.reliable))
    same(a * b, b * a, min(a.reliable, b.reliable))
    same(a - a, a.scale(0), a.reliable)



def slot_setup():
    """The context, the monomials of q and p, and the field's coercion."""
    ctx, q, p = setup()
    (mq,), (mp,) = q.terms, p.terms
    return ctx, mq, mp, ctx.field.coerce


def test_from_slots_drops_zero_values_and_keeps_reliable():
    ctx, mq, mp, r = slot_setup()
    s = Series.from_slots(ctx, 2, [{mq: r(3), mp: r(0)}, {}, {mp: r(-1)}], 1)
    q, p = Poly.monomial(ctx, mq), Poly.monomial(ctx, mp)
    assert s == Series(ctx, 2, [q.scale(3), Poly.zero(ctx), -p])
    assert s.coeffs[0].terms == {mq: r(3)}
    assert s.reliable == 1
    assert Series.from_slots(ctx, 2, [{}] * 3, 5).reliable == 2  # capped at the order
    assert Series.from_slots(ctx, 2, [{}] * 3).reliable == 2


def test_from_slots_of_zero_slots_is_a_zero_series():
    ctx, mq, mp, r = slot_setup()
    s = Series.from_slots(ctx, 1, [{mq: r(0)}, {mq: r(0), mp: r(0)}], 0)
    assert s == Series.zero(ctx, 1)
    assert all(not c.terms for c in s.coeffs)
    assert s.reliable == 0


def test_add_shifted_moves_slots_up_and_truncates():
    ctx, mq, mp, r = slot_setup()
    source = [{mq: r(1)}, {mp: r(2), mq: r(0)}, {mq: r(5)}]
    target = [{mq: r(1)}, {mq: r(-3)}, {}]
    add_shifted(target, source, 1, r(3))
    # source slot j lands in target slot j + 1; its top slot falls off the end
    assert target == [{mq: r(1)}, {mq: r(0)}, {mp: r(6)}]
    add_shifted(target, source, 3, r(1))  # shifted past the end entirely
    assert target == [{mq: r(1)}, {mq: r(0)}, {mp: r(6)}]


def test_add_shifted_at_weight_zero_adds_nothing():
    ctx, mq, mp, r = slot_setup()
    source = [{mq: r(4)}, {mq: r(1)}]
    target = [{}, {}]
    add_shifted(target, source, 0, r(0))
    assert target == [{}, {}]
    add_shifted(target, source, 0, r(Fraction(1, 2)))
    assert target == [{mq: r(2)}, {mq: r(Fraction(1, 2))}]
