import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from redstar import runner
from redstar.poly import Poly, VarContext
from redstar.scalars import QQ, QQ_I, GaussianRational, Rational
from redstar.scenarios import REGISTRY_BUILDERS
from redstar.series import Series


def test_gaussian_basic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert i ** 4 == 1
    assert (2 + 3 * i).conjugate() == 2 - 3 * i


def test_gaussian_division():
    i = GaussianRational(0, 1)
    z = GaussianRational(3, 4)
    assert z / z == 1
    assert (1 / z) * z == 1
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_gaussian_canonical_fraction_parts():
    z = GaussianRational(Fraction(2, 4), Fraction(-6, 3))
    assert z.re == Fraction(1, 2) and z.im == -2
    assert z.re.denominator == 2 and z.re.numerator == 1


def test_field_axioms_random():
    # random algebraic identities, exact
    for field in (QQ, QQ_I):
        rng = random.Random(13)
        for _ in range(200):
            a = field.random(rng)
            b = field.random(rng)
            c = field.random(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero
            if b != field.zero:
                assert (a / b) * b == a
        assert field.coerce(1) * field.coerce(1) == field.one


def test_coercion_errors():
    with pytest.raises(TypeError):
        QQ.coerce(GaussianRational(0, 1))
    assert QQ.coerce(GaussianRational(3, 0)) == 3
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


# -- GaussianRational against a reference model: a pair of Fractions --------

MODEL = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    # no shrink phase: a failing example is reported as drawn, in seconds
    phases=(Phase.explicit, Phase.generate),
)
fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
gaussians = st.builds(GaussianRational, fractions, fractions)
reals = st.one_of(st.integers(-20, 20), fractions)


def model(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def m_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def m_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def m_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def m_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def agrees(z, pair):
    # exact type, canonical Fraction parts, and equality with the pair
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == pair
    assert z == GaussianRational(*pair)
    assert bool(z) == (pair != (0, 0))


@MODEL
@given(gaussians, st.one_of(gaussians, reals))
def test_gaussian_field_ops_match_model(z, w):
    mz, mw = model(z), model(w)
    agrees(z + w, m_add(mz, mw))
    agrees(w + z, m_add(mw, mz))
    agrees(z - w, m_sub(mz, mw))
    agrees(w - z, m_sub(mw, mz))
    agrees(z * w, m_mul(mz, mw))
    agrees(w * z, m_mul(mw, mz))
    agrees(-z, (-mz[0], -mz[1]))
    agrees(z.conjugate(), (mz[0], -mz[1]))
    if mw != (0, 0):
        agrees(z / w, m_div(mz, mw))
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
    if mz != (0, 0):
        agrees(w / z, m_div(mw, mz))
    else:
        with pytest.raises(ZeroDivisionError):
            w / z


@MODEL
@given(gaussians, st.integers(0, 6))
def test_gaussian_power_matches_model(z, n):
    expected = (Fraction(1), Fraction(0))
    for _ in range(n):
        expected = m_mul(expected, model(z))
    agrees(z**n, expected)


@MODEL
@given(fractions, fractions)
def test_gaussian_canonical_parts_and_hash(re, im):
    z = GaussianRational(re, im)
    assert (z.re, z.im) == (re, im)
    assert z.re.denominator == re.denominator and z.im.numerator == im.numerator
    assert z == GaussianRational(re, im) and hash(z) == hash(GaussianRational(re, im))
    assert repr(z) == f"GaussianRational({re!r}, {im!r})"
    real = GaussianRational(re)
    assert real == re and re == real and hash(real) == hash(re)
    if re.denominator == 1:
        assert real == re.numerator and re.numerator == real
        assert hash(real) == hash(re.numerator)
    assert (z == re) == (im == 0) and (z != re) == (im != 0)
    if im:  # the hash of a non-real value is that of its pair of parts
        assert hash(z) == hash((re, im))
    assert bool(z) == bool(re or im) and bool(real) == bool(re)
    with pytest.raises(AttributeError):
        z.re = 0


@MODEL
@given(gaussians, st.sampled_from([copy.copy, copy.deepcopy, pickle.dumps]))
def test_gaussian_copies_and_pickles_round_trip(z, how):
    back = pickle.loads(how(z)) if how is pickle.dumps else how(z)
    assert type(back) is GaussianRational
    assert back == z and hash(back) == hash(z)
    assert (back._a, back._b, back._d) == (z._a, z._b, z._d)


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, pickle.dumps])
def test_poly_and_series_over_gaussians_round_trip(how):
    ctx = VarContext(("z", "zb"), QQ_I)
    z, zb = Poly.variable(ctx, "z"), Poly.variable(ctx, "zb")
    p = z.scale(GaussianRational(Fraction(1, 2), -3)) + (z * zb).scale(GaussianRational(0, 1))
    p = p - Poly.const(ctx, 4)
    s = Series(ctx, 2, [p, p * p, zb], reliable=1)
    for x in (p, s):
        back = pickle.loads(how(x)) if how is pickle.dumps else how(x)
        assert type(back) is type(x) and back == x and hash(back) == hash(x)
    back = pickle.loads(how(s)) if how is pickle.dumps else how(s)
    assert back.reliable == 1 and back.order == 2


# -- Rational against a reference model: Fraction --------------------------------

rationals = st.builds(Rational, st.integers(-60, 60), st.integers(1, 12))


def as_fraction(x):
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    return Fraction(x)


def same(q, f):
    # exact type, lowest terms, and the value, hash and text of the Fraction
    assert type(q) is Rational
    assert (q.numerator, q.denominator) == (f.numerator, f.denominator)
    assert q == f and f == q and hash(q) == hash(f)
    assert str(q) == str(f)


@MODEL
@given(rationals, st.one_of(rationals, reals))
def test_rational_field_ops_match_fraction(q, x):
    f, g = as_fraction(q), as_fraction(x)
    same(q + x, f + g)
    same(x + q, g + f)
    same(q - x, f - g)
    same(x - q, g - f)
    same(q * x, f * g)
    same(x * q, g * f)
    same(-q, -f)
    for num, den, fnum, fden in ((q, x, f, g), (x, q, g, f)):
        if fden:
            same(num / den, fnum / fden)
        else:
            with pytest.raises(ZeroDivisionError):
                num / den


@MODEL
@given(rationals, st.integers(-5, 6))
def test_rational_power_matches_fraction(q, n):
    f = as_fraction(q)
    if f == 0 and n < 0:
        with pytest.raises(ZeroDivisionError):
            q**n
    else:
        same(q**n, f**n)


@MODEL
@given(rationals, st.one_of(rationals, reals))
def test_rational_comparisons_hash_and_text_match_fraction(q, x):
    f, g = as_fraction(q), as_fraction(x)
    assert (q == x, q != x, x == q, x != q) == (f == g, f != g, g == f, g != f)
    assert (q < x, q <= x, q > x, q >= x) == (f < g, f <= g, f > g, f >= g)
    assert (x < q, x <= q, x > q, x >= q) == (g < f, g <= f, g > f, g >= f)
    assert hash(q) == hash(f) and bool(q) == bool(f)
    if f.denominator == 1:
        assert q == f.numerator and hash(q) == hash(f.numerator)
    assert str(q) == str(f)
    assert repr(q) == f"Rational({f.numerator}, {f.denominator})" and eval(repr(q)) == q
    with pytest.raises(AttributeError):
        q._n = 0
    with pytest.raises(AttributeError):
        q.numerator = 0


@MODEL
@given(rationals, st.sampled_from([copy.copy, copy.deepcopy, pickle.dumps]))
def test_rational_copies_and_pickles_round_trip(q, how):
    back = pickle.loads(how(q)) if how is pickle.dumps else how(q)
    assert type(back) is Rational
    assert back == q and hash(back) == hash(q)
    assert (back.numerator, back.denominator) == (q.numerator, q.denominator)


def test_rational_construction_and_coercion():
    assert (Rational(3, -6).numerator, Rational(3, -6).denominator) == (-1, 2)
    assert Rational(Fraction(2, 4)) == Rational("3/6") == Fraction(1, 2)
    assert Rational(Rational(1, 2), Fraction(3, 4)) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    inputs = (2, True, Fraction(-3, 9), Rational(7, 3), GaussianRational(Fraction(1, 3)))
    values = (2, 1, Fraction(-1, 3), Fraction(7, 3), Fraction(1, 3))
    for x, value in zip(inputs, values):
        q = QQ.coerce(x)
        assert type(q) is Rational and q == value
    # text is parsed by the constructor, not coerced by either field
    for field in (QQ, QQ_I):
        with pytest.raises(TypeError):
            field.coerce("5/10")
    assert type(QQ.zero) is type(QQ.one) is type(QQ.random(random.Random(1))) is Rational
    # a Gaussian operand takes over the arithmetic
    z = Rational(1, 2) + GaussianRational(0, 1)
    assert type(z) is GaussianRational and z == GaussianRational(Fraction(1, 2), 1)
    assert QQ_I.coerce(Rational(1, 2)) == GaussianRational(Fraction(1, 2))


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, pickle.dumps])
def test_poly_and_series_over_rationals_round_trip(how):
    ctx = VarContext(("q", "p"), QQ)
    q, p = Poly.variable(ctx, "q"), Poly.variable(ctx, "p")
    f = q.scale(Fraction(1, 2)) + (q * p).scale(-3) - Poly.const(ctx, 4)
    s = Series(ctx, 2, [f, f * f, p], reliable=1)
    for x in (f, s):
        back = pickle.loads(how(x)) if how is pickle.dumps else how(x)
        assert type(back) is type(x) and back == x and hash(back) == hash(x)
    assert all(type(c) is Rational for c in pickle.loads(pickle.dumps(f)).terms.values())


def test_a_rational_run_stores_only_rational_coefficients(monkeypatch):
    # a Fraction coefficient would compute correctly, only slower: catch the leak
    kinds = set()
    original = Poly.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        kinds.update(type(c) for c in self.terms.values())

    monkeypatch.setattr(Poly, "__init__", recording_init)
    config = dataclasses.replace(REGISTRY_BUILDERS["commuting-n2"](), degree_bound=4)
    assert runner.run_scenario(config).verdict == "pass"
    assert kinds == {Rational}
