import random
from fractions import Fraction

import pytest

from redstar.errors import ContextError
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_poly
from redstar.scalars import QQ, QQ_I


def setup_qp():
    return poly_ring(("q", "p"))


def test_add_cancellation():
    ctx, (q, p) = setup_qp()
    assert (q + p) + (q - p) == q.scale(2)


def test_difference_of_squares():
    ctx, (q, p) = setup_qp()
    assert (q + p) * (q - p) == q * q - p * p


def test_scalar_distribution():
    ctx, (q, p) = setup_qp()
    lhs = (q * q + p.scale(2)).scale(Fraction(1, 2))
    assert lhs == q * q * Poly.const(ctx, Fraction(1, 2)) + p


def test_diff_power_rule():
    ctx, (q, p) = setup_qp()
    assert (q * q * p).diff("q") == (q * p).scale(2)
    assert (q * q).diff("p").is_zero()
    assert (q * p).diff("p").diff("q") == Poly.const(ctx, 1)


def test_context_mismatch():
    ctx1, (q, p) = setup_qp()
    ctx2, (x,) = poly_ring(("x",))
    with pytest.raises(ContextError):
        q + x


def test_ring_axioms_random():
    ctx, _ = setup_qp()
    rng = random.Random(5)
    for _ in range(60):
        f = random_poly(ctx, rng, 6, 4)
        g = random_poly(ctx, rng, 6, 4)
        h = random_poly(ctx, rng, 6, 4)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_grade_decomposition_reassembles():
    ctx = VarContext(("q", "p"), gradings=((1, 0), (0, 1)))
    rng = random.Random(6)
    for _ in range(30):
        f = random_poly(ctx, rng, 5, 5)
        parts = {}
        for m, c in f.terms.items():
            parts.setdefault(ctx.grade_of_mono(m), {})[m] = c
        total = Poly.zero(ctx)
        for g, terms in parts.items():
            comp = Poly(ctx, terms)
            assert comp.is_homogeneous()
            assert comp.grade() == g
            total = total + comp
        assert total == f


def test_grading_vectors():
    ctx = VarContext(("q", "p"), gradings=((2, -1),))
    m = (3, 1)
    assert ctx.grade_of_mono(m) == (4, 5)
    monos = ctx.monomials_of_grade((2, 4))
    assert monos == ((2, 0),)


def test_determinism_bit_identical():
    ctx, _ = setup_qp()
    rng1, rng2 = random.Random(9), random.Random(9)
    f1 = random_poly(ctx, rng1, 5, 6)
    f2 = random_poly(ctx, rng2, 5, 6)
    assert str(f1) == str(f2)
    assert f1.terms == f2.terms


def test_monomials_of_degree_order():
    ctx, _ = setup_qp()
    assert ctx.monomials_of_degree(2) == ((2, 0), (1, 1), (0, 2))


GRADED_CONTEXTS = {
    "ungraded": VarContext(("q", "p")),
    "one-row": VarContext(("q", "p"), gradings=((2, -1),)),
    # t2-c4: eight variables, two torus rows with negative weights, holomorphic row
    "t2-c4": VarContext(
        ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4"),
        gradings=(
            (-1, 0, 1, 0, 1, 0, -1, 0),
            (1, -1, 0, 1, -1, 1, 0, -1),
            (1, 1, 1, 1, -1, -1, -1, -1),
        ),
    ),
}


def brute_force_grade(ctx, grade):
    # the definition: filter every monomial of the degree by its grade vector
    if grade[0] < 0:
        return ()
    return tuple(m for m in ctx.monomials_of_degree(grade[0]) if ctx.grade_of_mono(m) == grade)


@pytest.mark.parametrize("name", sorted(GRADED_CONTEXTS))
def test_monomials_of_grade_matches_brute_force(name):
    ctx = GRADED_CONTEXTS[name]
    rows = len(ctx.gradings)
    for deg in range(7):
        grades = {ctx.grade_of_mono(m) for m in ctx.monomials_of_degree(deg)}
        assert set(ctx.grades_of_degree(deg)) == grades
        for grade in grades:
            monos = ctx.monomials_of_grade(grade)
            assert monos and monos == brute_force_grade(ctx, grade)
        if rows:  # a grade vector that no monomial of this degree has
            missing = (deg,) + (7 * deg + 1,) * rows
            assert missing not in grades
            assert ctx.monomials_of_grade(missing) == () == brute_force_grade(ctx, missing)
    assert ctx.monomials_of_grade((-1,) + (0,) * rows) == ()


@pytest.mark.parametrize("field", [QQ, QQ_I])
def test_scale_by_small_ints_matches_coerced_factor(field):
    ctx = VarContext(("x", "y"), field)
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    f = (x * y).scale(Fraction(3, 2)) - y.scale(5) + Poly.const(ctx, 7)
    for k in (1, -1, 0):
        assert f.scale(k) == f.scale(field.coerce(k))
    assert f.scale(1) is f
    assert Poly.zero(ctx).scale(-1).is_zero()
