import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from redstar.errors import ContextError, ShapeError
from redstar.koszul import MomentMapData
from redstar.poisson import (
    check_quantum_covariance,
    check_strong_invariance,
    moyal_commutator,
    moyal_star,
    moyal_star_series,
    moyal_term,
    poisson_bracket,
    poisson_data,
    star_pass,
)
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_poly
from redstar.scalars import QQ, QQ_I, GaussianRational
from redstar.series import Series
from redstar.superalg import LieAlgebraData


def canonical_qp():
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    return ctx, q, p, lam


def test_canonical_pair():
    ctx, q, p, lam = canonical_qp()
    assert poisson_bracket(q, p, lam) == Poly.const(ctx, 1)


def test_leibniz_example():
    ctx, q, p, lam = canonical_qp()
    assert poisson_bracket(q * q, p, lam) == q.scale(2)


# -- bivector validation ------------------------------------------------------


def test_diagonal_entry_is_not_antisymmetric():
    ctx, _ = poly_ring(("q", "p"))
    with pytest.raises(ShapeError, match="antisymmetric"):
        poisson_data(ctx, [("q", "p", 1), ("q", "q", 1)])


def test_degenerate_bivector_is_not_invertible():
    ctx, _ = poly_ring(("q1", "p1", "q2", "p2"))
    with pytest.raises(ShapeError, match="invertible"):
        poisson_data(ctx, [("q1", "p1", 1)])
    with pytest.raises(ShapeError, match="invertible"):
        poisson_data(ctx, [("q1", "p1", 1), ("q2", "p2", 1), ("q1", "q2", 1), ("p1", "p2", 1)])


@pytest.mark.parametrize("later", [("q", "p", 3), ("p", "q", -3)])
def test_later_entry_for_a_pair_replaces_the_earlier(later):
    ctx, _ = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("p", "q", 5), later])
    assert lam.entries == ((0, 1, 3), (1, 0, -3))
    assert lam.half_entries == ((0, 1, Fraction(3, 2)), (1, 0, Fraction(-3, 2)))


def test_zero_value_leaves_no_entry():
    ctx, _ = poly_ring(("q1", "p1", "q2", "p2"))
    lam = poisson_data(
        ctx, [("q1", "p1", 1), ("q2", "p2", 1), ("q1", "q2", 0), ("p1", "p2", 7), ("p2", "p1", 0)]
    )
    assert lam.entries == ((0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1))


def commuting_n2():
    pairs = [(1, 1), (1, 2), (2, 2)]
    names = [f"q{i}{j}" for i, j in pairs] + [f"p{i}{j}" for i, j in pairs]
    ctx = VarContext(tuple(names))
    lam = poisson_data(
        ctx,
        [(f"q{i}{j}", f"p{i}{j}", Fraction(1) if i == j else Fraction(1, 2)) for i, j in pairs],
    )

    def qv(i, j):
        i, j = min(i, j), max(i, j)
        return Poly.variable(ctx, f"q{i}{j}")

    def pv(i, j):
        i, j = min(i, j), max(i, j)
        return Poly.variable(ctx, f"p{i}{j}")

    def entry(r, c):
        out = Poly.zero(ctx)
        for k in (1, 2):
            out = out + qv(r, k) * pv(k, c) - pv(r, k) * qv(k, c)
        return out

    return ctx, lam, entry(1, 2).scale(2)


def test_commuting_variety_equivariance():
    # one so(2) component: {J, J} = 0 and J is honestly quadratic
    ctx, lam, J = commuting_n2()
    assert poisson_bracket(J, J, lam).is_zero()
    assert J.degree() == 2


def test_bracket_axioms_random():
    ctx, q, p, lam = canonical_qp()
    rng = random.Random(17)
    for _ in range(25):
        f = random_poly(ctx, rng, 4, 3)
        g = random_poly(ctx, rng, 4, 3)
        h = random_poly(ctx, rng, 4, 3)
        assert poisson_bracket(f, g, lam) == -poisson_bracket(g, f, lam)
        assert poisson_bracket(f, g * h, lam) == (
            poisson_bracket(f, g, lam) * h + g * poisson_bracket(f, h, lam)
        )
        jac = (
            poisson_bracket(f, poisson_bracket(g, h, lam), lam)
            + poisson_bracket(g, poisson_bracket(h, f, lam), lam)
            + poisson_bracket(h, poisson_bracket(f, g, lam), lam)
        )
        assert jac.is_zero()


def test_moyal_first_order():
    ctx, q, p, lam = canonical_qp()
    s = moyal_star(q, p, lam, 2)
    assert s.coefficient(0) == q * p
    assert s.coefficient(1) == Poly.const(ctx, Fraction(1, 2))
    assert s.coefficient(2).is_zero()


def test_moyal_q2_p2():
    # frozen by hand: the k-th term is (1/2^k k!) * (d_q^k q^2)(d_p^k p^2)
    ctx, q, p, lam = canonical_qp()
    s = moyal_star(q * q, p * p, lam, 3)
    assert s.coefficient(0) == q * q * p * p
    assert s.coefficient(1) == (q * p).scale(2)
    assert s.coefficient(2) == Poly.const(ctx, Fraction(1, 2))
    assert s.coefficient(3).is_zero()


def test_moyal_unit():
    ctx, q, p, lam = canonical_qp()
    rng = random.Random(2)
    one = Poly.const(ctx, 1)
    for _ in range(10):
        f = random_poly(ctx, rng, 5, 4)
        assert moyal_star(f, one, lam, 4) == Series.from_poly(f, 4)
        assert moyal_star(one, f, lam, 4) == Series.from_poly(f, 4)


def test_moyal_associativity_random():
    ctx, q, p, lam = canonical_qp()
    rng = random.Random(3)
    from redstar.poisson import moyal_star_series

    for _ in range(15):
        f = Series.from_poly(random_poly(ctx, rng, 5, 3), 4)
        g = Series.from_poly(random_poly(ctx, rng, 5, 3), 4)
        h = Series.from_poly(random_poly(ctx, rng, 5, 3), 4)
        lhs = moyal_star_series(moyal_star_series(f, g, lam), h, lam)
        rhs = moyal_star_series(f, moyal_star_series(g, h, lam), lam)
        assert lhs == rhs


def test_commutator_bracket_compatibility():
    ctx, q, p, lam = canonical_qp()
    rng = random.Random(4)
    for _ in range(15):
        f = random_poly(ctx, rng, 4, 3)
        g = random_poly(ctx, rng, 4, 3)
        comm = moyal_commutator(f, g, lam, 4)
        assert comm.coefficient(0).is_zero()
        assert comm.coefficient(1) == poisson_bracket(f, g, lam)


def test_quantum_covariance_abelian():
    ctx, lam, J = commuting_n2()
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (J,), lie)
    out = check_quantum_covariance(moment, lam, 4)
    assert all(r.is_zero() for _, r in out)


def test_quantum_covariance_negative_control():
    # corrupt one component of a two-torus moment map with a cubic term
    names = ("x1", "y1", "x2", "y2")
    ctx = VarContext(names)
    lam = poisson_data(ctx, [("x1", "y1", 1), ("x2", "y2", 1)])
    v = lambda n: Poly.variable(ctx, n)
    j1 = v("x1") * v("y1")
    j2 = v("x2") * v("y2") + v("x1") ** 3
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (j1, j2), lie)
    out = check_quantum_covariance(moment, lam, 4)
    failures = [r for _, r in out if not r.is_zero()]
    assert failures
    assert failures[0].nonzero_term_count() > 0


def test_strong_invariance_quadratic():
    ctx, lam, J = commuting_n2()
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (J,), lie)
    rng = random.Random(12)
    probes = [Poly.const(ctx, 1)] + [random_poly(ctx, rng, 4, 3) for _ in range(8)]
    out = check_strong_invariance(moment, lam, 4, probes)
    assert all(r.is_zero() for _, r in out)


def test_strong_invariance_cubic_fails_at_nu3():
    ctx, q, p, lam = canonical_qp()
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q ** 3,), lie)
    probes = [p ** 3]
    out = check_strong_invariance(moment, lam, 4, probes)
    failures = [r for _, r in out if not r.is_zero()]
    assert failures
    bad = failures[0]
    assert bad.coefficient(1).is_zero() and bad.coefficient(2).is_zero()
    assert not bad.coefficient(3).is_zero()


# -- the Moyal kernel against the defining enumeration ----------------------


def reference_term(f, g, lam, k):
    """k-th Moyal coefficient from the definition: a sum over multisets of k
    bivector entries of prod L_e / prod mult_e! times iterated derivatives."""
    out = Poly.zero(f.ctx)
    if k > min(f.degree(), g.degree()):
        return out
    entries = lam.entries
    for combo in combinations_with_replacement(range(len(entries)), k):
        df, dg, coeff = f, g, f.ctx.field.one
        for idx in combo:
            a, b, v = entries[idx]
            df, dg, coeff = df.diff(a), dg.diff(b), coeff * v
            if df.is_zero() or dg.is_zero():
                break
        mult = prod(factorial(combo.count(e)) for e in set(combo))
        out = out + (df * dg).scale(coeff * Fraction(1, mult))
    return out


def reference_bracket(f, g, lam):
    """{f, g} from the definition: one derivative pair per bivector entry."""
    out = Poly.zero(f.ctx)
    for a, b, v in lam.entries:
        df = f.diff(a)
        if df.is_zero():
            continue
        dg = g.diff(b)
        if dg.is_zero():
            continue
        out = out + (df * dg).scale(v)
    return out


def reference_series(a, b, lam):
    n = a.order
    out = [Poly.zero(a.ctx)] * (n + 1)
    for i, ci in enumerate(a.coeffs):
        for j, cj in enumerate(b.coeffs):
            for k in range(n + 1 - i - j):
                term = reference_term(ci, cj, lam, k).scale(Fraction(1, 2**k))
                out[i + j + k] = out[i + j + k] + term
    return Series(a.ctx, n, out)


def non_darboux(field, values):
    # rows with several nonzero entries; Pfaffian L12 L34 - L13 L24 + L14 L23
    ctx = VarContext(("x1", "x2", "x3", "x4"), field)
    pairs = [("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x2", "x4"), ("x3", "x4")]
    return ctx, poisson_data(ctx, [(a, b, v) for (a, b), v in zip(pairs, values)])


def s1_c4_pairs():
    names = tuple(f"z{k}" for k in range(1, 5)) + tuple(f"zb{k}" for k in range(1, 5))
    ctx = VarContext(names, QQ_I)
    two_i = GaussianRational(0, 2)
    return ctx, poisson_data(ctx, [(f"z{k}", f"zb{k}", two_i) for k in range(1, 5)])


BIVECTORS = {
    "non-darboux-rational": lambda: non_darboux(QQ, [1, 2, 1, -1, Fraction(1, 3)]),
    "non-darboux-gaussian": lambda: non_darboux(
        QQ_I,
        [
            GaussianRational(0, 1),
            GaussianRational(2, -1),
            GaussianRational(Fraction(1, 2)),
            GaussianRational(-1, 3),
            GaussianRational(1, 1),
        ],
    ),
    "s1-c4-gaussian": s1_c4_pairs,
}


def polys(ctx, min_terms=0):
    nonzero = st.integers(-4, 4).filter(bool)
    coeff = st.builds(Fraction, nonzero, st.integers(1, 3))
    if ctx.field == QQ_I:
        coeff = st.builds(GaussianRational, coeff, st.integers(-3, 3))
    mono = st.lists(st.integers(0, ctx.nvars - 1), max_size=4).map(
        lambda idx: tuple(idx.count(i) for i in range(ctx.nvars))
    )
    return st.dictionaries(mono, coeff, min_size=min_terms, max_size=3).map(
        lambda terms: Poly(ctx, terms)
    )


def series(ctx, order, min_terms=0):
    """Series with a drawn reliable order, so products must take the minimum."""
    slots = st.lists(polys(ctx, min_terms), min_size=order + 1, max_size=order + 1)
    return st.builds(
        lambda cs, reliable: Series(ctx, order, cs, reliable), slots, st.integers(0, order)
    )


ORACLE = settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    # no shrink phase: a failing example is reported as drawn, in seconds
    phases=(Phase.explicit, Phase.generate),
)


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("case", sorted(BIVECTORS))
@ORACLE
@given(data=st.data())
def test_moyal_star_and_term_match_reference(case, order, data):
    ctx, lam = BIVECTORS[case]()
    f, g = data.draw(polys(ctx)), data.draw(polys(ctx))
    terms = [reference_term(f, g, lam, k) for k in range(order + 1)]
    scaled = [t.scale(Fraction(1, 2**k)) for k, t in enumerate(terms)]
    expected = Series(ctx, order, scaled)
    assert moyal_star(f, g, lam, order) == expected
    for k, t in enumerate(terms):
        assert moyal_term(f, g, lam, k) == t
    assert moyal_star_series(f, g, lam, order) == expected


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("case", sorted(BIVECTORS))
@ORACLE
@given(data=st.data())
def test_moyal_star_series_matches_reference(case, order, data):
    # every slot of a is nonzero, so the higher nu-slots all take part;
    # the bracket and both products come from one pass, by
    # M_k(g, f) = (-1)^k M_k(f, g)
    ctx, lam = BIVECTORS[case]()
    a = data.draw(series(ctx, order, min_terms=1))
    b = data.draw(series(ctx, order))
    ab, ba = reference_series(a, b, lam), reference_series(b, a, lam)

    def bracket(x, y):  # the odd leaves alone, twice, as the star-commutator action runs them
        odd = [{} for _ in range(order + 1)]
        star_pass(x, y, lam, [None] * (order + 1), odd, n=2)
        return Series.from_slots(ctx, order, odd, min(x.reliable, y.reliable))

    got = {
        "star(a, b)": (moyal_star_series(a, b, lam), ab),
        "star(b, a)": (moyal_star_series(b, a, lam), ba),
        "bracket(a, b)": (bracket(a, b), ab - ba),
        "bracket(b, a)": (bracket(b, a), ba - ab),
    }
    for key, (value, want) in got.items():
        assert value == want, key
        assert value.reliable == min(a.reliable, b.reliable), key
    for x, y, xy, yx in ((a, b, ab, ba), (b, a, ba, ab)):
        even, odd = [{} for _ in range(order + 1)], [{} for _ in range(order + 1)]
        star_pass(x, y, lam, even, odd)
        even, odd = (
            Series(ctx, order, [Poly(ctx, t) for t in slots]) for slots in (even, odd)
        )
        assert even + odd == xy
        assert even - odd == yx


@pytest.mark.parametrize("case", sorted(BIVECTORS))
@ORACLE
@given(data=st.data())
def test_poisson_bracket_matches_reference(case, data):
    # full weights L_e: the bracket is the k = 1 kernel term, not its half
    ctx, lam = BIVECTORS[case]()
    f, g = data.draw(polys(ctx, 1)), data.draw(polys(ctx, 1))
    assert poisson_bracket(f, g, lam) == reference_bracket(f, g, lam)
    assert poisson_bracket(f, g, lam) == moyal_term(f, g, lam, 1)


def test_moyal_star_series_of_two_polys_needs_an_order():
    ctx, q, p, lam = canonical_qp()
    with pytest.raises(ContextError, match="order"):
        moyal_star_series(q, p, lam)
    assert moyal_star_series(q, p, lam, 2) == moyal_star(q, p, lam, 2)
