import functools
import random
from fractions import Fraction
from itertools import combinations
from collections import Counter
from math import factorial

import pytest

from redstar import poisson
from redstar.errors import DivisibilityError, ReliabilityError
from redstar.poisson import moyal_star, moyal_star_series, poisson_bracket, poisson_data
from redstar.poly import Poly, poly_ring
from redstar.probes import random_bounded_super, random_poly
from redstar.quantum import star_action
from redstar.runner import RunState, stage_load
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import (
    CoefficientMap,
    LieAlgebraData,
    OperatorHandle,
    Piece,
    StarProduct,
    SuperElement,
    _merge_terms,
    _remove_antighost,
    _remove_ghost,
    graded_poisson,
    _write_scaled,
    op_columns,
    op_sum,
    right_star,
    super_mul,
    times,
)

DIM = 3
N = 3
ZEROS = (0,) * DIM  # no moment map: no antighost degree offsets


def setup():
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    return ctx, q, p, lam


def gen(ctx, g=(), a=(), c=1):
    return SuperElement(ctx, DIM, N, {(g, a): Series.const(ctx, c, N)})


def derivation(remove, a):
    """i^a (remove = _remove_antighost) or i_a (_remove_ghost), as a one-piece op_sum."""
    return op_sum(f"i{a}", 1 if remove is _remove_antighost else -1, [Piece(((remove, a),))])


def acting(action, j):
    """The coefficient action (j, .) of `action` as a one-piece op_sum handle."""
    return op_sum("act", 0, [action(j)])


def test_odd_odd_anticommute():
    ctx, q, p, lam = setup()
    e1, e2 = gen(ctx, g=(1,)), gen(ctx, g=(2,))
    assert super_mul(e1, e2) == gen(ctx, g=(1, 2))
    assert super_mul(e2, e1) == gen(ctx, g=(1, 2), c=-1)


def test_odd_square_zero():
    ctx, q, p, lam = setup()
    e1 = gen(ctx, g=(1,))
    assert super_mul(e1, e1).is_zero()


def test_coefficientwise_product():
    ctx, q, p, lam = setup()
    x = SuperElement(ctx, DIM, N, {((), (1,)): Series.from_poly(q, N)})
    y = SuperElement(ctx, DIM, N, {((2,), ()): Series.from_poly(p, N)})
    prod = super_mul(x, y)
    # e_1 e^2 reorders to -e^2 e_1
    assert prod == SuperElement(ctx, DIM, N, {((2,), (1,)): Series.from_poly(-(q * p), N)})


def test_dual_pairing_derivations():
    ctx, q, p, lam = setup()
    e_12 = gen(ctx, a=(1, 2))
    i_up = derivation(_remove_antighost, 1)
    assert i_up(e_12) == gen(ctx, a=(2,))
    assert i_up(gen(ctx, a=(2,))).is_zero()
    # i_2(e^1 e^2) = -e^1 (the derivation passes e^1 first)
    assert derivation(_remove_ghost, 2)(gen(ctx, g=(1, 2))) == gen(ctx, g=(1,), c=-1)


def test_derivation_leibniz_random():
    ctx, q, p, lam = setup()
    rng = random.Random(7)
    for _ in range(20):
        x = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2)
        y = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2)
        for a in (1, 2):
            i_up = derivation(_remove_antighost, a)
            lhs = i_up(super_mul(x, y))
            rhs = SuperElement.zero(ctx, DIM, N)
            for par, xpart in zip((0, 1), x.parity_components()):
                term = super_mul(i_up(xpart), y)
                term = term + super_mul(xpart, i_up(y)).scale((-1) ** par)
                rhs = rhs + term
            assert (lhs - rhs).is_zero()


def test_clifford_unit_and_no_pairing():
    # the Moyal part of a product with a constant factor is the plain product
    ctx, q, p, lam = setup()
    star = StarProduct(lam).star
    x = random_bounded_super(ctx, DIM, N, random.Random(1), 2, ZEROS, 3)
    one = SuperElement.from_poly(Poly.const(ctx, 1), DIM, N)
    assert star(one, x) == x
    assert star(x, one) == x
    # no pairing between distinct indices
    e_1, e2 = gen(ctx, a=(1,)), gen(ctx, g=(2,))
    assert star(e_1, e2) == super_mul(e_1, e2)


def test_clifford_pairing_value():
    # e_1 . e^1 = e_1 e^1 + 2 nu; the +2 is pinned by the associativity
    # and splitting suites (see the quantum tests)
    ctx, q, p, lam = setup()
    star = StarProduct(lam).star
    e_1, e1 = gen(ctx, a=(1,)), gen(ctx, g=(1,))
    prod = star(e_1, e1)
    expect = super_mul(e_1, e1) + SuperElement(
        ctx, DIM, N, {((), ()): Series.nu(ctx, N).scale(2)}
    )
    assert prod == expect
    # and e^1 . e_1 carries no pairing term
    assert star(e1, e_1) == super_mul(e1, e_1)


def test_clifford_associativity_on_pairing_triples():
    ctx, q, p, lam = setup()
    star = StarProduct(lam).star
    e_1, e1 = gen(ctx, a=(1,)), gen(ctx, g=(1,))
    lhs = star(star(e_1, e1), e_1)
    rhs = star(e_1, star(e1, e_1))
    assert lhs == rhs


def test_super_star_reductions():
    ctx, q, p, lam = setup()
    star = StarProduct(lam)
    # ghost-free: delegates to the Moyal product
    sq = star.star(SuperElement.from_poly(q, DIM, N), SuperElement.from_poly(p, DIM, N))
    assert sq.as_series() == moyal_star(q, p, lam, N)


def test_super_star_associativity_mixed():
    ctx, q, p, lam = setup()
    star = StarProduct(lam)
    rng = random.Random(5)
    for _ in range(40):
        x = random_bounded_super(ctx, DIM, N, rng, 3, ZEROS, 2)
        y = random_bounded_super(ctx, DIM, N, rng, 3, ZEROS, 2)
        z = random_bounded_super(ctx, DIM, N, rng, 3, ZEROS, 2)
        assert (star.star(star.star(x, y), z) - star.star(x, star.star(y, z))).is_zero()


def test_star_nu0_is_super_mul():
    ctx, q, p, lam = setup()
    star = StarProduct(lam)
    rng = random.Random(6)
    for _ in range(15):
        x = random_bounded_super(ctx, DIM, N, rng, 3, ZEROS, 2)
        y = random_bounded_super(ctx, DIM, N, rng, 3, ZEROS, 2)
        assert (star.star(x, y).classical_part() - super_mul(x, y).classical_part()).is_zero()


def test_bracket_pairing_and_centrality():
    ctx, q, p, lam = setup()
    e1, e_1 = gen(ctx, g=(1,)), gen(ctx, a=(1,))
    two = SuperElement.from_poly(Poly.const(ctx, 2), DIM, N)
    # ghosts pair with antighosts at strength 2 in this convention: the
    # normalization under which D = delta + 2*koszul holds exactly
    assert graded_poisson(e1, e_1, lam) == two
    assert graded_poisson(e_1, e1, lam) == two
    qel = SuperElement.from_poly(q, DIM, N)
    assert graded_poisson(qel, e_1, lam).is_zero()
    assert graded_poisson(qel, e1, lam).is_zero()


def test_bracket_is_first_order_star_commutator_even():
    ctx, q, p, lam = setup()
    star = StarProduct(lam)
    rng = random.Random(9)
    for _ in range(20):
        x = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2)
        y = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2)
        xe, _ = x.parity_components()
        ye, _ = y.parity_components()
        comm = star.star(xe, ye) - star.star(ye, xe)
        br = graded_poisson(xe, ye, lam)
        # x*y - y*x = nu {x, y} + O(nu^2) on even elements
        diff = comm - br.shift_nu(1)
        assert diff.classical_part().is_zero()
        assert all(c.coefficient(1).is_zero() for c in diff.terms.values())


def test_graded_jacobi_random():
    ctx, q, p, lam = setup()
    rng = random.Random(10)
    for _ in range(12):
        xs = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2).parity_components()
        ys = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2).parity_components()
        z = random_bounded_super(ctx, DIM, N, rng, 2, ZEROS, 2)
        for px, x in zip((0, 1), xs):
            for py, y in zip((0, 1), ys):
                lhs = graded_poisson(x, graded_poisson(y, z, lam), lam)
                rhs = graded_poisson(graded_poisson(x, y, lam), z, lam) + graded_poisson(
                    y, graded_poisson(x, z, lam), lam
                ).scale((-1) ** (px * py))
                assert (lhs - rhs).is_zero()


def test_abelian_charge_bracket_vanishes():
    # theta = J e^1 for a single quadratic constraint: {theta, theta} = 0
    ctx, q, p, lam = setup()
    theta = SuperElement(ctx, DIM, N, {((1,), ()): Series.from_poly(q * q, N)})
    assert graded_poisson(theta, theta, lam).is_zero()


def test_lie_data_validation():
    eps = []
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                v = (a - b) * (b - c) * (c - a) // 2
                if v and a < b:
                    eps.append((a, b, c, v))
    lie = LieAlgebraData.build(3, eps)
    assert not lie.abelian
    assert lie.unimodular
    ab = LieAlgebraData.build(2)
    assert ab.abelian and ab.unimodular


def test_vanished_terms_keep_their_reliable_order():
    # q - q vanishes, but the first q is reliable only to order 1: the
    # Series difference refuses a zero test to order 2, and so does every
    # element in which such a term vanished
    ctx, q, p, lam = setup()
    s1 = Series(ctx, 2, [Poly.zero(ctx), q, Poly.zero(ctx)]).div_nu()
    s2 = Series.from_poly(q, 2)
    with pytest.raises(ReliabilityError):
        (s1 - s2).is_zero(2)
    one, e1, e2 = ((), ()), ((1,), ()), ((2,), ())
    x, y = (SuperElement(ctx, DIM, 2, {one: s}) for s in (s1, s2))
    # nu x times nu^2 p truncates to zero at order 2
    late = (x.shift_nu(1), SuperElement.from_poly(p, DIM, 2).shift_nu(2))

    def to_one(z):  # every term summed under the key 1
        total = sum(z.terms.values(), Series.zero(ctx, z.order))
        return SuperElement(ctx, DIM, z.order, {one: total})

    vanished = {
        "add": x - y,
        "constructor": SuperElement(ctx, DIM, 2, {one: s1 - s2}),
        "map_terms": x.scale(0),
        "star, truncated": StarProduct(lam).star(*late),
        "op_columns": op_columns(OperatorHandle("to 1", to_one))(
            SuperElement(ctx, DIM, 2, {e1: s1, e2: -s2})
        ),
        "commutator": StarProduct(lam).commutator(x, y),
        "commutator, truncated": StarProduct(lam).commutator(*late),
    }
    for site, z in vanished.items():
        assert not z.terms and z.reliable == 1, site
        assert z.is_zero(1), site
        with pytest.raises(ReliabilityError):
            z.is_zero(2)
    # each termwise map moves the floor as it moves the vanished Series
    z, zero, jser = x - y, s1 - s2, Series.from_poly(q, 2)
    star = StarProduct(lam)
    mapped = {
        "neg": (-z, -zero),
        "scale": (z.scale(3), zero.scale(3)),
        "shift_nu": (z.shift_nu(1), zero.shift_nu(1)),
        "div_nu": (z.div_nu(), zero.div_nu()),
        "truncate": (z.truncate(0), zero.truncate(0)),
        "star_right_multiply": (
            op_sum("*q", 0, [Piece(coeff=right_star(q, lam))])(z),
            moyal_star_series(zero, jser, lam),
        ),
        "star_action": (
            acting(star_action(star), q)(z),
            (moyal_star_series(jser, zero, lam) - moyal_star_series(zero, jser, lam)).div_nu(),
        ),
    }
    for name, (got, want) in mapped.items():
        assert not got.terms and got.reliable == want.reliable, name
    # the scalar part of a ghost-free element keeps its floor
    assert z.as_series().reliable == 1
    with pytest.raises(ReliabilityError):
        z.as_series().is_zero(2)


def test_op_sum_skips_only_exactly_zero_pieces():
    # a piece's coefficient map runs on every term its path and monomial
    # keep, never on a key they kill; an image that vanishes leaves its
    # floor; and the sum starts at the input's floor
    ctx, q, p, lam = setup()
    calls = []

    def write(c, n, slots):
        calls.append(c)
        _write_scaled(c, n, slots)

    record = CoefficientMap(write)
    op = op_sum("2 (i_1 + i_2)", -1, [Piece(((_remove_ghost, a),), scalar=2, coeff=record) for a in (1, 2)])
    out = op(SuperElement(ctx, DIM, 2, {((1,), ()): Series.const(ctx, 1, 2)}))
    assert out == SuperElement(ctx, DIM, 2, {((), ()): Series.const(ctx, 2, 2)}) and out.floor is None
    assert len(calls) == 1
    # q / nu is reliable only to 1: a map that writes nothing, and two
    # entries that cancel, each leave that floor on an image without terms
    s1 = Series(ctx, 2, [Poly.zero(ctx), q, Poly.zero(ctx)]).div_nu()
    e1, e2 = ((1,), ()), ((2,), ())
    x = SuperElement(ctx, DIM, 2, {e1: s1})
    nothing = CoefficientMap(lambda c, n, slots: None)
    vanished = {
        "map": op_sum("0 i_1", -1, [Piece(((_remove_ghost, 1),), coeff=nothing)]),
        "cancel": op_sum("i_1 - i_1", -1, [Piece(((_remove_ghost, 1),), scalar=w) for w in (1, -1)]),
    }
    for case, f in vanished.items():
        out = f(x)
        assert not out.terms and out.floor == 1, case
        with pytest.raises(ReliabilityError):
            out.is_zero(2)
    # e^2 (q - q): no terms, floor 1; no map runs, and the image keeps the floor
    z = SuperElement(ctx, DIM, 2, {e2: s1}) - SuperElement(ctx, DIM, 2, {e2: Series.from_poly(q, 2)})
    calls.clear()
    out = op(z)
    assert not calls and not out.terms and out.floor == 1
    assert op_sum("0", 0, [])(z).floor == 1


def test_op_columns_keeps_the_floor_of_a_column_that_vanished():
    # each column of f is (e - e) / nu, no terms and reliable to 2 at order
    # 3: the assembled image must refuse a zero test at 3, as f(x) does
    ctx, (x, y) = poly_ring(("x", "y"))
    f = OperatorHandle("vanish/nu", lambda e: (e - e).div_nu(), 0)
    z = SuperElement.from_poly(x * y + x, 1, 3)
    direct = f(z)
    assert not direct.terms and direct.floor == 2
    for image in (direct, op_columns(f)(z)):
        assert not image.terms and image.floor == 2 and image.reliable == 2
        assert image.is_zero(2)
        with pytest.raises(ReliabilityError):
            image.is_zero(3)
    # a nu-free column serves every order and bounds no reliable order
    assert op_columns(f, nu_free=True)(z).floor is None
    # an exactly zero column lowers nothing
    zero = OperatorHandle("0", lambda e: SuperElement.zero(e.ctx, e.dim, e.order), 0)
    assert op_columns(zero)(z).floor is None


def test_a_nu_division_raises_on_a_nonzero_slot_zero_leaf():
    # the identity divided by nu: a term with a nu^0 part is not divisible
    ctx, q, p, lam = setup()
    div = op_sum("1/nu", 0, [Piece(shift=-1)])
    with pytest.raises(DivisibilityError):
        div(SuperElement.from_poly(q * p + q, DIM, 3))
    # nu q divides to q, reliable one order less, and the division lowers
    # the input's floor by one
    x = SuperElement.from_poly(q, DIM, 3).shift_nu(1)
    out = div(x)
    assert out.terms == {((), ()): Series(ctx, 3, [q], 2)} and out.reliable == 2
    y = x + SuperElement(ctx, DIM, 3, {((1,), ()): Series(ctx, 3, [q], 2)}) - SuperElement(
        ctx, DIM, 3, {((1,), ()): Series.from_poly(q, 3)}
    )
    assert y.floor == 2 and div(y).floor == 1
    # the (1/nu) star commutator meets a nu^0 leaf only through a broken map
    star = StarProduct(lam)
    broken = lambda j: Piece(coeff=CoefficientMap(times(j).write, exact=True), shift=-1)
    with pytest.raises(DivisibilityError):
        acting(broken, p)(SuperElement.from_poly(q, DIM, 3))
    assert acting(star_action(star), p)(SuperElement.from_poly(q, DIM, 3)).is_zero(2) is False


# -- reference implementations ---------------------------------------------------
# Each product, contraction and termwise map written out as its own loop,
# with an independent key merge (ghost a encoded as a, antighost a as
# dim + a).  None uses a helper of `redstar.superalg`, so a change to a
# shared helper there shows up as a difference in terms or in a term's
# `reliable`.


def _ref_merge_terms(key1, key2, dim):
    """Merge by encoding ghost a as a and antighost a as dim + a."""
    seq1 = tuple(key1[0]) + tuple(dim + a for a in key1[1])
    seq2 = tuple(key2[0]) + tuple(dim + a for a in key2[1])
    inversions = 0
    for y in seq2:
        for x in seq1:
            if x == y:
                return 0, None
            if x > y:
                inversions += 1
    merged = tuple(sorted(seq1 + seq2))
    ghosts = tuple(g for g in merged if g <= dim)
    antighosts = tuple(g - dim for g in merged if g > dim)
    return (-1) ** inversions, (ghosts, antighosts)


def _ref_remove_antighost(key, a):
    ghosts, antighosts = key
    if a not in antighosts:
        return None
    pos = antighosts.index(a)
    return (-1) ** (len(ghosts) + pos), (ghosts, antighosts[:pos] + antighosts[pos + 1 :])


def _ref_remove_ghost(key, a):
    ghosts, antighosts = key
    if a not in ghosts:
        return None
    pos = ghosts.index(a)
    return (-1) ** pos, (ghosts[:pos] + ghosts[pos + 1 :], antighosts)


def _ref_parity(key):
    return (len(key[0]) + len(key[1])) % 2


def ref_super_mul(x, y):
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            sign, key = _ref_merge_terms(k1, k2, x.dim)
            if sign == 0:
                continue
            s = (c1 * c2).scale(sign)
            cur = out.get(key)
            out[key] = s if cur is None else cur + s
    return SuperElement(x.ctx, x.dim, x.order, out)


def _ref_clifford_ghost_terms(key1, key2, dim, max_k):
    results = []
    level = [(key1, key2, 1)]
    k = 0
    while level and k <= max_k:
        for kx, ky, c in level:
            sign, merged = _ref_merge_terms(kx, ky, dim)
            if sign != 0:
                results.append((k, c * sign * Fraction(1, factorial(k)), merged))
        nxt = []
        for kx, ky, c in level:
            px = _ref_parity(kx)
            for a in kx[1]:
                if a not in ky[0]:
                    continue
                s1, kx2 = _ref_remove_antighost(kx, a)
                s2, ky2 = _ref_remove_ghost(ky, a)
                nxt.append((kx2, ky2, c * s1 * s2 * (-1) ** px))
        level = nxt
        k += 1
    return results


def _ref_clifford(x, y, product, coeff):
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            base = product(c1, c2)
            for k, s, key in _ref_clifford_ghost_terms(k1, k2, x.dim, x.order):
                contrib = base.scale(s * coeff**k).shift_nu(k)
                if all(p.is_zero() for p in contrib.coeffs):
                    continue
                cur = out.get(key)
                out[key] = contrib if cur is None else cur + contrib
    return SuperElement(x.ctx, x.dim, x.order, out)


def ref_star(star, x, y):
    return _ref_clifford(
        x, y, lambda a, b: moyal_star_series(a, b, star.lam), star.clifford_coeff
    )


def ref_commutator(star, x, y):
    """x * y - (-1)^{|x||y|} y * x, term pair by term pair.

    Each Clifford level of x * y and of y * x is a contribution; a pair's
    two level-0 parts land on one key and count as one contribution,
    their sum.  A contribution that vanishes (truncated away, or a level-0
    sum that cancels) lowers the floor to its reliable order; one whose
    weight is exactly zero (no ghost pairing) lowers nothing.
    """
    lam, coeff = star.lam, star.clifford_coeff
    out, floor = {}, _ref_floor(x, y)
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            reliable = min(c1.reliable, c2.reliable)
            sign = (-1) ** (_ref_parity(k1) * _ref_parity(k2))
            contribs = {}  # level 0 summed under its key; the higher levels apart
            for d, (a, b, base, w) in enumerate(
                (
                    (k1, k2, moyal_star_series(c1, c2, lam), 1),
                    (k2, k1, moyal_star_series(c2, c1, lam), -sign),
                )
            ):
                for n, (k, s, key) in enumerate(_ref_clifford_ghost_terms(a, b, x.dim, x.order)):
                    weight = w * s * coeff**k
                    if not weight:
                        continue
                    contrib = base.scale(weight).shift_nu(k)
                    slot = (0, key) if k == 0 else (d + 1, n)
                    if slot in contribs:
                        contribs[slot] = (key, contribs[slot][1] + contrib)
                    else:
                        contribs[slot] = (key, contrib)
            for key, contrib in contribs.values():
                if all(p.is_zero() for p in contrib.coeffs):
                    floor = reliable if floor is None else min(floor, reliable)
                    continue
                cur = out.get(key)
                out[key] = contrib if cur is None else cur + contrib
    return SuperElement(x.ctx, x.dim, x.order, out, floor=floor)


def _ref_floor(x, y):
    floors = [f for f in (x.floor, y.floor) if f is not None]
    return min(floors) if floors else None


def ref_graded_poisson(x, y, lam):
    terms_out = {}

    def accumulate(key, series):
        if all(p.is_zero() for p in series.coeffs):
            return
        cur = terms_out.get(key)
        terms_out[key] = series if cur is None else cur + series

    for k1, c1 in x.terms.items():
        p1 = _ref_parity(k1)
        for k2, c2 in y.terms.items():
            p2 = _ref_parity(k2)
            sign, key = _ref_merge_terms(k1, k2, x.dim)
            if sign != 0:
                coeffs = [Poly.zero(x.ctx)] * (x.order + 1)
                for i, a in enumerate(c1.coeffs):
                    if a.is_zero():
                        continue
                    for j, b in enumerate(c2.coeffs):
                        if i + j > x.order or b.is_zero():
                            continue
                        coeffs[i + j] = coeffs[i + j] + poisson_bracket(a, b, lam)
                series = Series(x.ctx, x.order, coeffs, min(c1.reliable, c2.reliable))
                accumulate(key, series.scale(sign))
            prod = c1 * c2
            for a in k1[1]:
                if a not in k2[0]:
                    continue
                s1, k1r = _ref_remove_antighost(k1, a)
                s2, k2r = _ref_remove_ghost(k2, a)
                msign, key2 = _ref_merge_terms(k1r, k2r, x.dim)
                if msign == 0:
                    continue
                accumulate(key2, prod.scale((-2) * ((-1) ** p1) * s1 * s2 * msign))
            for a in k2[1]:
                if a not in k1[0]:
                    continue
                s1, k2r = _ref_remove_antighost(k2, a)
                s2, k1r = _ref_remove_ghost(k1, a)
                msign, key2 = _ref_merge_terms(k2r, k1r, x.dim)
                if msign == 0:
                    continue
                accumulate(key2, prod.scale(2 * ((-1) ** (p1 * p2 + p2)) * s1 * s2 * msign))
    return SuperElement(x.ctx, x.dim, x.order, terms_out)


def _ref_termwise(x, fn, order=None):
    """The termwise maps: constructor-cleaned image of every term."""
    order = x.order if order is None else order
    return SuperElement(x.ctx, x.dim, order, {k: fn(c) for k, c in x.terms.items()})


# -- comparisons against the references --------------------------------------------

REF_ORDERS = (0, 2, 4)


@functools.lru_cache(maxsize=None)
def _loaded(name):
    state = RunState(get_scenario(name))
    stage_load(state)
    return state.ctx, state.lam, state.moment.lie.dim


def _random_element(ctx, dim, order, rng, terms=4):
    """Random terms with nonzero higher nu slots, some nu-divisible, mixed `reliable`.

    A term whose low slots vanish makes products that truncate to zero, the
    case in which the Clifford products and `super_mul` treat zeros apart.
    """
    subsets = [()] + [s for r in range(1, dim + 1) for s in combinations(range(1, dim + 1), r)]
    out = {}
    for _ in range(terms):
        low = rng.randint(0, order)
        coeffs = [Poly.zero(ctx)] * low + [
            random_poly(ctx, rng, 2, terms=2) for _ in range(order + 1 - low)
        ]
        key = (rng.choice(subsets), rng.choice(subsets))
        out[key] = Series(ctx, order, coeffs, rng.randint(0, order))
    return SuperElement(ctx, dim, order, out)


def _random_pairs(name, per_order):
    ctx, lam, dim = _loaded(name)
    rng = random.Random(name)
    for order in REF_ORDERS:
        for _ in range(per_order):
            yield (
                ctx,
                lam,
                _random_element(ctx, dim, order, rng),
                _random_element(ctx, dim, order, rng),
            )


def assert_same(got, want):
    """Equal terms and equal `reliable` on every term."""
    assert (got.ctx, got.dim, got.order) == (want.ctx, want.dim, want.order)
    assert got.terms == want.terms
    assert {k: c.reliable for k, c in got.terms.items()} == {
        k: c.reliable for k, c in want.terms.items()
    }


SCENARIOS = ("s1-c4", "commuting-n3")


def test_merge_terms_matches_encoded_merge():
    dim = 4
    subsets = [()] + [s for r in range(1, dim + 1) for s in combinations(range(1, dim + 1), r)]
    keys = [(g, a) for g in subsets for a in subsets]
    rng = random.Random(11)
    for k1 in keys:
        for k2 in rng.sample(keys, 40):
            assert _merge_terms(k1, k2) == _ref_merge_terms(k1, k2, dim), (k1, k2)


def _entries(k1, k2, dim, order):
    """{k: plan entries} of a term pair: the Clifford level-k contraction sets of (k1, k2).

    The reference lists each set once per order of its k indices.
    """
    levels = Counter(k for k, _, _ in _ref_clifford_ghost_terms(k1, k2, dim, order))
    return {k: n // factorial(k) for k, n in levels.items()}


def _live(c):
    return [i for i, p in enumerate(c.coeffs) if not p.is_zero()]


def _star_passes(x, y):
    """The kernel passes of `StarProduct.star`, one per plan entry and live slot pair.

    The plan of x holds one piece per term, nonzero nu slot i and
    contraction set of k antighosts; on a term of y with the matching
    ghosts it runs one pass per nonzero slot j of y's coefficient with
    i + j + k <= order.
    """
    order, passes = x.order, 0
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            for k, n in _entries(k1, k2, x.dim, order).items():
                passes += n * sum(1 for a in _live(c1) for b in _live(c2) if a + b + k <= order)
    return passes


def _commutator_passes(x, y):
    """The kernel passes of `StarProduct.commutator`, one per plan entry and live slot pair.

    The entries of x y and y x at each level k >= 1 run as in
    `_star_passes`.  The one level-0 entry of a term pair writes the odd
    leaves alone, so its slot pairs with i + j = order carry none and make
    no pass.
    """
    order, passes = x.order, 0
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            pairs = [(a, b) for a in _live(c1) for b in _live(c2)]
            for keys in ((k1, k2), (k2, k1)):
                for k, n in _entries(*keys, x.dim, order).items():
                    if k:
                        passes += n * sum(1 for a, b in pairs if a + b + k <= order)
            if 0 in _entries(k1, k2, x.dim, order):
                passes += sum(1 for a, b in pairs if a + b < order)
    return passes


def assert_same_element(got, want):
    """`assert_same`, and the same reliable order of the whole element."""
    assert_same(got, want)
    assert got.reliable == want.reliable


@pytest.mark.parametrize("name", SCENARIOS)
def test_products_match_reference(name, monkeypatch):
    kernel, calls = poisson._moyal_into, []
    monkeypatch.setattr(poisson, "_moyal_into", lambda *args: calls.append(1) or kernel(*args))
    for ctx, lam, x, y in _random_pairs(name, 8):
        star = StarProduct(lam)
        assert_same(super_mul(x, y), ref_super_mul(x, y))
        assert_same(graded_poisson(x, y, lam), ref_graded_poisson(x, y, lam))
        calls.clear()
        product = star.star(x, y)
        assert len(calls) == _star_passes(x, y)
        assert_same(product, ref_star(star, x, y))
        calls.clear()
        commutator = star.commutator(x, y)
        # one pass per coefficient pair gives both c1 * c2 and c2 * c1
        assert len(calls) == _commutator_passes(x, y)
        assert_same_element(commutator, ref_commutator(star, x, y))
        # with no ghost pairing only the level-0 terms count toward a key
        unpaired = StarProduct(lam, Fraction(0))
        assert_same(unpaired.star(x, y), ref_star(unpaired, x, y))
        assert_same_element(unpaired.commutator(x, y), ref_commutator(unpaired, x, y))


def _mixed_parity_element(ctx, dim, order, rng):
    """Random terms of both parities, and constant terms under 1 and e^1.

    A constant term commutes at level 0 with every term, so with no ghost
    pairing its parity block sums to zero on a key that another block may
    hold.
    """
    subsets = [()] + [s for r in range(1, dim + 1) for s in combinations(range(1, dim + 1), r)]
    terms = dict(_random_element(ctx, dim, order, rng, terms=3).terms)
    for parity in (0, 1):
        keys = [(g, a) for g in subsets for a in subsets if (len(g) + len(a)) % 2 == parity]
        coeffs = [random_poly(ctx, rng, 2, terms=2) for _ in range(order + 1)]
        terms[rng.choice(keys)] = Series(ctx, order, coeffs, rng.randint(0, order))
    for key in (((), ()), ((1,), ())):
        terms[key] = Series(ctx, order, [Poly.const(ctx, rng.randint(1, 3))], rng.randint(0, order))
    return SuperElement(ctx, dim, order, terms)


@pytest.mark.parametrize("name", ("t2-c4", "angular-momentum-m2"))
def test_commutator_matches_reference_across_parity_blocks(name):
    ctx, lam, dim = _loaded(name)
    star = StarProduct(lam)
    unpaired = StarProduct(lam, Fraction(0))
    rng = random.Random(name)
    collisions = 0
    for order in REF_ORDERS:
        for _ in range(4):
            x = _mixed_parity_element(ctx, dim, order, rng)
            y = _mixed_parity_element(ctx, dim, order, rng)
            assert_same_element(star.commutator(x, y), ref_commutator(star, x, y))
            assert_same_element(unpaired.commutator(x, y), ref_commutator(unpaired, x, y))
            (xe, xo), (ye, yo) = x.parity_components(), y.parity_components()
            for a, b in (((xe, ye), (xo, yo)), ((xe, yo), (xo, ye))):
                keys = [set(ref_commutator(star, *pair).terms) for pair in (a, b)]
                collisions += bool(keys[0] & keys[1])
    # the blocks that share a parity of output keys do meet on a key
    assert collisions


@pytest.mark.parametrize("name", SCENARIOS)
def test_derivations_and_termwise_maps_match_reference(name):
    for ctx, lam, x, y in _random_pairs(name, 6):
        assert_same(-x, _ref_termwise(x, lambda c: -c))
        for c in (0, -1, Fraction(3, 2)):
            assert_same(x.scale(c), _ref_termwise(x, lambda s: s.scale(c)))
        for k in (0, 1, 3):
            assert_same(x.shift_nu(k), _ref_termwise(x, lambda s: s.shift_nu(k)))
        shifted = x.shift_nu(1)
        assert_same(shifted.div_nu(), _ref_termwise(shifted, lambda s: s.div_nu()))
        for order in range(x.order + 1):
            assert_same(x.truncate(order), _ref_termwise(x, lambda s: s.truncate(order), order))


@pytest.mark.parametrize("name", SCENARIOS)
def test_quantum_termwise_maps_match_reference(name):
    for ctx, lam, x, y in _random_pairs(name, 4):
        star = StarProduct(lam)
        j = random_poly(ctx, random.Random(x.order), 2, terms=3)
        jser = Series.from_poly(j, x.order)
        assert_same(
            op_sum("*J", 0, [Piece(coeff=right_star(j, lam))])(x),
            _ref_termwise(x, lambda c: moyal_star_series(c, jser, lam)),
        )
        comm = lambda c: (moyal_star_series(jser, c, lam) - moyal_star_series(c, jser, lam))
        nu_x = x.shift_nu(1)
        assert_same(
            acting(star_action(star), j)(nu_x),
            _ref_termwise(nu_x, lambda c: comm(c).div_nu()),
        )
