import random
import pytest

from finite_complexes import random_contraction
from redstar.errors import FiltrationError, LemmaHypothesisError
from redstar.hpt import neumann_inverse, perturb_v1, perturb_v2
from redstar.poly import Poly, poly_ring
from redstar.series import Series
from redstar.superalg import OperatorHandle, SuperElement


def test_neumann_zero_is_identity():
    ctx, (q, p) = poly_ring(("q", "p"))
    t = OperatorHandle("0", lambda x: x.scale(0), 0, frozenset({"nu"}))
    inv = neumann_inverse(t, cap=5)
    x = SuperElement.from_poly(q, 1, 2)
    assert inv(x) == x


def test_neumann_geometric_series():
    ctx, (q, p) = poly_ring(("q", "p"))

    def mul_nu_q(x):
        return x.map_terms(lambda c: c * q).shift_nu(1)

    t = OperatorHandle("nu*q", mul_nu_q, 0, frozenset({"nu"}))
    inv = neumann_inverse(t, cap=6)
    one = SuperElement.from_poly(Poly.const(ctx, 1), 1, 2)
    out = inv(one)
    expect = SuperElement(
        ctx, 1, 2,
        {((), ()): Series(ctx, 2, [Poly.const(ctx, 1), -q, q * q])},
    )
    assert out == expect
    # composing with id + t recovers the input
    assert (inv(one + mul_nu_q(one)) - one).is_zero()
    roundtrip = inv(one) + mul_nu_q(inv(one))
    assert roundtrip == one


def test_neumann_requires_filtration_flag():
    t = OperatorHandle("bad", lambda x: x, 0)
    with pytest.raises(FiltrationError):
        neumann_inverse(t, cap=3)


def test_neumann_cap_exceeded():
    ctx, (q, p) = poly_ring(("q", "p"))
    t = OperatorHandle("id", lambda x: x, 0, frozenset({"nu"}))  # lies about raising
    inv = neumann_inverse(t, cap=4)
    with pytest.raises(FiltrationError):
        inv(SuperElement.from_poly(q, 1, 2))


def _probes(space, rng, n=6):
    return [space.random_vec(rng) for _ in range(n)]


def _axioms(c, probes_X, probes_Y):
    """(label, residual) of every contraction axiom on every probe pair."""
    return [item for x, y in zip(probes_X, probes_Y) for item in c.axiom_residuals(x, y).items()]


def test_random_contraction_fixture_is_valid():
    rng = random.Random(100)
    for _ in range(5):
        c, X, Y, t_x, t_y = random_contraction(rng)
        results = _axioms(c, _probes(X, rng), _probes(Y, rng))
        assert results and all(r.is_zero() for _, r in results)


def test_perturbation_lemma_v1_library():
    rng = random.Random(101)
    for trial in range(10):
        c, X, Y, t_x, t_y = random_contraction(rng)
        px, py = _probes(X, rng), _probes(Y, rng)
        out = perturb_v1(c, t_y, t_x, px[:3], py[:3])
        bad = [label for label, r in _axioms(out, px, py) if not r.is_zero()]
        assert not bad, (trial, bad)


def test_perturbation_lemma_v2_library():
    rng = random.Random(102)
    for trial in range(10):
        c, X, Y, t_x, t_y = random_contraction(rng)
        px, py = _probes(X, rng), _probes(Y, rng)
        out = perturb_v2(c, t_y, t_x, px[:3], py[:3])
        bad = [label for label, r in _axioms(out, px, py) if not r.is_zero()]
        assert not bad, (trial, bad)


def test_zero_perturbation_is_identity_transformation():
    rng = random.Random(103)
    c, X, Y, _, _ = random_contraction(rng)
    zero_y = OperatorHandle("0", lambda v: v.scale(0), +1, frozenset({"aux"}))
    zero_x = OperatorHandle("0", lambda v: v.scale(0), +1, frozenset({"aux"}))
    for lemma in (perturb_v1, perturb_v2):
        out = lemma(c, zero_y, zero_x)
        for v in _probes(Y, rng, 4):
            assert out.h(v) == c.h(v)
            assert out.p(v) == c.p(v)
            assert out.d_Y(v) == c.d_Y(v)
        for v in _probes(X, rng, 4):
            assert out.i(v) == c.i(v)


def test_hypothesis_violation_is_reported():
    rng = random.Random(104)
    c, X, Y, t_x, t_y = random_contraction(rng)
    # a deliberately incompatible X-side perturbation
    bad_t_x = OperatorHandle("bad", lambda v: v.scale(0), +1, frozenset({"aux"}))
    probe_x = [v for v in _probes(X, rng, 8) if not t_x(v).is_zero()]
    probe_y = [c.i(v) for v in probe_x]
    if not probe_x:
        pytest.skip("degenerate random draw: perturbation vanished on probes")
    with pytest.raises(LemmaHypothesisError):
        perturb_v1(c, t_y, bad_t_x, probe_x, probe_y)
