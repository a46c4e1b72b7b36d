"""Acceptance suite: every top-level claim, one test per criterion.

The whole registry runs once per test session; each criterion then asserts
on the relevant check records (all residuals are exact, zero modulo the
truncation order where nu is involved).  Each test prints one line with
its verdict, so `pytest -v -s` gives a per-criterion summary.
"""

import random
import time

import pytest

from finite_complexes import random_contraction
from redstar.hpt import perturb_v1, perturb_v2
from redstar.poisson import poisson_data
from redstar.poly import poly_ring
from redstar.probes import random_bounded_super
from redstar.runner import run_scenario
from redstar.scenarios import get_scenario
from redstar.superalg import StarProduct

POSITIVE = ("angular-momentum-m2", "s1-c4", "t2-c4", "commuting-n2", "commuting-n3")
NEGATIVE = ("negative-control-qq", "broken-sign-star", "cubic-moment-map")
REDUCTION_SCENARIOS = ("angular-momentum-m2", "s1-c4", "t2-c4", "commuting-n2")


@pytest.fixture(scope="module")
def reports():
    out = {}
    out["_walltime"] = {}
    for name in POSITIVE + NEGATIVE:
        t0 = time.perf_counter()
        out[name] = run_scenario(get_scenario(name))
        out["_walltime"][name] = time.perf_counter() - t0
    return out


def _rec(reports, scenario, check_id):
    for r in reports[scenario].records:
        if r.check_id == check_id:
            return r
    raise AssertionError(f"{scenario}: no record {check_id!r}")


def _conclude(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {label}: {verdict} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_koszul_acyclicity(reports):
    ok = True
    for name in ("angular-momentum-m2", "s1-c4", "t2-c4", "commuting-n2"):
        cfg = reports[name].config_echo
        assert cfg["degree_bound"] == 6
        dim = cfg["lie_dim"]
        for i in range(1, dim + 1):
            ok = ok and _rec(reports, name, f"acyclicity.H{i}").status == "pass"
    neg = _rec(reports, "negative-control-qq", "acyclicity.H1")
    ok = ok and neg.status == "fail" and neg.residual_terms > 0
    _conclude(1, "Koszul acyclicity up to degree 6 + negative control", ok)


def test_criterion_02_contraction_axioms(reports):
    labels = ("p.i=id", "d h+h d=id-i.p", "p d=d p", "d i=i d", "h h=0", "h i=0", "p h=0")
    ok = True
    for name in ("angular-momentum-m2", "s1-c4", "t2-c4", "commuting-n2"):
        dim = reports[name].config_echo["lie_dim"]
        for label in labels:
            rec = _rec(reports, name, f"contraction.{label}")
            ok = ok and rec.status == "pass" and rec.probes >= 50 * (dim + 1)
    _conclude(2, "contraction axioms + side conditions, >=50 probes per degree", ok)


def test_criterion_03_classical_brst(reports):
    ok = True
    for name in POSITIVE:
        ok = ok and _rec(reports, name, "classical-brst.charge").status == "pass"
        for label in ("D-delta-2koszul", "D^2", "delta.koszul+koszul.delta"):
            rec = _rec(reports, name, f"classical-brst.{label}")
            ok = ok and rec.status == "pass" and rec.probes >= 50
    _conclude(3, "charge bracket, D^2 and splitting on all five scenarios", ok)


def test_criterion_04_quantum_brst(reports):
    ok = True
    for name in POSITIVE:
        assert reports[name].config_echo["order"] == 4
        ok = ok and _rec(reports, name, "quantum-brst.charge").status == "pass"
        for label in (
            "D_nu-delta_nu-2koszul_nu",
            "D_nu^2",
            "delta_nu^2",
            "koszul_nu^2",
            "delta_nu.koszul_nu+koszul_nu.delta_nu",
        ):
            rec = _rec(reports, name, f"quantum-brst.{label}")
            ok = ok and rec.status == "pass" and rec.probes >= 50
    _conclude(4, "quantum charge + splitting mod nu^5 on all five scenarios", ok)


def test_criterion_04b_star_associativity_100_triples():
    # a dedicated mixed context: canonical pair with three ghost indices
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    star = StarProduct(lam)
    rng = random.Random(404)
    ok = True
    for _ in range(100):
        x = random_bounded_super(ctx, 3, 4, rng, 4, (0, 0, 0), 2)
        y = random_bounded_super(ctx, 3, 4, rng, 4, (0, 0, 0), 2)
        z = random_bounded_super(ctx, 3, 4, rng, 4, (0, 0, 0), 2)
        ok = ok and (star.star(star.star(x, y), z) - star.star(x, star.star(y, z))).is_zero()
    _conclude(4, "graded star associativity on 100 mixed triples (mod nu^5)", ok)


def test_criterion_05_covariance_and_strong_invariance(reports):
    ok = True
    for name in POSITIVE:
        cov = _rec(reports, name, "covariance.pairs")
        si = _rec(reports, name, "strong-invariance.probes")
        dim = reports[name].config_echo["lie_dim"]
        ok = ok and cov.status == "pass"
        ok = ok and si.status == "pass" and si.probes >= 20 * dim
    _conclude(5, "quantum covariance + strong invariance, 20 probes each", ok)


def test_criterion_06_deformed_restriction(reports):
    ok = True
    for name in REDUCTION_SCENARIOS:
        cf = _rec(reports, name, "deformed-restriction.closed-form")
        ok = ok and cf.status == "pass" and cf.probes >= 20
        for label in ("p.i=id", "d h+h d=id-i.p", "h i=0"):
            ok = ok and _rec(reports, name, f"deformed-restriction.{label}").status == "pass"
        ok = ok and _rec(reports, name, "deformed-restriction.classical-limit").status == "pass"
    _conclude(6, "deformed restriction: closed form, axioms, classical limit", ok)


def test_criterion_07_equivariance_lemma(reports):
    ok = True
    for name in ("s1-c4", "t2-c4"):
        rec = _rec(reports, name, "equivariance-lemma.representations")
        ok = ok and rec.status == "pass" and rec.probes >= 20
        ok = ok and _rec(reports, name, "equivariance-lemma.h-weights").status == "pass"
    _conclude(7, "deformed = classical quotient representation (torus scenarios)", ok)


def test_criterion_08_reduced_star(reports):
    name = "s1-c4"
    rec_assoc = _rec(reports, name, "reduced-star.associativity")
    rec_cls = _rec(reports, name, "reduced-star.classical-part")
    rec_first = _rec(reports, name, "reduced-star.first-order")
    rec_ideal = _rec(reports, name, "reduced-star.ideal-invariance")
    gens = _rec(reports, name, "classical-reduction.generators")
    ok = gens.status == "pass" and "17 generator(s)" in (gens.detail or "")
    ok = ok and rec_assoc.status == "pass" and rec_assoc.probes == 17 ** 3
    ok = ok and rec_cls.status == "pass" and rec_cls.probes == 17 ** 2
    ok = ok and rec_first.status == "pass" and rec_first.probes == 17 * 16 // 2
    ok = ok and rec_ideal.status == "pass" and rec_ideal.probes >= 20
    runtime = reports["_walltime"][name]
    ok = ok and runtime <= 600.0
    _conclude(
        8,
        "reduced star product on the full generator set",
        ok,
        f"({runtime:.0f}s for the whole scenario)",
    )


def test_criterion_09_perturbation_lemma_library():
    rng = random.Random(909)
    ok = True
    for trial in range(10):
        c, X, Y, t_x, t_y = random_contraction(rng)
        px = [X.random_vec(rng) for _ in range(5)]
        py = [Y.random_vec(rng) for _ in range(5)]
        for lemma in (perturb_v1, perturb_v2):
            out = lemma(c, t_y, t_x, px[:2], py[:2])
            for x, y in zip(px, py):
                ok = ok and all(r.is_zero() for r in out.axiom_residuals(x, y).values())
        # zero perturbation gives the identity transformation
        from redstar.superalg import OperatorHandle

        zero = OperatorHandle("0", lambda v: v.scale(0), +1, frozenset({"aux"}))
        for lemma in (perturb_v1, perturb_v2):
            out = lemma(c, zero, zero)
            ok = ok and all((out.h(v) - c.h(v)).is_zero() for v in py)
            ok = ok and all((out.p(v) - c.p(v)).is_zero() for v in py)
            ok = ok and all((out.i(v) - c.i(v)).is_zero() for v in px)
    _conclude(9, "both perturbation lemmas on 10 random filtered contractions", ok)


def test_criterion_10_negative_controls(reports):
    broken = _rec(reports, "broken-sign-star", "quantum-brst.D_nu-delta_nu-2koszul_nu")
    qq = _rec(reports, "negative-control-qq", "acyclicity.H1")
    cubic = _rec(reports, "cubic-moment-map", "strong-invariance.probes")
    ok = broken.status == "fail" and broken.witness
    ok = ok and qq.status == "fail" and qq.witness
    ok = ok and cubic.status == "fail" and cubic.witness
    ok = ok and reports["broken-sign-star"].verdict == "fail"
    ok = ok and reports["negative-control-qq"].verdict == "fail"
    ok = ok and reports["cubic-moment-map"].verdict == "fail"
    _conclude(10, "negative controls fail with concrete residual witnesses", ok)
