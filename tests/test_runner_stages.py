"""What a stage records depends on its own inputs, and its failure paths end the run.

A stage reads only the results of its `PREREQUISITES`, so cutting the stage
list to a stage and its prerequisites leaves that stage's records as they
are.  A refused lemma hypothesis is the stage's one failed record, and so
is a quantum charge whose star square is nonzero; a generator set that
would make `reduced-star` vacuous, or that holds a zero candidate, fails
`classical-reduction.generators`.
"""

import dataclasses

import pytest

from redstar import runner
from redstar.errors import LemmaHypothesisError
from redstar.runner import STAGE_ORDER, run_scenario
from redstar.scenarios import PREREQUISITES, get_scenario
from redstar.superalg import SuperElement

BOUND = 4


def _untimed(records, stage):
    return [dataclasses.replace(r, wall_time_s=0.0) for r in records if r.stage == stage]


def _with_prerequisites(stage):
    """The stage and its transitive prerequisites, in run order."""
    need, todo = set(), [stage]
    while todo:
        s = todo.pop()
        if s not in need:
            need.add(s)
            todo.extend(PREREQUISITES[s])
    return tuple(s for s in STAGE_ORDER if s in need)


@pytest.mark.parametrize("name", ["s1-c4", "commuting-n2"])
def test_stage_records_do_not_depend_on_the_other_listed_stages(name):
    cfg = get_scenario(name)
    full = run_scenario(cfg, degree_bound=BOUND).records
    for stage in cfg.stages:
        cut = dataclasses.replace(cfg, stages=_with_prerequisites(stage))
        records = run_scenario(cut, degree_bound=BOUND).records
        assert _untimed(records, stage) == _untimed(full, stage), stage


@pytest.mark.parametrize(
    "transfer, stage",
    [
        ("brst_transfer", "classical-reduction"),
        ("deformed_restriction", "deformed-restriction"),
        ("quantum_reduction", "quantum-reduction"),
    ],
)
def test_a_refused_lemma_hypothesis_is_the_stage_s_one_record(monkeypatch, transfer, stage):
    def refuse(*args, **kwargs):
        raise LemmaHypothesisError(f"{transfer} refused on probe 0")

    monkeypatch.setattr(runner, transfer, refuse)
    records = run_scenario(get_scenario("s1-c4"), degree_bound=BOUND).records
    (hypotheses,) = [r for r in records if r.stage == stage]  # no build record
    assert hypotheses.check_id == f"{stage}.hypotheses"
    assert hypotheses.status == "fail"
    assert hypotheses.witness == f"{transfer} refused on probe 0"
    later = [r for r in records if STAGE_ORDER.index(r.stage) > STAGE_ORDER.index(stage)]
    assert later and all(r.status == "skipped" for r in later)


def _generators(cfg):
    """classical-reduction.generators and reduced-star's records of cfg at BOUND."""
    records = run_scenario(cfg, degree_bound=BOUND).records
    rec = {r.check_id: r for r in records}
    return rec["classical-reduction.generators"], [r for r in records if r.stage == "reduced-star"]


def _with_invariant(cfg, invariant, **fields):
    return dataclasses.replace(
        cfg, declared_invariants=cfg.declared_invariants + (invariant,), **fields
    )


@pytest.mark.parametrize("name", ["s1-c4", "t2-c4"])
def test_a_declared_invariant_on_a_torus_scenario_is_certified(name):
    # declaring an invariant selects declared mode, so the declared z1, of
    # nonzero torus weight, is what gets certified
    generators, reduced_star = _generators(_with_invariant(get_scenario(name), "z1"))
    assert generators.status == "fail"
    assert generators.witness == "generator z1: z1"
    assert generators.detail == "0 generator(s)"
    assert [r.status for r in reduced_star] == ["skipped"]


def test_an_uncertified_declared_invariant_fails_generators():
    generators, reduced_star = _generators(_with_invariant(get_scenario("commuting-n2"), "q11"))
    assert generators.status == "fail"
    assert generators.witness == "generator q11: q11"
    assert generators.detail == "5 generator(s)"
    assert [r.status for r in reduced_star] == ["skipped"]


def test_a_declared_invariant_in_the_ideal_fails_generators():
    # without the rule the zero normal form (degree -1) passes every degree
    # filter and reduced-star passes on 6 generators, one of them zero
    cfg = get_scenario("commuting-n2")
    (j,) = cfg.moment_map
    generators, reduced_star = _generators(_with_invariant(cfg, j, star_triples="all"))
    assert generators.status == "fail"
    assert generators.witness.startswith(f"generator {j} lies in the ideal: ")
    assert generators.detail == "5 generator(s)"
    assert [r.status for r in reduced_star] == ["skipped"]


def test_a_zero_declared_invariant_fails_generators():
    # its item's residual g = 0 vanishes, so the check alone would pass and
    # reduced-star would run on the other five generators
    generators, reduced_star = _generators(_with_invariant(get_scenario("commuting-n2"), "0"))
    assert generators.status == "fail"
    assert generators.witness == "generator 0 is zero"
    assert generators.detail == "5 generator(s)"
    assert [r.status for r in reduced_star] == ["skipped"]


def test_a_charge_that_is_not_nilpotent_ends_quantum_brst(monkeypatch):
    # J_1 as a ghost-free charge: its star square J_1 * J_1 is nonzero
    def charge(moment, order):
        return SuperElement.from_poly(moment.components[0], moment.lie.dim, order)

    monkeypatch.setattr(runner, "quantum_charge", charge)
    cfg = get_scenario("s1-c4")
    records = run_scenario(cfg, degree_bound=BOUND).records
    (rec,) = [r for r in records if r.stage == "quantum-brst"]
    assert rec.check_id == "quantum-brst.charge" and rec.status == "fail"
    after = lambda stage: STAGE_ORDER.index(stage) > STAGE_ORDER.index("quantum-brst")
    later = [r for r in records if after(r.stage)]
    assert {r.stage for r in later} == {s for s in cfg.stages if after(s)}
    assert all(r.status == "skipped" for r in later)


@pytest.mark.parametrize("cap", [0, 1])
def test_constants_alone_fail_generators(monkeypatch, cap):
    # s1-c4's invariants below degree 2 are the constants, and reduced-star
    # would check first-order on no pair
    monkeypatch.setattr(runner, "GENERATOR_CAP", cap)
    generators, reduced_star = _generators(get_scenario("s1-c4"))
    assert generators.status == "fail" and generators.witness is None
    assert generators.detail == "1 generator(s), none of positive degree"
    assert [r.status for r in reduced_star] == ["skipped"]


def test_a_declared_constant_alone_fails_generators():
    # the constant 1 as s1-c4's one declared invariant: reduced-star would
    # check first-order on no pair
    generators, reduced_star = _generators(_with_invariant(get_scenario("s1-c4"), "1"))
    assert generators.status == "fail" and generators.witness is None
    assert generators.detail == "1 generator(s), none of positive degree"
    assert [r.status for r in reduced_star] == ["skipped"]
