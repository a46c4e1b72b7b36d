"""The runner derives each zero test's truncation from the residual.

A `Poly` or an order-0 residual is tested exactly; one at the work order is
tested through the order the checks assert; any other order is an engine
error, reported as the stage's `error` record rather than a pass.
"""

import pytest

from redstar import runner
from redstar.errors import TruncationError
from redstar.poly import Poly
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import SuperElement

CONFIG = get_scenario("cubic-moment-map")


def _stage_run(stage):
    state = runner.RunState(CONFIG)
    state.ctx = CONFIG.build_context()
    return runner.StageRun(state, stage), state


def _statuses(run, items):
    return [run.check(label, "anchor", [(label, r)]).status for label, r in items]


def test_residual_at_another_order_is_a_stage_error(monkeypatch):
    # an exactly zero residual at an order between 0 and the work order:
    # neither exact nor at the work order, so it must not pass
    def covariance(moment, lam, order):
        return [("pair", Series.zero(moment.ctx, order - 1))]

    monkeypatch.setattr(runner, "check_quantum_covariance", covariance)
    report = runner.run_scenario(CONFIG, only_stage="covariance")
    [record] = [r for r in report.records if r.stage == "covariance"]
    assert (record.check_id, record.status) == ("covariance.error", "error")
    assert f"nu-order {runner.RunState(CONFIG).work_order - 1}" in record.witness
    run, state = _stage_run("covariance")
    with pytest.raises(TruncationError):
        run.check("x", "anchor", [("r", Series.zero(state.ctx, state.work_order + 1))])


def test_order_zero_residual_in_a_quantum_stage_is_tested_exactly():
    run, state = _stage_run("quantum-brst")
    q = Poly.variable(state.ctx, "q")
    dim = CONFIG.lie_dim
    assert state.work_order > 0  # a truncated test at order 4 would raise here
    items = [
        ("zero", SuperElement.zero(state.ctx, dim, 0)),
        ("classical part", SuperElement.from_poly(q, dim, 0)),
        ("series", Series.from_poly(q, 0)),
    ]
    assert _statuses(run, items) == ["pass", "fail", "fail"]


def test_poly_residual_is_tested_exactly():
    run, state = _stage_run("deformed-restriction")
    q = Poly.variable(state.ctx, "q")
    assert _statuses(run, [("zero", Poly.zero(state.ctx)), ("q", q)]) == ["pass", "fail"]


def test_work_order_residual_is_tested_through_the_checked_order():
    run, state = _stage_run("quantum-brst")
    q = Poly.variable(state.ctx, "q")
    above = Series.nu(state.ctx, state.work_order, state.order + 1) * Series.from_poly(
        q, state.work_order
    )
    at = Series.nu(state.ctx, state.work_order, state.order) * Series.from_poly(
        q, state.work_order
    )
    assert _statuses(run, [("above", above), ("at", at)]) == ["pass", "fail"]
    # an explicit truncation overrides the derived one
    assert run.check("x", "anchor", [("at", at)], upto=state.order - 1).status == "pass"
