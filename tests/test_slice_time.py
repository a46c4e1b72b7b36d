"""`tools/slice_time.py` times the acyclicity check and counts its slice solvers."""

import importlib.util
import json
import os
from dataclasses import replace

from redstar.koszul import check_acyclicity
from redstar.linalg import SliceSolver
from redstar.runner import RunState, stage_load
from redstar.scenarios import get_scenario

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "slice_time.py")
spec = importlib.util.spec_from_file_location("slice_time", TOOL)
slice_time = importlib.util.module_from_spec(spec)
spec.loader.exec_module(slice_time)


def test_prints_one_json_line_for_commuting_n2(capsys):
    init = SliceSolver.__init__
    assert slice_time.main(["commuting-n2", "3"]) == 0
    assert SliceSolver.__init__ is init
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    got = json.loads(out[0])
    state = RunState(replace(get_scenario("commuting-n2"), degree_bound=3))
    stage_load(state)
    report = check_acyclicity(state.moment, 3)
    assert got["scenario"] == "commuting-n2" and got["bound"] == 3
    assert got["seconds"] >= 0
    assert got["slice_solvers"] == len(report.space._solvers) > 0
    assert got["acyclic"] is report.acyclic is True
    assert got["h0_total"] == sum(report.h0_dims.values()) > 0
