"""`tools/op_time.py` times the operators of the BRST splitting checks."""

import importlib.util
import json
import os

from redstar import brst, quantum, runner, superalg
from redstar.scenarios import get_scenario

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "op_time.py")
spec = importlib.util.spec_from_file_location("op_time", TOOL)
op_time = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_time)


def test_prints_one_json_line_for_commuting_n2(capsys):
    original, mul = brst.splitting_residuals, superalg.super_mul
    assert op_time.main(["commuting-n2", "3"]) == 0
    for module in (brst, quantum, runner):
        assert module.splitting_residuals is original
    assert superalg.super_mul is mul
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    got = json.loads(out[0])
    assert got["scenario"] == "commuting-n2" and got["bound"] == 3 and got["passed"] is True
    # the run starts from an empty plan cache, so it builds plans
    assert type(got["plan_builds"]) is int and got["plan_builds"] > 0
    n = get_scenario("commuting-n2").probe_counts()["splitting"]
    ops = got["operators"]
    assert set(ops) == {"D", "delta", "koszul", "D_nu", "delta_nu", "koszul_nu"}
    for s in ("", "_nu"):
        # D on x and on Dx; delta and koszul on x and on both images of x
        assert ops[f"D{s}"]["calls"] == 2 * n
        assert list(ops[f"D{s}"]["inputs"]) == ["x", "Dx"]
        for name in (f"delta{s}", f"koszul{s}"):
            assert ops[name]["calls"] == 3 * n
            assert list(ops[name]["inputs"]) == ["x", "deltax", "koszulx"]
        probe = {ops[f"{op}{s}"]["inputs"]["x"]["monomials"] for op in ("D", "delta", "koszul")}
        assert len(probe) == 1 and probe.pop() > 0
    for stats in ops.values():
        assert stats["seconds"] >= 0
        assert stats["calls"] == sum(v["calls"] for v in stats["inputs"].values())
        assert stats["monomials"] == sum(v["monomials"] for v in stats["inputs"].values())
