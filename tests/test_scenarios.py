import dataclasses
import json
import os
import re

import pytest

from redstar import runner
from redstar.cli import main
from redstar.errors import ConfigError
from redstar.report import emit_report
from redstar.runner import STAGE_ORDER, run_scenario
from redstar.scenarios import ScenarioConfig, get_scenario, load_config, registry, t2_c4

HERE = os.path.dirname(__file__)
CFG = os.path.join(HERE, "..", "demos", "circle_c2.cfg")


def test_registry_contents():
    names = set(registry())
    assert {
        "s1-c4",
        "t2-c4",
        "angular-momentum-m2",
        "commuting-n2",
        "commuting-n3",
        "negative-control-qq",
        "broken-sign-star",
        "cubic-moment-map",
    } <= names


def test_unknown_scenario():
    with pytest.raises(ConfigError):
        get_scenario("nope")


def test_t2_requires_negative_alpha():
    with pytest.raises(ConfigError):
        t2_c4(alpha=1)


def test_config_file_loads():
    cfg = load_config(CFG)
    assert cfg.name == "circle-c2-config"
    assert cfg.field_name == "gaussian"
    assert cfg.variables == ("z1", "z2", "zb1", "zb2")
    assert cfg.torus_rows == (0,)
    assert cfg.moment_map == ("1/2*(z1*zb1 - z2*zb2)",)
    assert cfg.order == 3
    assert dict(cfg.probe_overrides)["splitting"] == "25"


def test_config_file_runs_green(tmp_path):
    cfg = load_config(CFG)
    report = run_scenario(cfg)
    assert report.verdict == "pass", [
        (r.check_id, r.witness) for r in report.records if r.status in ("fail", "error")
    ]


def test_check_ids_unique_in_registry_reports():
    from test_golden_reports import RUNS, WORKLOADS

    for run in RUNS:
        config = dataclasses.replace(
            get_scenario(run.scenario),
            seed=WORKLOADS.DEFAULT_SEED,
            probe_overrides=tuple(run.probes),
        )
        ids = [r.check_id for r in run_scenario(config, degree_bound=run.degree_bound).records]
        assert len(ids) == len(set(ids)), run.scenario


def test_no_certified_generator_is_one_failed_record(tmp_path):
    # declared mode without declared invariants has no candidate to certify;
    # the generators are certified once, in classical-reduction, and a pass
    # there would have evaluated nothing
    with open(CFG, encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("mode = weights", "mode = declared")
    text = text.replace("degree_bound = 6", "degree_bound = 4")
    path = tmp_path / "declared.cfg"
    path.write_text(text, encoding="utf-8")
    report = run_scenario(load_config(str(path)))
    ids = [r.check_id for r in report.records]
    assert len(ids) == len(set(ids))
    rec = {r.check_id: r for r in report.records}
    assert [r.check_id for r in report.records if r.status == "fail"] == [
        "classical-reduction.generators"
    ]
    assert rec["classical-reduction.generators"].detail == "no candidate generators"
    assert rec["reduced-star"].status == "skipped"
    # the failing record evaluated no residual, so the text report shows none
    text = report.to_text()
    assert "detail: no candidate generators" in text
    assert "residual:" not in text


def test_degenerate_bivector_is_a_load_error(tmp_path, capsys):
    with open(CFG, encoding="utf-8") as fh:
        text = fh.read()
    assert "z2 zb2 = 2*i\n" in text
    path = tmp_path / "degenerate.cfg"
    path.write_text(text.replace("z2 zb2 = 2*i\n", ""), encoding="utf-8")
    report = run_scenario(load_config(str(path)))
    first = report.records[0]
    assert (first.check_id, first.status) == ("load.error", "error")
    assert "invertible" in first.witness
    assert main(["run", str(path), "--format", "text"]) == 1


@pytest.mark.parametrize("bound,rc", [(1, 1), (2, 0)])
def test_acyclicity_without_a_k1_slice_fails(bound, rc, tmp_path, capsys):
    # at bound 1 no K_1 slice of the degree-2 constraint exists, so H1
    # evaluates nothing and must not pass
    with open(CFG, encoding="utf-8") as fh:
        text = fh.read()
    assert "degree_bound = 6\n" in text
    path = tmp_path / f"bound{bound}.cfg"
    text = text.replace("degree_bound = 6\n", f"degree_bound = {bound}\n")
    path.write_text(text, encoding="utf-8")
    assert main(["check", "acyclicity", str(path)]) == rc
    out = capsys.readouterr().out
    detail = f"no K_1 slice within degree bound {bound}"
    assert (detail in out) == (rc == 1)
    status = re.search(r"\[(PASS|FAIL) *\] acyclicity\.H1", out).group(1)
    assert status == ("FAIL" if rc else "PASS")


def test_negative_control_report_content():
    report = run_scenario(get_scenario("negative-control-qq"))
    assert report.verdict == "fail"
    rec = {r.check_id: r for r in report.records}
    assert rec["acyclicity.H1"].status == "fail"
    assert rec["acyclicity.H1"].witness is not None
    assert "e_1" in rec["acyclicity.H1"].witness
    assert rec["acyclicity.H2"].status == "pass"
    # later stages skipped
    assert rec["contraction"].status == "skipped"


def test_cubic_control_fails_strong_invariance():
    report = run_scenario(get_scenario("cubic-moment-map"))
    rec = {r.check_id: r for r in report.records}
    assert rec["strong-invariance.probes"].status == "fail"
    assert "nu^3" in rec["strong-invariance.probes"].witness


def test_report_schema_validates():
    import jsonschema

    schema_path = os.path.join(HERE, "..", "src", "redstar", "report_schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    report = run_scenario(get_scenario("cubic-moment-map"))
    jsonschema.validate(report.to_dict(), schema)


def test_report_reproducible_modulo_timing():
    cfg = get_scenario("cubic-moment-map")
    r1 = run_scenario(cfg).to_dict()
    r2 = run_scenario(cfg).to_dict()
    for r in (r1, r2):
        for c in r["checks"]:
            c.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True, default=str) == json.dumps(
        r2, sort_keys=True, default=str
    )


def test_emit_report_file(tmp_path):
    report = run_scenario(get_scenario("cubic-moment-map"))
    path = tmp_path / "out.json"
    emit_report(report, "json", str(path))
    data = json.loads(path.read_text())
    assert data["scenario"] == "cubic-moment-map"
    text = emit_report(report, "text")
    assert "verdict: FAIL" in text


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["list"]) == 0
    assert main(["run", "cubic-moment-map", "--format", "text"]) == 1
    out = str(tmp_path / "r.json")
    assert main(["run", "cubic-moment-map", "--report", out]) == 1
    assert os.path.exists(out)
    # unknown scenario -> usage error
    assert main(["run", "definitely-not-a-scenario"]) == 2
    # unwritable report path -> I/O error
    bad = str(tmp_path / "no-such-dir" / "r.json")
    assert main(["run", "cubic-moment-map", "--report", bad]) == 2


def test_cli_rejects_unknown_field(tmp_path, capsys):
    text = open(CFG).read()
    assert "field = gaussian" in text
    bad = tmp_path / "misspelled.cfg"
    bad.write_text(text.replace("field = gaussian", "field = ratonal"))
    with pytest.raises(ConfigError, match="ratonal"):
        load_config(str(bad))
    assert main(["run", str(bad), "--format", "text"]) == 2
    assert "unknown field 'ratonal'" in capsys.readouterr().err


# (text in demos/circle_c2.cfg, its replacement, expected error message)
MALFORMED = {
    "non-integer order": ("order = 3", "order = abc", "order must be an integer, got 'abc'"),
    "non-integer degree bound": ("degree_bound = 6", "degree_bound = 6.5", "degree_bound must be"),
    "non-integer seed": ("seed = 11", "seed = eleven", "seed must be an integer"),
    "non-integer grading": ("torus = -1 1 1 -1", "torus = -1 1 1 x", "grading row grading.torus"),
    "grading row of wrong length": (
        "torus = -1 1 1 -1",
        "torus = -1 1 1",
        "grading row grading.torus has wrong length",
    ),
    "non-integer lie dim": ("dim = 1", "dim = one", "lie dim must be an integer"),
    "non-integer degree cap": ("degree_cap = 4", "degree_cap = 4x", "degree_cap must be"),
    "non-integer probe count": ("splitting = 25", "splitting = many", "probe count splitting"),
    "unknown probe count": ("splitting = 25", "splittin = 25", "unknown probe count 'splittin'"),
    "missing poisson section": (
        "[poisson]\nz1 zb1 = 2*i\nz2 zb2 = 2*i\n",
        "",
        "missing section [poisson]",
    ),
    "missing lie section": ("[lie]\ndim = 1\n", "", "missing section [lie]"),
    "missing variable names": ("names = z1 z2 zb1 zb2\n", "", "missing key 'names'"),
    "line without a value": ("[lie]\n", "[lie]\nnot a key value line\n", "malformed config file"),
    "misspelled stage": (
        "stages = load covariance",
        "stages = load acyclicty",
        "unknown stage 'acyclicty'",
    ),
    "missing prerequisite stage": (
        "stages = load covariance strong-invariance acyclicity contraction classical-brst "
        "classical-reduction quantum-brst deformed-restriction equivariance-lemma "
        "quantum-reduction reduced-star",
        "stages = load reduced-star",
        "stage 'reduced-star' needs stage 'classical-reduction'",
    ),
    "zero order": ("order = 3", "order = 0", "order must be at least 1, got 0"),
    "unknown invariant mode": (
        "mode = weights",
        "mode = wieghts",
        "unknown invariant mode 'wieghts'",
    ),
    "unknown star_triples": (
        "star_triples = all",
        "star_triples = al",
        "unknown star_triples 'al'",
    ),
    "zero probe count": (
        "splitting = 25",
        "splitting = 0",
        "probe count splitting must be at least 1, got 0",
    ),
    "moment-map count differs from lie dim": (
        "J1 = 1/2*(z1*zb1 - z2*zb2)\n",
        "J1 = 1/2*(z1*zb1 - z2*zb2)\nJ2 = z1*zb1\n",
        "2 moment-map component(s) for lie dim 1",
    ),
    "zero lie dim": ("dim = 1", "dim = 0", "lie dim must be at least 1, got 0"),
    "structure constant index outside the lie dim": (
        "dim = 1\n",
        "dim = 1\nf.1.2.1 = 1\n",
        "structure constant f.1.2.1 has an index outside 1..1",
    ),
    "structure constant that is not a rational number": (
        "dim = 1\n",
        "dim = 1\nf.1.1.1 = 1/0\n",
        "structure constant f.1.1.1 must be a rational number, got '1/0'",
    ),
    "clifford coefficient that is not a rational number": (
        "star_triples = all",
        "star_triples = all\nclifford_coeff = two",
        "clifford_coeff must be a rational number, got 'two'",
    ),
    "action index outside the lie dim": (
        "J1 z1 = -i*z1",
        "J2 z1 = -i*z1",
        "action component J2 z1 is outside J1..J1",
    ),
    "negative degree bound": (
        "degree_bound = 6",
        "degree_bound = -1",
        "degree_bound must be at least 0, got -1",
    ),
    "poisson entry naming an unknown variable": (
        "z2 zb2 = 2*i",
        "z2 zz2 = 2*i",
        "poisson entry z2 zz2 names unknown variable 'zz2'",
    ),
    "moment-map key other than J<k>": (
        "J1 = 1/2*(z1*zb1 - z2*zb2)",
        "banana = 1/2*(z1*zb1 - z2*zb2)",
        "moment-map key must be J1, J2, ...: 'banana'",
    ),
    "moment-map keys with a gap": (
        "J1 = 1/2*(z1*zb1 - z2*zb2)",
        "J2 = 1/2*(z1*zb1 - z2*zb2)",
        "moment-map keys must be J1..J1: J1 is missing",
    ),
    "invariants key other than g<k>": (
        "degree_cap = 4",
        "degree_cap = 4\ngarbage = z1*zb1",
        "invariants key must be mode, degree_cap or g1, g2, ...: 'garbage'",
    ),
    "invariants key without a number": (
        "degree_cap = 4",
        "degree_cap = 4\ninv = z1*zb1",
        "invariants key must be mode, degree_cap or g1, g2, ...: 'inv'",
    ),
    "invariants key g0": (
        "degree_cap = 4",
        "degree_cap = 4\ng0 = z1*zb1",
        "invariants key must be mode, degree_cap or g1, g2, ...: 'g0'",
    ),
    "action key with a doubled J": (
        "J1 z1 = -i*z1",
        "JJ1 z1 = -i*z1",
        "action key must be 'J<k> variable': 'JJ1 z1'",
    ),
    "action key without a J": (
        "J1 z1 = -i*z1",
        "1 z1 = -i*z1",
        "action key must be 'J<k> variable': '1 z1'",
    ),
    "repeated moment-map key": (
        "J1 = 1/2*(z1*zb1 - z2*zb2)\n",
        "J1 = 1/2*(z1*zb1 - z2*zb2)\nJ1 = z1*zb1\n",
        "option 'J1' in section 'moment-map' already exists",
    ),
    "empty stage list": (
        "stages = load covariance strong-invariance acyclicity contraction classical-brst "
        "classical-reduction quantum-brst deformed-restriction equivariance-lemma "
        "quantum-reduction reduced-star",
        "stages =",
        "the stage list is empty: nothing would be evaluated",
    ),
    "unknown scenario key": (
        "degree_bound = 6",
        "degree-bound = 6",
        "unknown key 'degree-bound' in section [scenario]",
    ),
    "unknown variables key": (
        "torus_rows = torus",
        "torus_row = torus",
        "unknown key 'torus_row' in section [variables]",
    ),
    "unknown lie key": ("dim = 1\n", "dim = 1\ng.1.1.1 = 1\n", "unknown key 'g.1.1.1' in section [lie]"),
    "unknown section": ("[invariants]", "[invariant]", "unknown section [invariant]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_rejects_malformed_config(case, tmp_path, capsys):
    old, new, message = MALFORMED[case]
    text = open(CFG).read()
    assert old in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(old, new, 1))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(bad))
    assert main(["run", str(bad), "--format", "text"]) == 2
    assert message in capsys.readouterr().err


def test_moment_map_keys_are_ordered_by_number(tmp_path):
    # ten components: ordered as text, J10 would be read as component 2
    n = 10
    lines = ["[scenario]", "name = ten-pairs", "order = 1", "degree_bound = 2", "stages = load"]
    lines += ["[variables]", "names = " + " ".join(f"q{k} p{k}" for k in range(1, n + 1))]
    lines += ["[poisson]"] + [f"q{k} p{k} = 1" for k in range(1, n + 1)]
    lines += ["[lie]", f"dim = {n}", "[moment-map]"]
    lines += [f"J{k} = q{k}*p{k}" for k in range(1, n + 1)]
    lines += ["[action]"] + [f"J{k} q{k} = -q{k}" for k in range(1, n + 1)]
    path = tmp_path / "ten.cfg"
    path.write_text("\n".join(lines) + "\n")
    cfg = load_config(str(path))
    assert cfg.moment_map == tuple(f"q{k}*p{k}" for k in range(1, n + 1))
    calibration = [r for r in run_scenario(cfg).records if r.check_id == "load.calibration"]
    assert [(r.status, r.probes) for r in calibration] == [("pass", n)]


def test_invariant_keys_are_ordered_by_number(tmp_path):
    # ten declared invariants, written g10 first: as text, g10 came before g2
    text = open(CFG).read()
    decl = "\n".join(f"g{k} = (z1*zb1)^{k}" for k in range(10, 0, -1))
    path = tmp_path / "ten.cfg"
    path.write_text(text.replace("mode = weights", "mode = declared\n" + decl, 1))
    cfg = load_config(str(path))
    assert cfg.invariant_mode == "declared"
    assert cfg.declared_invariants == tuple(f"(z1*zb1)^{k}" for k in range(1, 11))


def test_omitted_config_keys_keep_the_scenario_config_defaults(tmp_path):
    # only the required sections and keys: every other field is ScenarioConfig's default
    lines = ["[scenario]", "[variables]", "names = q p", "[poisson]", "q p = 1", "[lie]"]
    path = tmp_path / "minimal.cfg"
    path.write_text("\n".join(lines + ["[moment-map]", "J1 = q*p"]) + "\n")
    cfg = load_config(str(path))
    given = {
        "name": "unnamed",
        "variables": ("q", "p"),
        "poisson_entries": (("q", "p", "1"),),
        "moment_map": ("q*p",),
    }
    for f in dataclasses.fields(ScenarioConfig):
        expected = given[f.name] if f.name in given else f.default
        assert getattr(cfg, f.name) == expected, f.name


def test_scenario_config_rejects_unknown_stage():
    # the registry path: before validation an unknown stage was dropped silently
    with pytest.raises(ConfigError, match="unknown stage 'reduced_star'"):
        ScenarioConfig(name="x", stages=("load", "reduced_star"))


@pytest.mark.parametrize(
    "fields, message",
    [
        (
            {"grading_names": ("deg",), "gradings": ((1,),)},
            "grading row grading.deg has wrong length",
        ),
        ({"torus_rows": (3,)}, "torus row 3 is not the index of a grading row"),
        (
            {"grading_names": ("qdeg", "pdeg"), "gradings": ((1, 0),)},
            "2 name(s) for 1 grading row(s)",
        ),
    ],
)
def test_scenario_config_rejects_malformed_gradings(fields, message):
    # the registry path, which no config file reader checks: each would
    # otherwise surface late, as a bare ValueError out of run_scenario, an
    # IndexError in the config echo, or an echo that drops a name
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(get_scenario("negative-control-qq"), **fields)


def test_cli_check_single_stage(capsys):
    rc = main(["check", "acyclicity", "negative-control-qq"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "acyclicity.H1" in out
    records = re.findall(r"^  \[[A-Z -]+\] +(\S+)", out, re.MULTILINE)
    assert records and all(r.startswith("acyclicity.") for r in records), records
    rc = main(["check", "covariance", "cubic-moment-map"])
    assert rc == 0


def test_cli_check_never_passes_a_stage_it_did_not_evaluate(capsys):
    # a stage the scenario does not configure: a usage error naming both
    rc = main(["check", "reduced-star", "broken-sign-star"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "reduced-star" in captured.err and "broken-sign-star" in captured.err
    assert "verdict: PASS" not in captured.out
    # a stage after a failed one: a failed check naming the failed stage
    rc = main(["check", "contraction", "negative-control-qq"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "'acyclicity' failed" in captured.err
    assert "verdict: PASS" not in captured.out + captured.err


def test_cli_check_evaluates_each_stage_once(monkeypatch, capsys):
    # the failed stage is named from the same run, not from a second full run
    calls = []
    acyclicity = runner.STAGE_FUNCTIONS["acyclicity"]

    def counted(state):
        calls.append(state.config.name)
        return acyclicity(state)

    monkeypatch.setitem(runner.STAGE_FUNCTIONS, "acyclicity", counted)
    assert main(["check", "contraction", "negative-control-qq"]) == 1
    assert "'acyclicity' failed" in capsys.readouterr().err
    assert calls == ["negative-control-qq"]


def test_only_stage_records_equal_the_full_run():
    untimed = lambda records: [dataclasses.replace(r, wall_time_s=0.0) for r in records]
    names = ("negative-control-qq", "cubic-moment-map", "broken-sign-star")
    configs = [get_scenario(n) for n in names]
    # structure constants that fail the Jacobi identity: an engine error at load
    configs.append(
        dataclasses.replace(
            get_scenario("commuting-n3"), structure_constants=((1, 2, 1, "1"), (1, 3, 2, "1"))
        )
    )
    statuses = set()
    for cfg in configs:
        full = untimed(run_scenario(cfg).records)
        statuses.update(r.status for r in full)
        for stage in STAGE_ORDER:
            # the run ends after the stage: the full run's records through it
            through = STAGE_ORDER[: STAGE_ORDER.index(stage) + 1]
            only = untimed(run_scenario(cfg, only_stage=stage).records)
            assert only == [r for r in full if r.stage in through], (cfg.name, stage)
    # between them: not-attempted, skipped, error and failing records
    assert statuses >= {"not-attempted", "skipped", "error", "fail"}


def test_invalid_lie_data_is_reported_not_raised():
    from dataclasses import replace

    base = get_scenario("commuting-n3")
    bad = replace(base, structure_constants=((1, 2, 1, "1"), (1, 3, 2, "1")))
    report = run_scenario(bad)
    assert report.verdict == "fail"
    errors = [r for r in report.records if r.status == "error"]
    assert errors and "Jacobi" in (errors[0].witness or "")
    # a rescaled-basis variant stays a Lie algebra but breaks equivariance
    rescaled = replace(
        base, structure_constants=((1, 2, 3, "1"), (2, 3, 1, "1"), (3, 1, 2, "2"))
    )
    report = run_scenario(rescaled)
    rec = {r.check_id: r for r in report.records}
    assert rec["load.lie"].status == "pass"
    assert rec["load.equivariance"].status == "fail"


def test_parameterized_builders():
    from redstar.scenarios import angular_momentum

    # other parameter values build and pass the structural stages
    cfg = t2_c4(alpha=-2, beta=3)
    report = run_scenario(cfg, only_stage="acyclicity")
    assert report.verdict == "pass", [
        (r.check_id, r.witness) for r in report.records if not r.passed
    ]

    cfg = angular_momentum(m=1)
    assert len(cfg.variables) == 4
    report = run_scenario(cfg, only_stage="acyclicity")
    assert report.verdict == "pass"


def test_conjugation_scenarios_read_one_so_n_table():
    from redstar.scenarios import SO_AXES, SO_STRUCTURE, commuting_variety

    for n in (2, 3):
        cfg = get_scenario(f"commuting-n{n}")
        assert cfg.lie_dim == len(SO_AXES[n]) == len(cfg.moment_map)
        assert cfg.structure_constants == SO_STRUCTURE[n]
    with pytest.raises(ConfigError, match="only n = 2 and n = 3 are configured"):
        commuting_variety(4)


def test_run_scenario_with_overrides():
    cfg = get_scenario("cubic-moment-map")
    report = run_scenario(cfg, order=3, degree_bound=5)
    assert report.config_echo["order"] == 3
    assert report.config_echo["degree_bound"] == 5
    with pytest.raises(ConfigError, match="order must be at least 1"):
        run_scenario(cfg, order=0)


def test_check_wall_time_covers_building_its_residuals(monkeypatch):
    import time
    from dataclasses import replace

    import redstar.runner

    original = redstar.runner.check_quantum_covariance

    def slow(*args):
        time.sleep(0.2)
        return original(*args)

    monkeypatch.setattr(redstar.runner, "check_quantum_covariance", slow)
    cfg = replace(get_scenario("cubic-moment-map"), stages=("load", "covariance"))
    rec = {r.check_id: r for r in run_scenario(cfg).records}
    assert rec["covariance.pairs"].wall_time_s >= 0.2
