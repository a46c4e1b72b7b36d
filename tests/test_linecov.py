"""`tools/linecov.py` reports the code of the package that nothing executed."""

import importlib.util
import os

from redstar.runner import run_scenario
from redstar.scenarios import REGISTRY_BUILDERS

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "linecov.py")
spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)

MODULE = '''"""A module with one function that runs and one that never does."""


def used(x):
    # a comment is no code line
    if x < 0:
        raise ValueError(
            "negative"
        )
    return x


def unused():
    return 1
'''


def package_module(tmp_path, monkeypatch):
    """MODULE as mod.py of a package that `linecov` censuses, imported."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    monkeypatch.setattr(linecov, "PACKAGE", str(package))
    spec = importlib.util.spec_from_file_location("mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return package / "mod.py", mod


CENSUS = {
    ("mod", "used"): (True, 5, [(7, True), (8, True), (9, True)]),
    ("mod", "unused"): (False, 1, [(14, False)]),
}


def test_census_of_a_package(tmp_path, monkeypatch):
    _, mod = package_module(tmp_path, monkeypatch)
    sources = linecov.read_package()
    result = linecov.unexecuted(linecov.trace(lambda: mod.used(1)), sources)
    assert result == CENSUS
    text = linecov.render(result, sources)
    assert text[0] == "mod.used: 3 of 5 code lines unexecuted"
    assert text[1].split() == ["7", "raise", "raise", "ValueError("]
    assert "mod.unused: never entered, 1 code lines" in text
    assert text[-1] == (
        "total: 1 code lines in functions never entered; 3 unexecuted "
        "in entered functions, 3 of them in raise statements"
    )


def test_a_file_edited_during_the_traced_work_is_reported_as_it_ran(tmp_path, monkeypatch):
    path, mod = package_module(tmp_path, monkeypatch)

    def work():
        mod.used(1)
        path.write_text("# an edit made while the work runs\n" * 3 + MODULE)

    sources = linecov.read_package()
    result = linecov.unexecuted(linecov.trace(work), sources)
    assert result == CENSUS
    assert linecov.render(result, sources)[1].split() == ["7", "raise", "raise", "ValueError("]


def test_census_of_one_scenario():
    config = REGISTRY_BUILDERS["cubic-moment-map"]()
    traced = linecov.trace(lambda: run_scenario(config, degree_bound=4))
    result = linecov.unexecuted(traced, linecov.read_package())
    # every stage runs load; its unexecuted lines include the raise of rejected Lie data
    entered, total, missed = result[("runner", "stage_load")]
    assert entered and len(missed) < total
    assert any(is_raise for _, is_raise in missed)
    # one small scenario leaves some function of the package never entered
    assert any(not entered for entered, _, _ in result.values())
