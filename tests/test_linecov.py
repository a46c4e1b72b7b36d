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


def test_census_of_a_package(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    monkeypatch.setattr(linecov, "PACKAGE", str(package))
    spec = importlib.util.spec_from_file_location("mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    result = linecov.unexecuted(linecov.trace(lambda: mod.used(1)))
    assert result == {
        ("mod", "used"): (True, 5, [(7, True), (8, True), (9, True)]),
        ("mod", "unused"): (False, 1, [(14, False)]),
    }
    text = linecov.render(result)
    assert text[0] == "mod.used: 3 of 5 code lines unexecuted"
    assert text[1].split() == ["7", "raise", "raise", "ValueError("]
    assert "mod.unused: never entered, 1 code lines" in text
    assert text[-1] == (
        "total: 1 code lines in functions never entered; 3 unexecuted "
        "in entered functions, 3 of them in raise statements"
    )


def test_census_of_one_scenario():
    config = REGISTRY_BUILDERS["cubic-moment-map"]()
    result = linecov.unexecuted(linecov.trace(lambda: run_scenario(config, degree_bound=4)))
    # every stage runs load; its unexecuted lines include the raise of rejected Lie data
    entered, total, missed = result[("runner", "stage_load")]
    assert entered and len(missed) < total
    assert any(is_raise for _, is_raise in missed)
    # one small scenario leaves some function of the package never entered
    assert any(not entered for entered, _, _ in result.values())
