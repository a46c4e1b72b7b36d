"""`tools/src_lines.py` counts code lines: no blanks, comments or docstrings."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "src_lines.py")
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""
    y = (x +
         1)
    s = """a string
over two lines"""
    return y, s


class C:
    "class docstring"
    z = 1
'''


def test_counts_code_lines_of_a_fixed_snippet():
    # import, def, the two lines of y, the two of s, return, class, z
    assert src_lines.code_lines(SNIPPET) == 9


def test_reports_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["9", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["10", "total"],
    ]


def test_against_prints_both_trees_and_the_difference(tmp_path, monkeypatch, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "pkg").mkdir(parents=True)
    (old / "pkg" / "a.py").write_text(SNIPPET)
    (new / "pkg" / "a.py").write_text(SNIPPET + "w = 2\n")
    (old / "pkg" / "gone.py").write_text("x = 1\ny = 2\n")
    (new / "pkg" / "added.py").write_text("x = 1\n")
    monkeypatch.chdir(new)
    assert src_lines.main(["--against", str(old), "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["9", "10", "+1", os.path.join("pkg", "a.py")],
        ["0", "1", "+1", os.path.join("pkg", "added.py")],
        ["2", "0", "-2", os.path.join("pkg", "gone.py")],
        ["11", "11", "+0", "total"],
    ]
