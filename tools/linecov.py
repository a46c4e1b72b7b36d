"""Which code of the redstar package does nothing execute?

    python tools/linecov.py [--tests]

runs every registry scenario at its benchmark size (the degree bound and
probe counts of `perfbench/workloads.py`, at its default seed, as
`perfbench/child.py` runs them) in this interpreter, under a `sys.settrace`
line tracer that traces only the files of the `redstar` package.  With
`--tests` it then also runs the tier-1 suite (`tests/`) in-process through
`pytest.main`.  It prints, per function, the code lines (the rule of
`tools/src_lines.py`: no blank, comment or docstring lines) of the
statements that nothing executed.
A function that nothing entered is one line with its count; any other
function lists its unexecuted lines with their text, and `raise` marks a
line of a raise statement.  The last line sums it up.  The line numbers and
texts are those of the package files as read before the traced work starts,
so a file edited during a long `--tests` run is still reported as it ran.

Only function bodies count: module and class bodies run at import.  A
statement counts as executed when the tracer saw any line of it (for a
compound statement, any line of its header); lines that no statement owns,
such as `else:` and `finally:`, are not counted.  The package is imported
from the `src` directory next to this script, and
`perfbench/workloads.py` is read, never changed.  Nothing here changes a
report.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib.util
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
PACKAGE = os.path.join(ROOT, "src", "redstar")
COMPOUND = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try,
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = _load("src_lines", os.path.join(ROOT, "tools", "src_lines.py"))


def benchmark_runs():
    """(seed, run) of every workload run, in `perfbench/workloads.py` order."""
    workloads = _load("perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    return [(workloads.DEFAULT_SEED, run) for runs in workloads.WORKLOADS.values() for run in runs]


def read_package():
    """{file: source text} of every module of the package."""
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read()
    return sources


def trace(fn):
    """Run fn() under a line tracer of the package; returns {file: executed line numbers}."""
    hits = {}
    tracers = {}  # code file name -> its line tracer, None outside the package

    def local(lines):
        def tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return tracer

        return tracer

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.abspath(name)
            inside = os.path.dirname(path) == PACKAGE
            tracers[name] = local(hits.setdefault(path, set())) if inside else None
        return tracers[name]

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return hits


def _header_end(node):
    """The last line of a statement's own span: its header for a compound statement."""
    if isinstance(node, COMPOUND):
        return node.body[0].lineno - 1
    return node.end_lineno


def _start(node):
    decorators = getattr(node, "decorator_list", ())
    return min([node.lineno] + [d.lineno for d in decorators])


def _statements(body):
    """(start line, end line, is raise) of every statement a function body owns.

    Descends into compound statements and except handlers, never into a
    nested function or class body: their headers belong to this body.
    """
    for node in body:
        yield _start(node), _header_end(node), isinstance(node, ast.Raise)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, block, ()))
        for handler in getattr(node, "handlers", ()):
            yield handler.lineno, handler.body[0].lineno - 1, False
            yield from _statements(handler.body)


def _functions(tree, prefix=""):
    """(qualified name, node) of every function in a tree, methods and nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def unexecuted(hits, sources):
    """{(module, function): (entered, code lines, [(line, is raise), ...])} for every function.

    `sources` is `read_package()` as read before the traced work.  The list
    holds the code lines of the statements that no line event reached;
    `entered` is whether any statement of the function ran.
    """
    out = {}
    for path, source in sources.items():
        name = os.path.basename(path)
        code = src_lines.code_line_numbers(source)
        executed = hits.get(path, set())
        for qualname, node in _functions(ast.parse(source)):
            owned, missed = set(), []
            for start, end, is_raise in _statements(node.body):
                lines = set(range(start, end + 1)) & code
                owned |= lines
                if not lines & executed:
                    missed += [(n, is_raise) for n in sorted(lines)]
            if owned:
                out[(name[:-3], qualname)] = (bool(owned & executed), len(owned), sorted(missed))
    return out


def run_tests():
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    if code not in (0, 1):
        raise SystemExit(f"pytest exited with {code}")


def census(tests=False):
    """(`unexecuted` after the benchmark runs, and the tier-1 suite if `tests`; the sources).

    The package is first imported inside the trace, unless it was imported
    before (as in a test process): then a function that runs only at import
    reads as never entered.
    """
    def work():
        from redstar.runner import run_scenario
        from redstar.scenarios import REGISTRY_BUILDERS

        for seed, run in benchmark_runs():  # as `perfbench/child.py` runs and renders one
            config = dataclasses.replace(
                REGISTRY_BUILDERS[run.scenario](), seed=seed, probe_overrides=tuple(run.probes)
            )
            run_scenario(config, degree_bound=run.degree_bound).to_json()
        if tests:
            run_tests()

    sources = read_package()
    return unexecuted(trace(work), sources), sources


def render(result, sources):
    """The census as text lines, with the line texts of `sources`."""
    out = []
    never = partial = raises = 0
    for (module, qualname), (entered, total, missed) in result.items():
        if not missed:
            continue
        if not entered:
            never += len(missed)
            out.append(f"{module}.{qualname}: never entered, {total} code lines")
            continue
        partial += len(missed)
        raises += sum(r for _, r in missed)
        out.append(f"{module}.{qualname}: {len(missed)} of {total} code lines unexecuted")
        text = sources[os.path.join(PACKAGE, f"{module}.py")].splitlines()
        for n, is_raise in missed:
            out.append(f"  {n:5d} {'raise' if is_raise else '     '}  {text[n - 1].strip()}")
    out.append(
        f"total: {never} code lines in functions never entered; {partial} unexecuted "
        f"in entered functions, {raises} of them in raise statements"
    )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also run the tier-1 tests")
    args = parser.parse_args(argv)
    print("\n".join(render(*census(args.tests))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
