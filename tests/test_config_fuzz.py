"""Malformed config files never crash `redstar check load`.

Line-level mutations of `demos/circle_c2.cfg`: every single mutation (a
line deleted, or its key or value replaced by junk), then seeded compound
ones.  Each mutant must end in exit code 0, 1 or 2 without an exception
escaping `cli.main`, as the exit-code contract says: 0 pass, 1 check
failed, 2 usage or configuration error.
"""

import os
import random

import pytest

from redstar.cli import main

CFG = os.path.join(os.path.dirname(__file__), "..", "demos", "circle_c2.cfg")
with open(CFG, encoding="utf-8") as _fh:
    TEXT = _fh.read()
LINES = TEXT.splitlines()
JUNK = ("1/0", "0", "2*", "(", "z9")
# Replacement keys: junk, plus real keys that the file does not set.
KEYS = JUNK + ("f.1.1.1", "clifford_coeff")

# Inputs that once ended in a traceback, with the exit code each must give.
PINNED = {
    "zero denominator in the moment map": ("J1 = 1/2*(z1*zb1 - z2*zb2)", "J1 = 1/0", 1),
    "zero denominator in the bivector": ("z2 zb2 = 2*i", "z2 zb2 = 1/0", 1),
    "zero denominator in the action": ("J1 z2 = i*z2", "J1 z2 = 1/0", 1),
    "zero denominator in a structure constant": ("dim = 1", "dim = 1\nf.1.1.1 = 1/0", 2),
    "zero moment map": ("J1 = 1/2*(z1*zb1 - z2*zb2)", "J1 = 0", 1),
    "repeated variable name": (
        "names = z1 z2 zb1 zb2\ngrading.torus = -1 1 1 -1\ngrading.holo = 1 1 -1 -1",
        "names = z1 z2 zb1 zb2 z1\ngrading.torus = -1 1 1 -1 -1\ngrading.holo = 1 1 -1 -1 1",
        2,
    ),
    "moment map of mixed torus weight": (
        "J1 = 1/2*(z1*zb1 - z2*zb2)",
        "J1 = 1/2*(z1*zb1 - z2*zb2) + z1",
        1,
    ),
}


def single_mutations():
    for k, line in enumerate(LINES):
        if not line.strip() or line.startswith("#"):
            continue
        yield LINES[:k] + LINES[k + 1 :]
        if "=" in line:
            key, value = line.split("=", 1)
            for junk in KEYS:
                yield LINES[:k] + [f"{junk} ={value}"] + LINES[k + 1 :]
            for junk in JUNK:
                yield LINES[:k] + [f"{key}= {junk}"] + LINES[k + 1 :]


def compound_mutations(count, seed=5):
    rng = random.Random(seed)
    for _ in range(count):
        lines = list(LINES)
        for _ in range(rng.randint(2, 3)):
            k = rng.randrange(len(lines))
            if "=" not in lines[k] or rng.random() < 0.3:
                del lines[k]
                continue
            key, value = lines[k].split("=", 1)
            if rng.random() < 0.5:
                lines[k] = f"{rng.choice(KEYS)} ={value}"
            else:
                lines[k] = f"{key}= {rng.choice(JUNK)}"
        yield lines


def check_load(tmp_path, lines):
    path = tmp_path / "mutant.cfg"
    path.write_text("\n".join(lines) + "\n")
    return main(["check", "load", str(path)])


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_crash_inputs_exit_cleanly(case, tmp_path, capsys):
    old, new, code = PINNED[case]
    assert old in TEXT
    assert check_load(tmp_path, TEXT.replace(old, new, 1).splitlines()) == code
    assert "Traceback" not in capsys.readouterr().err


def test_line_mutations_keep_the_exit_code_contract(tmp_path):
    mutants = list(single_mutations()) + list(compound_mutations(300))
    codes = [check_load(tmp_path, lines) for lines in mutants]
    assert set(codes) <= {0, 1, 2}
    # the mutants reach every outcome, not only usage errors
    assert {0, 1, 2} <= set(codes)
