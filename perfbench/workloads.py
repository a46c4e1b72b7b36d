"""The benchmark's workloads: which registry scenarios run, and at what size.

Every workload runs registry configurations from
`redstar.scenarios.REGISTRY_BUILDERS`, one scenario per fresh interpreter.
Each scenario runs at a reduced degree bound (the `redstar run --degree`
knob) and with fewer random probes (the config file's `[checks]` knob),
because at the registry's own size one pass of `circle` takes about 77 s
(2-core Xeon at 2.1 GHz, Python 3.11), which no benchmark run of this
length can repeat.  The sizes keep every registry verdict and failing check
id unchanged, and keep each workload's dominant stage at about its
registry-size share of stage time (README.md has the measured shares):
reduced-star on circle, acyclicity plus contraction on torus, quantum-brst
on rational.
"""

from __future__ import annotations

from collections import namedtuple

DEFAULT_SEED = 7  # the registry's own ScenarioConfig.seed

# Probe counts per check family, replacing DEFAULT_PROBES in redstar.scenarios.
# strong_invariance keeps its registry count of 20: with 4 probes the
# cubic-moment-map control misses its nu^3 violation at about a third of seeds.
FEW_PROBES = (
    ("contraction", "5"),
    ("splitting", "5"),
    ("restriction", "4"),
    ("lemma", "4"),
    ("ideal", "4"),
    ("associativity_sample", "3"),
)

Run = namedtuple("Run", "scenario degree_bound probes")

WORKLOADS = {
    # Gaussian field; reduced-star over bilinear transfers on reused Moyal
    # operands dominates.  The negative control guards the quantum splitting.
    "circle": (
        Run("s1-c4", 4, FEW_PROBES),
        Run("broken-sign-star", 4, FEW_PROBES),
    ),
    # Gaussian field with 3 grading rows; Koszul slice and grade enumeration
    # (acyclicity, contraction) dominate.  Degree 5 is the smallest bound at
    # which t2-c4 still passes; contraction keeps its registry 50 probes and
    # splitting has 20, so the stage shares stay near the registry's.
    "torus": (Run("t2-c4", 5, FEW_PROBES + (("contraction", "50"), ("splitting", "20"))),),
    # Rational field, no Gaussian scalars; Moyal products on one-shot random
    # probes (commuting-n3 quantum-brst, at its registry 50 splitting probes).
    "rational": (
        Run("commuting-n3", 4, FEW_PROBES + (("splitting", "50"),)),
        Run("angular-momentum-m2", 4, FEW_PROBES),
        Run("commuting-n2", 4, FEW_PROBES),
        Run("negative-control-qq", 4, FEW_PROBES),
        Run("cubic-moment-map", 4, FEW_PROBES),
    ),
}

# Layer microbenchmark inputs come from the contexts these scenarios build, at
# this degree bound: s1-c4 for the Gaussian workloads, commuting-n3 for rational.
MICRO_CONTEXT = {"circle": ("s1-c4", 4), "torus": ("s1-c4", 4), "rational": ("commuting-n3", 4)}
