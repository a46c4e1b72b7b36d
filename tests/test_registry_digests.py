"""Every registry scenario's report at registry size, pinned by its digest.

`tests/test_golden_reports.py` pins the reports at the benchmark's smaller
sizes; this test pins them at the sizes the registry builders declare, with
the default seed and probe counts, by the same timing-stripped digest.

When a change alters records on purpose (ROADMAP item 6), regenerate the
table and paste it below, saying in the change's notes which records moved:

    PYTHONPATH=src python tests/test_registry_digests.py
"""

import pytest

from redstar.runner import run_scenario
from redstar.scenarios import REGISTRY_BUILDERS
from test_golden_reports import stripped_digest

DIGESTS = {
    "s1-c4": "ad4cb74ef11a5d1bdff3345afb48509423b4fa53a47c0393bdadcefc1c029af5",
    "t2-c4": "6d9949a19426c737d5250befc2498d865aeb163fa84202ac9b3d835225ffe0fe",
    "angular-momentum-m2": "368c471ecec94b25045e3c4fe99511785cd06709ff4f808077e87405889cb178",
    "commuting-n2": "185221df30ad24ceaae00537c66b364d53ff49a7e5c01c47777ee51852cd1fb6",
    "commuting-n3": "3ad241609d8cc1671b83b489df625786f83dd66e521ec793aea790f96fcd8cf9",
    "negative-control-qq": "64de8269f73fffc39c1caa1a2cc279a7663cf484cfbcdc1cc7763c94563b12ad",
    "broken-sign-star": "946113990a68e3f81aa5b686d485e254bd6b781e0a14a4c697094770ffe0651e",
    "cubic-moment-map": "a1e11c47b713ad4f02d36f13ef946c11a1179b96262eb2c95cefa6c7bf7c8f22",
}


def test_every_registry_scenario_is_pinned():
    assert set(DIGESTS) == set(REGISTRY_BUILDERS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_registry_report_digest(name):
    assert stripped_digest(run_scenario(REGISTRY_BUILDERS[name]())) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name, build in REGISTRY_BUILDERS.items():
        print(f'    "{name}": "{stripped_digest(run_scenario(build()))}",')
    print("}")
