"""Byte pins on every experiment's default-seed rendered table.

Each digest is the sha256 of ``run_experiment(id, seed=2019).rendered``.
A change that moves one of them changes what that experiment reports, and
has to say so and why.  The tier-1 suite checks every experiment except
A1, whose default trial takes about 25 s; CI's perf-smoke job checks A1
on its own step (``python -m tests.experiments.test_table_pins A1``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.experiments.report import EXPERIMENT_SPECS, run_experiment

TABLE_SHA256 = {
    "E1": "c8d6375dadf945e2945750e58faed5b739304f67679f3913f658730b55244b7d",
    "E2": "a0b4ae8d6a3cb25693ea59f74ab4073d679defa991a1fe97c4cec80f70fb9785",
    "E3": "f3fcbb535c7e57e4253f421f55803f23e19aead1e2b1520c42004d94d4d2d7b0",
    "E4": "c01648411cfc53c2925fb6858c6ab3e1435f451480327d98fc16618b6293421d",
    "E5": "02d1cf490e04e6f2caf55b8834cc457ceb12e63fa038d935ce8f16db17b94aaf",
    "E6": "4c7e3fe86f6b3af9e814a99b0b7903b44ba038f4b3d174789329dd6fcb530012",
    "E7": "87cf6f5ebd875621f04028d52d63a1414786c93b4c1d732a1b05c35aaac9b6e4",
    "E8": "e43d245d54d2dc64c107706379f8fa0243c18c00a690d8cb8b74a5661f94d272",
    "E9": "843a7ea6483d43ba23fdc7189ff65a4e0ab0b60b7e041b2a3b09eec2213bda41",
    "E10": "034466cacbfdcb48eb1c5da3e05bd091ce950b4f16c2a6d1f64460ab3d85bfcd",
    "E11": "0601f025839a07883a55d241f4dc390d191fe4134f9aeeadfbb2a5501994778e",
    "A1": "cbd64deadceffd1740b5d106a6eb37425065d4a70dfdab4aa9198d18292e6314",
    "A2": "b21fd2e50ae41261b477d9a7c9de03fcc3da4274a14180c7a35175b345768201",
}

#: Pinned outside the tier-1 suite because of its cost.
SLOW = ("A1",)

DETERMINISM_PINS = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "expected_determinism.json"
)


def table_sha256(experiment_id: str) -> str:
    rendered = run_experiment(experiment_id, seed=2019).rendered
    return hashlib.sha256(rendered.encode()).hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(TABLE_SHA256) == sorted(s.experiment_id for s in EXPERIMENT_SPECS)


def test_pins_agree_with_the_determinism_block():
    pinned = json.loads(DETERMINISM_PINS.read_text())
    assert pinned["e1_table_sha256"] == TABLE_SHA256["E1"]
    assert pinned["e9_table_sha256"] == TABLE_SHA256["E9"]


@pytest.mark.parametrize(
    "experiment_id", [eid for eid in TABLE_SHA256 if eid not in SLOW]
)
def test_table_matches_pin(experiment_id):
    assert table_sha256(experiment_id) == TABLE_SHA256[experiment_id]


if __name__ == "__main__":
    failed = 0
    for experiment_id in sys.argv[1:] or SLOW:
        digest = table_sha256(experiment_id)
        ok = digest == TABLE_SHA256[experiment_id]
        failed += not ok
        print(f"{experiment_id}: {digest} {'ok' if ok else 'MOVED'}")
    sys.exit(1 if failed else 0)
