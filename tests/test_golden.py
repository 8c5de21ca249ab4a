"""Plans on the archetype corpus stay the same from one change to the next.

Each case solves one archetype scenario with a 600 s deadline, which no
case comes near, so no wall-clock trigger fires and the outcome is fixed
by the input alone. A SHA-256 of its status, removed ids, cost, paths and
conflict log is compared with the digest recorded below. A change that
alters a plan on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which plans changed and why.
"""

import hashlib
import json

import pytest

from sitepath.cbs import solve
from sitepath.mapgen import archetype_scenario

GOLDEN = {
    ("archetype-1-open-20", 3):
        "48c46b7e66b6b407112bd733c029845c338ef2ac86555b728c528d5ca4b94a56",
    ("archetype-1-open-20", 4):
        "3024c3341ac5c4cba9e9ec58c9748b91b501cbeeadddf3072c01738d859e256f",
    ("archetype-1-open-20", 5):
        "cad8df8d98c088e027d5874092fc72f4975494dc449a6e3314f32268fc103adf",
    ("archetype-3-obstacles", 3):
        "af7c059a6eca0262db98a6adbb7dcf1c11bde46fe7ed81a402394fd43bfac078",
    ("archetype-3-obstacles", 4):
        "33a757ab3ac1163d43ee9b70b011f8fa88b7a1acb06a740160ba83f1c4981886",
    ("archetype-3-obstacles", 5):
        "317d6021753cb8c4affbc43d4c7c7c702cfd30d85694645a1e727828dc4bbf05",
    ("archetype-4-bridge", 3):
        "1a6550db0e6a6665697b18e2056bf3b28632d5930bb73ba7f1eec477a0a12d7e",
    ("archetype-4-bridge", 4):
        "79e93c2035eeb8c473ba5c9ad3b4d15edaf4ecf6de94a5d1eb493409ac16be3b",
    ("archetype-4-bridge", 5):
        "0c86aa252ba0e44b18ce5e6bda1bfa384984748ebd2734f1df49758e4f8ae80c",
    ("archetype-5-mining", 3):
        "bef7f8982d62159ca60c684bbc5863e32a5fdd6462fbe81a9d791e596ca0fa6e",
    ("archetype-5-mining", 4):
        "88e65bcb6d4068ca40ca62bd13badf574966b2d7afc6e89f4d7e4a1572a4ba16",
    ("archetype-5-mining", 5):
        "be3a5ca249049374518573e6c3322eaff5ccbfa88f8cfa09984a4a6f36a2268a",
}


def outcome_digest(name: str, seed: int) -> str:
    result = solve(archetype_scenario(name, seed, deadline_s=600))
    outcome = {
        "status": result.status,
        "removed": result.removed_agents,
        "cost": repr(result.total_cost),
        "paths": {i: p.cells for i, p in sorted(result.schedule.items())},
        "conflicts": [
            [c.kind, c.agents, c.location, c.time, c.phase] for c in result.conflict_log
        ],
    }
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_archetype_outcome_unchanged(name, seed):
    assert outcome_digest(name, seed) == GOLDEN[name, seed]


if __name__ == "__main__":
    for name, seed in sorted(GOLDEN):
        print(f'    ("{name}", {seed}):\n        "{outcome_digest(name, seed)}",')
