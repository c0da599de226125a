"""Observability parity gate for the serving loop.

``tests/golden/obs_parity.json`` was generated while the serving loop
still fed the metrics registry, the span tracer and the timeline
recorder on every event.  Telemetry is now derived from the request
table and the batch log after the run; every fingerprint (report and
timeline digests, label-keyed metric values, the batch-span multiset)
must match bit for bit.  Regenerate only for a deliberate scenario
change::

    PYTHONPATH=src:tests python tests/golden/generate_obs_goldens.py
"""

import json
from pathlib import Path

import pytest

from .obs_scenarios import SCENARIOS

GOLDEN = Path(__file__).parent.parent / "golden" / "obs_parity.json"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(goldens):
    assert sorted(goldens) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_obs_parity(name, goldens):
    got = SCENARIOS[name]()
    pinned = goldens[name]
    for key in sorted(pinned):
        assert got[key] == pinned[key], f"{name}: {key} drifted"
