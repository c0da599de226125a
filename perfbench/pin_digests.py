"""Regenerate ``pins.json``: the digests benchmark runs must reproduce.

Run from the repository root, only for a change that is meant to alter
simulated results (a performance change must leave every pin intact)::

    python3 perfbench/pin_digests.py

The simulator workloads are pinned per seed, 0 .. ``PINNED_SEEDS``-1
(report digests); the tune-fleet manifest does not depend on the seed
and is pinned once.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workload_defs import PINNED_SEEDS, PINS_PATH, WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".perfbench-work"


def digest_of(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    outcome = workload.run(workload.setup(seed, "bench", WORKDIR))
    if outcome.failures:
        raise SystemExit(f"{name} seed {seed}: {outcome.failures}")
    return outcome.digest


def main() -> int:
    pins = {}
    try:
        for name in WORKLOADS:
            if name == "tune-fleet-cold":
                pins[name] = {"any": digest_of(name, 0)}
                continue
            pins[name] = {str(seed): digest_of(name, seed)
                          for seed in range(PINNED_SEEDS)}
            print(f"{name}: {PINNED_SEEDS} seeds pinned", flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
