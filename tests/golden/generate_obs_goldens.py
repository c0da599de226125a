"""Regenerate tests/golden/obs_parity.json.

Run from the repo root::

    PYTHONPATH=src:tests python tests/golden/generate_obs_goldens.py

The file pins what observability sees of a serving run — metric
values, batch spans and the timeline — independently of *how* the
simulator produces them.  It was generated while the serving loop still
fed metrics, spans and the timeline recorder on every event; the
post-run derivation from the request table must reproduce it exactly.
Only regenerate when a scenario is intentionally added or changed,
never to paper over a drift.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from obs.obs_scenarios import SCENARIOS  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent / "obs_parity.json"


def main() -> None:
    goldens = {}
    for name, fn in SCENARIOS.items():
        goldens[name] = fn()
        print(f"{name}: {goldens[name]['batch_spans']} batch spans, "
              f"metrics={goldens[name]['metrics_sha256'][:12]}")
    OUT.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
