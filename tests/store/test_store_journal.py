"""PlanStore manifest crash consistency: snapshot + fsynced journal.

Registrations, removals and stale sweeps are durable once they return;
a process killed at any byte of a journal append reopens to exactly
the index after the last complete record, a leftover journal over a
newer snapshot changes nothing, and a corrupt complete line is
quarantined and the index rebuilt from the objects.
"""

import json
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fsutil
from repro.compile.pipeline import compile_fixed
from repro.hardware.variants import spec_by_name
from repro.store.plan_store import (
    MANIFEST_NAME,
    STORE_SCHEMA,
    STORE_VERSION,
    PlanStore,
)
from repro.tuning import fleet_catalog, run_fleet

PLANS = [
    ("lenet", "raspberry-pi-4", 1),
    ("lenet", "raspberry-pi-4", 2),
    ("lenet", "jetson-agx-xavier", 1),
    ("fcnn", "raspberry-pi-4", 1),
]


@lru_cache(maxsize=None)
def artifact(index):
    network, device, batch = PLANS[index]
    return compile_fixed(
        network, spec_by_name(device), placement="cpu", batch_size=batch
    ).artifact


def index_of(store):
    return {slug: entry.to_dict() for slug, entry in store.entries().items()}


def apply_op(store, op, index):
    art = artifact(index)
    if op == "put":
        store.put(art)
    elif op == "put-stale":
        # Tuned under an older cost model: stale for this build.
        with mock.patch(
            "repro.store.plan_store.cost_model_fingerprint",
            return_value="0" * 64,
        ):
            store.put(art)
    elif op == "remove":
        store.remove(art.key)
    elif op == "sweep":
        store.sweep_stale()
    elif op == "get":
        store.get(art.key)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "put-stale", "remove", "sweep", "get"]),
        st.integers(0, len(PLANS) - 1),
    ),
    max_size=12,
)


def oracle(snapshot_text, journal_bytes):
    index = dict(json.loads(snapshot_text)["entries"])
    complete = journal_bytes[: journal_bytes.rfind(b"\n") + 1]
    for line in complete.splitlines():
        entry = json.loads(line)
        if entry["record"] is None:
            index.pop(entry["id"], None)
        else:
            index[entry["id"]] = entry["record"]
    return index


def run_ops(root, ops):
    """Run ``ops``; return the store and [(journal bytes, index)] after
    every transition since the last snapshot write."""
    store = PlanStore(root)
    log = fsutil.journal_path(store.manifest_path)
    history = []
    snapshot = None
    for op, index in ops:
        apply_op(store, op, index)
        data = log.read_bytes() if log.exists() else b""
        if store.manifest_path.read_bytes() != snapshot or (
            history and len(data) < len(history[-1][0])
        ):
            snapshot = store.manifest_path.read_bytes()
            history = []  # older journal prefixes describe no file
        history.append((data, index_of(store)))
    return store, history


class TestTornJournal:
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS)
    def test_every_truncation_loads_the_last_complete_record(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            store, history = run_ops(root, [("put", 0)] + ops)
            log = fsutil.journal_path(store.manifest_path)
            snapshot = store.manifest_path.read_text()
            full = log.read_bytes() if log.exists() else b""
            for data, index in history:
                assert full.startswith(data)
                assert oracle(snapshot, data) == index
            assert index_of(PlanStore(root)) == index_of(store)
            for cut in range(len(full) + 1):
                log.write_bytes(full[:cut])
                reopened = PlanStore(root)
                assert index_of(reopened) == oracle(snapshot, full[:cut])
                assert reopened.quarantined == 0


class TestLeftoverJournal:
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS)
    def test_replay_over_a_newer_snapshot_is_a_no_op(self, ops):
        """Removals (tombstones) and stale sweeps included."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            with mock.patch.object(fsutil.os, "unlink", lambda p: None):
                store, _ = run_ops(root, [("put", 0)] + ops)
                assert index_of(PlanStore(root)) == index_of(store)
                store.compact()
            assert index_of(PlanStore(root)) == index_of(store)

    def test_tombstone_survives_a_leftover_journal(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        for index in range(3):
            store.put(artifact(index))
        store.compact()
        store.remove(artifact(1).key)
        log = fsutil.journal_path(store.manifest_path)
        leftover = log.read_bytes()
        assert b'"record":null' in leftover
        store.compact()
        log.write_bytes(leftover)
        assert index_of(PlanStore(store.root)) == index_of(store)
        assert not PlanStore(store.root).contains(artifact(1).key)


class TestCorruptJournal:
    def test_corrupt_middle_line_quarantines_and_rebuilds(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        for index in range(4):
            store.put(artifact(index))
        log = fsutil.journal_path(store.manifest_path)
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        lines[1] = b"not json\n"
        log.write_bytes(b"".join(lines))

        reopened = PlanStore(store.root)
        assert index_of(reopened) == index_of(store)
        assert not log.exists()
        (record,) = reopened.quarantine_records()
        assert "manifest journal" in str(record["reason"])
        assert "line 2" in str(record["reason"])

    def test_malformed_entry_record_quarantines_and_rebuilds(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        store.put(artifact(0))
        store.put(artifact(1))
        log = fsutil.journal_path(store.manifest_path)
        entry = json.loads(log.read_bytes())
        entry["record"] = {"sha256": "x"}
        log.write_text(json.dumps(entry) + "\n")
        reopened = PlanStore(store.root)
        assert index_of(reopened) == index_of(store)
        assert reopened.quarantine_records()


class TestFinishedFleet:
    def test_leaves_no_journal_and_todays_manifest_bytes(self, tmp_path):
        jobs = fleet_catalog(
            networks=["lenet"],
            devices=["jetson-agx-xavier", "raspberry-pi-4"],
            batch_sizes=(1, 2),
        )
        root = tmp_path / "store"
        report = run_fleet(root, jobs, workers=2, seed=0)
        assert report.completed == len(jobs)
        assert sorted(root.glob("*.log")) == []
        store = PlanStore(root)
        doc = {
            "schema": STORE_SCHEMA,
            "version": STORE_VERSION,
            "entries": {
                slug: entry.to_dict()
                for slug, entry in store.entries().items()
            },
        }
        assert len(doc["entries"]) == len(jobs)
        assert (root / MANIFEST_NAME).read_text() == (
            json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )
