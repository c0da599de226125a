"""JobQueue crash consistency: snapshot + fsynced journal replay.

A transition is durable once it returns, so a coordinator killed at
any byte of a journal append must reload exactly the state after the
last complete journal record — never a mixture, never an error.
"""

import contextlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fsutil
from repro.core.plan_cache import PlanKey
from repro.errors import ReproError
from repro.faults.resilience import RetryPolicy
from repro.tuning import JobQueue, TuneJob

POOL = 5
SHA = "a" * 64


def make_job(index):
    key = PlanKey(
        network=f"n{index}", device="edge", batch_size=1, precision="fp32",
        use_memory_management=True, use_hybrid_execution=True,
        use_inter_kernel=False, use_intra_kernel=False, objective="latency",
    )
    return TuneJob(key=key, priority=index % 2)


JOBS = [make_job(i) for i in range(POOL)]


def new_queue(path):
    return JobQueue(
        path,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_s=0.5, max_delay_s=2.0
        ),
        lease_timeout_s=3.0,
    )


def state_of(queue):
    return {job.job_id: job.to_dict() for job in queue.jobs()}


def apply_op(queue, op, arg, now):
    """One transition; protocol-illegal ones raise and persist nothing."""
    job_id = JOBS[arg].job_id
    with contextlib.suppress(ReproError):
        if op == "claim":
            queue.claim(f"w{arg % 2}", now)
        elif op == "complete":
            queue.complete(job_id, SHA, now)
        elif op == "fail":
            queue.fail(job_id, "boom", now)
        elif op == "expire":
            queue.expire_leases(now)
        elif op == "add":
            queue.add(JOBS[arg])


OPS = st.lists(
    st.tuples(
        st.sampled_from(["claim", "complete", "fail", "expire", "add"]),
        st.integers(0, POOL - 1),
    ),
    max_size=14,
)


def run_ops(path, initial, ops):
    """Run ``ops``; return the queue and [(journal bytes, state)] after
    every transition since the last compaction."""
    queue = new_queue(path)
    queue.add_all(JOBS[:initial])
    log = fsutil.journal_path(path)
    snapshot = path.read_bytes()
    history = [(b"", state_of(queue))]
    for step, (op, arg) in enumerate(ops, start=1):
        apply_op(queue, op, arg, now=float(step))
        data = log.read_bytes() if log.exists() else b""
        if path.read_bytes() != snapshot or (
            history and len(data) < len(history[-1][0])
        ):
            snapshot = path.read_bytes()
            history = []  # older journal prefixes describe no file
        history.append((data, state_of(queue)))
    return queue, history


def oracle(snapshot_text, journal_bytes):
    """Independent replay: snapshot, then every complete line in order."""
    state = {}
    for record in json.loads(snapshot_text)["jobs"]:
        state[TuneJob.from_dict(record).job_id] = record
    complete = journal_bytes[: journal_bytes.rfind(b"\n") + 1]
    for line in complete.splitlines():
        entry = json.loads(line)
        if entry["record"] is None:
            state.pop(entry["id"], None)
        else:
            state[entry["id"]] = entry["record"]
    return state


class TestTornJournal:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(initial=st.integers(1, POOL), ops=OPS)
    def test_every_truncation_loads_the_last_complete_record(
        self, initial, ops
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "queue.json"
            queue, history = run_ops(path, initial, ops)
            log = fsutil.journal_path(path)
            snapshot = path.read_text()
            full = log.read_bytes() if log.exists() else b""
            # Each acknowledged transition reloads as exactly its state.
            for data, state in history:
                assert full.startswith(data)
                assert oracle(snapshot, data) == state
            assert state_of(JobQueue.load(path)) == state_of(queue)
            for cut in range(len(full) + 1):
                log.write_bytes(full[:cut])
                assert state_of(JobQueue.load(path)) == oracle(
                    snapshot, full[:cut]
                ), cut

    def test_append_after_a_torn_tail_cuts_it_first(self, tmp_path):
        path = tmp_path / "queue.json"
        queue = new_queue(path)
        queue.add_all(JOBS)
        queue.claim("w0", 0.0)
        log = fsutil.journal_path(path)
        log.write_bytes(log.read_bytes() + b'{"id": "torn')
        resumed = JobQueue.load(path)
        job = resumed.claim("w1", 1.0)
        assert state_of(JobQueue.load(path)) == state_of(resumed)
        assert job is not None


class TestLeftoverJournal:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(initial=st.integers(1, POOL), ops=OPS)
    def test_replay_over_a_newer_snapshot_is_a_no_op(self, initial, ops):
        """Every unlink skipped = a crash between each snapshot replace
        and its journal unlink; every reload must still be exact."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "queue.json"
            with mock.patch.object(fsutil.os, "unlink", lambda p: None):
                queue, _ = run_ops(path, initial, ops)
                assert state_of(JobQueue.load(path)) == state_of(queue)
                log = fsutil.journal_path(path)
                leftover = log.read_bytes() if log.exists() else b""
                queue.compact()
            assert state_of(JobQueue.load(path)) == state_of(queue)
            if leftover:
                assert log.read_bytes().startswith(leftover)


class TestCorruptJournal:
    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "queue.json"
        queue = new_queue(path)
        queue.add_all(JOBS)
        first = queue.claim("w0", 0.0)
        queue.claim("w1", 0.0)
        queue.complete(first.job_id, SHA, 1.0)
        log = fsutil.journal_path(path)
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        lines[1] = b'{"id": 7, "record": []}\n'
        log.write_bytes(b"".join(lines))
        with pytest.raises(ReproError, match="line 2"):
            JobQueue.load(path)

    def test_record_filed_under_the_wrong_id_is_an_error(self, tmp_path):
        path = tmp_path / "queue.json"
        queue = new_queue(path)
        queue.add_all(JOBS)
        queue.claim("w0", 0.0)
        log = fsutil.journal_path(path)
        entry = json.loads(log.read_bytes())
        entry["id"] = JOBS[4].job_id
        log.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ReproError, match="files job"):
            JobQueue.load(path)


class TestCompaction:
    def test_journal_never_outgrows_the_queue(self, tmp_path):
        path = tmp_path / "queue.json"
        queue = new_queue(path)
        queue.add_all(JOBS)
        log = fsutil.journal_path(path)
        assert not log.exists()  # the first write is a snapshot
        snapshot, rewrites, transitions = path.read_bytes(), 0, 0
        for step in range(3 * POOL):
            job = queue.claim("w0", float(step))
            if job is not None:
                queue.fail(job.job_id, "boom", float(step))
                transitions += 2
            lines = log.read_bytes().count(b"\n") if log.exists() else 0
            assert lines <= len(queue)
            if path.read_bytes() != snapshot:
                snapshot, rewrites = path.read_bytes(), rewrites + 1
        # Amortized O(1): one snapshot per len(queue) + 1 transitions.
        assert transitions >= 2 * POOL
        assert rewrites <= transitions // (POOL + 1)

    def test_compact_leaves_only_the_snapshot(self, tmp_path):
        path = tmp_path / "queue.json"
        queue = new_queue(path)
        queue.add_all(JOBS)
        queue.claim("w0", 0.0)
        queue.compact()
        assert not fsutil.journal_path(path).exists()
        assert state_of(JobQueue.load(path)) == state_of(queue)

    def test_fresh_queue_replaces_a_stale_journal(self, tmp_path):
        path = tmp_path / "queue.json"
        old = new_queue(path)
        old.add_all(JOBS)
        old.claim("w0", 0.0)
        fresh = new_queue(path)
        fresh.add_all(JOBS[:2])
        assert state_of(JobQueue.load(path)) == state_of(fresh)
