"""Store-load hardening: corrupt plan objects degrade to a miss +
re-tune, checksum tampering is caught, invalidation forces re-tuning."""

import json
import logging

import pytest

from repro.compile.artifact import PlanArtifact
from repro.core.plan_cache import PlanCache, PlanKey
from repro.core.tuner import AdaptiveTuner
from repro.errors import ReproError
from repro.fsutil import sha256_text
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build as build_model
from repro.store.plan_store import PlanStore


def make_key(**overrides) -> PlanKey:
    fields = dict(
        network="lenet", device="jetson-agx-xavier", batch_size=1,
        precision="fp32", use_memory_management=True,
        use_hybrid_execution=True, use_inter_kernel=True,
        use_intra_kernel=True, objective="latency",
    )
    fields.update(overrides)
    return PlanKey(**fields)


def tune_lenet():
    tuner = AdaptiveTuner(build_model("lenet"), Device(JETSON_AGX_XAVIER))
    return tuner.tune()


@pytest.fixture
def populated(tmp_path):
    """A store with one persisted lenet plan; returns (key, object path)."""
    key = make_key()
    store = PlanStore(tmp_path)
    PlanCache(store=store).get_or_tune(key, tune_lenet)
    return key, store.object_path(store.entries()[key.slug()].sha256)


class TestCorruptLoads:
    def test_truncated_file_is_a_warned_miss(self, populated, tmp_path,
                                             caplog):
        key, path = populated
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        cache = PlanCache(store=PlanStore(tmp_path))
        with caplog.at_level(logging.WARNING):
            result = cache.get_or_tune(key, tune_lenet)
        assert result.plan is not None  # re-tuned, not crashed
        assert cache.corrupt_loads == 1
        assert cache.misses == 1
        assert cache.hits == 0
        assert any("quarantined" in r.message for r in caplog.records)

    def test_garbage_json_is_a_miss(self, populated, tmp_path):
        key, path = populated
        path.write_text("not json at all {{{")
        cache = PlanCache(store=PlanStore(tmp_path))
        sentinel_calls = []

        def tune():
            sentinel_calls.append(1)
            return tune_lenet()

        cache.get_or_tune(key, tune)
        assert sentinel_calls == [1]
        assert cache.corrupt_loads == 1

    def test_checksum_tamper_is_caught(self, populated, tmp_path):
        key, path = populated
        data = json.loads(path.read_text())
        # Flip a value the checksum covers, keep the JSON well-formed.
        data["provenance"]["final_total_s"] = 123.456
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="checksum mismatch"):
            PlanArtifact.load(path)
        # The cache degrades the same tamper to a counted miss.
        cache = PlanCache(store=PlanStore(tmp_path))
        cache.get_or_tune(key, tune_lenet)
        assert cache.corrupt_loads == 1

    def test_artifact_without_checksum_still_loads(self, populated,
                                                   tmp_path):
        key, path = populated
        data = json.loads(path.read_text())
        del data["checksum"]  # a pre-hardening artifact
        text = json.dumps(data) + "\n"
        store = PlanStore(tmp_path)
        sha = sha256_text(text)
        store.object_path(sha).write_text(text)
        store.register(key, sha)
        cache = PlanCache(store=PlanStore(tmp_path))
        cache.get_or_tune(key, tune_lenet)
        assert cache.disk_hits == 1
        assert cache.corrupt_loads == 0

    def test_clear_resets_corrupt_counter(self, populated, tmp_path):
        key, path = populated
        path.write_text("{")
        cache = PlanCache(store=PlanStore(tmp_path))
        cache.get_or_tune(key, tune_lenet)
        assert cache.corrupt_loads == 1
        cache.clear()
        assert cache.corrupt_loads == 0


class TestInvalidate:
    def test_invalidate_memory_entry(self, tmp_path):
        cache = PlanCache()
        key = make_key()
        sentinel = object()
        cache.get_or_tune(key, lambda: sentinel)
        assert cache.invalidate(key)
        assert key not in cache
        assert not cache.invalidate(key)  # already gone

    def test_invalidate_keeps_disk_by_default(self, populated, tmp_path):
        key, path = populated
        cache = PlanCache(store=PlanStore(tmp_path))
        cache.get_or_tune(key, tune_lenet)
        cache.invalidate(key)
        assert path.exists()
        # Next lookup reloads from disk (stale plan reinstated).
        cache.get_or_tune(key, tune_lenet)
        assert cache.disk_hits >= 1

    def test_invalidate_remove_disk_forces_retune(self, populated,
                                                  tmp_path):
        key, path = populated
        cache = PlanCache(store=PlanStore(tmp_path))
        cache.get_or_tune(key, tune_lenet)
        assert cache.invalidate(key, remove_disk=True)
        assert not path.exists()
        misses_before = cache.misses
        cache.get_or_tune(key, tune_lenet)
        assert cache.misses == misses_before + 1
