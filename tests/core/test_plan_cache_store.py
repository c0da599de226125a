"""PlanCache as a read-through client of the content-addressed store."""

import pytest

from repro.core.plan_cache import (
    PlanCache,
    PlanKey,
    configure_default_plan_cache,
    default_plan_cache,
)
from repro.core.tuner import AdaptiveTuner
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build as build_model
from repro.store.fingerprint import (
    cost_model_fingerprint,
    device_fingerprint_for,
)
from repro.store.plan_store import QUARANTINE_DIR, PlanStore


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


def fail_tune():
    raise AssertionError("tuner should not run on a store hit")


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "store")


class TestReadThrough:
    def test_store_hit_skips_tuning(self, store):
        key = make_key()
        writer = PlanCache(store=store)
        writer.get_or_tune(key, tune_lenet)
        assert store.contains(key)

        reader = PlanCache(store=store)
        result = reader.get_or_tune(key, fail_tune)
        assert result.source == "artifact"
        assert result.rounds == []
        assert reader.disk_hits == 1
        assert reader.misses == 0

    def test_memory_wins_over_store(self, store):
        key = make_key()
        cache = PlanCache(store=store)
        first = cache.get_or_tune(key, tune_lenet)
        store_hits_before = store.hits
        assert cache.get_or_tune(key, fail_tune) is first
        assert store.hits == store_hits_before

    def test_corrupt_store_object_degrades_to_retune(self, store):
        key = make_key()
        PlanCache(store=store).get_or_tune(key, tune_lenet)
        (obj,) = store.objects_dir.glob("*.json")
        obj.write_text(obj.read_text()[:50])

        reader = PlanCache(store=store)
        result = reader.get_or_tune(key, tune_lenet)
        assert result is not None
        assert reader.corrupt_loads == 1
        assert store.quarantined == 1
        # The re-tuned plan healed the store.
        assert store.contains(key)



class TestStaleEntry:
    def test_stale_store_entry_retunes_through_cache(self, store):
        key = make_key()
        PlanCache(store=store).get_or_tune(key, tune_lenet)
        # Doctor the durable entry as if an older cost model built it.
        slug = key.slug()
        entry = store._entries[slug]
        store._entries[slug] = type(entry)(
            key=entry.key, sha256=entry.sha256, size=entry.size,
            device_fingerprint=entry.device_fingerprint,
            cost_model_fingerprint="e" * 64,
        )
        store._persist([slug])
        stale = PlanStore(store.root)
        assert stale.stale_entries() == [slug]

        calls = []

        def tune():
            calls.append(1)
            return tune_lenet()

        cache = PlanCache(store=stale)
        cache.get_or_tune(key, tune)
        assert calls == [1]
        assert cache.misses == 1 and cache.disk_hits == 0
        assert stale.stale_misses == 1
        # The fresh tune rewrote the entry under the current build.
        rewritten = PlanStore(store.root).entries()[slug]
        assert rewritten.cost_model_fingerprint == cost_model_fingerprint()
        assert rewritten.device_fingerprint == device_fingerprint_for(
            key.device
        )

        warm = PlanCache(store=PlanStore(store.root))
        result = warm.get_or_tune(key, fail_tune)
        assert result.rounds == []
        assert warm.disk_hits == 1 and warm.misses == 0


class TestInvalidate:
    def test_remove_disk_sweeps_store_and_siblings(self, store):
        key = make_key()
        cache = PlanCache(store=store)
        cache.get_or_tune(key, tune_lenet)
        # Corrupt the object so a reload quarantines it, then re-tune:
        # the slug now has a live object and a quarantined sibling.
        (obj,) = store.objects_dir.glob("*.json")
        obj.write_text(obj.read_text()[:50])
        cache.invalidate(key)
        cache.get_or_tune(key, tune_lenet)
        assert store.quarantined == 1
        live = store.object_path(store.entries()[key.slug()].sha256)

        removed = cache.invalidate(key, remove_disk=True)
        assert "memory" in removed
        names = [r for r in removed if r != "memory"]
        assert str(live) in names
        assert any(QUARANTINE_DIR in name for name in names)
        assert not store.contains(key)
        assert list(store.objects_dir.glob("*.json")) == []
        assert list(store.quarantine_dir.glob("*")) == []

    def test_invalidate_without_remove_disk_keeps_files(self, store):
        key = make_key()
        cache = PlanCache(store=store)
        cache.get_or_tune(key, tune_lenet)
        removed = cache.invalidate(key)
        assert removed == ["memory"]
        assert store.contains(key)

    def test_empty_invalidate_is_falsy(self, store):
        cache = PlanCache(store=store)
        assert not cache.invalidate(make_key())


class TestDefaultCacheWiring:
    def test_configure_store_dir(self, tmp_path):
        try:
            configure_default_plan_cache(store_dir=tmp_path / "store")
            cache = default_plan_cache()
            assert cache.store is not None
            key = make_key()
            cache.get_or_tune(key, tune_lenet)
            assert PlanStore(tmp_path / "store").contains(key)
        finally:
            configure_default_plan_cache()

    def test_store_property_default_none(self):
        assert PlanCache().store is None
