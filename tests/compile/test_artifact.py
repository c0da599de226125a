"""PlanArtifact: versioned JSON round-trips and validation."""

import json

import pytest

from repro.compile.artifact import (
    ARTIFACT_SCHEMA,
    ARTIFACT_VERSION,
    STAGE_NAMES,
    Lowering,
    PlanArtifact,
    TunerProvenance,
)
from repro.core.plan import ExecutionPlan, cpu_layer, gpu_layer, split_layer
from repro.core.plan_cache import PlanKey
from repro.errors import ReproError, TuningError
from repro.hardware.memory import AllocKind


def make_key(network="lenet", **overrides) -> PlanKey:
    fields = dict(
        network=network, device="jetson-agx-xavier", batch_size=1,
        precision="fp32", use_memory_management=True,
        use_hybrid_execution=True, use_inter_kernel=True,
        use_intra_kernel=True, objective="latency",
    )
    fields.update(overrides)
    return PlanKey(**fields)


def make_plan(network="lenet") -> ExecutionPlan:
    plan = ExecutionPlan(network)
    plan.set_layer(gpu_layer("conv1"))
    plan.set_layer(split_layer("conv2", 0.25))
    plan.set_layer(cpu_layer("fc1"))
    plan.alloc = {
        "input": AllocKind.MANAGED,
        "conv2.out": AllocKind.REGULAR,
    }
    return plan


def make_artifact(network="lenet") -> PlanArtifact:
    return PlanArtifact(
        key=make_key(network),
        plan=make_plan(network),
        provenance=TunerProvenance(
            converged_after=2, measured_rounds=4,
            round_scores=(0.4, 0.3, 0.25, 0.25), final_total_s=0.25,
        ),
    )


class TestLowering:
    def test_round_trip(self):
        low = Lowering(serialize=True, host_staging=True,
                       precision="fp16", batch_size=8)
        assert Lowering.from_dict(low.to_dict()) == low

    def test_unknown_fields_rejected(self):
        with pytest.raises(ReproError, match="unknown fields"):
            Lowering.from_dict({"backend": "analytic", "gpu_streams": 4})

    def test_defaults(self):
        low = Lowering()
        assert low.backend == "analytic"
        assert not low.serialize and not low.host_staging


class TestProvenance:
    def test_round_trip(self):
        prov = TunerProvenance(
            objective="energy", converged_after=3, measured_rounds=5,
            round_scores=(1.0, 0.9, 0.8, 0.8, 0.8), final_total_s=0.1,
        )
        assert TunerProvenance.from_dict(prov.to_dict()) == prov

    def test_default_stages_are_the_pipeline(self):
        assert TunerProvenance().stages == STAGE_NAMES
        assert STAGE_NAMES == (
            "profile", "place", "partition", "schedule", "lower",
        )

    def test_malformed_raises(self):
        with pytest.raises(ReproError, match="malformed tuner provenance"):
            TunerProvenance.from_dict({"objective": "latency"})


class TestArtifactRoundTrip:
    def test_dict_round_trip(self):
        art = make_artifact()
        back = PlanArtifact.from_dict(art.to_dict())
        assert back.key == art.key
        assert back.plan.to_dict() == art.plan.to_dict()
        assert back.lowering == art.lowering
        assert back.provenance == art.provenance
        assert back.version == ARTIFACT_VERSION

    def test_json_round_trip_preserves_layer_order(self):
        art = make_artifact()
        back = PlanArtifact.from_json(art.to_json())
        assert list(back.plan.layers) == ["conv1", "conv2", "fc1"]
        assert back.plan.layers["conv2"].cpu_fraction == 0.25
        assert back.plan.alloc["input"] is AllocKind.MANAGED

    def test_plan_key_round_trips_through_artifact_json(self):
        key = make_key(batch_size=16, precision="fp16",
                       use_intra_kernel=False, objective="edp")
        art = PlanArtifact(key=key, plan=make_plan())
        reloaded = PlanArtifact.from_json(art.to_json())
        assert reloaded.key == key
        assert hash(reloaded.key) == hash(key)

    def test_save_load(self, tmp_path):
        art = make_artifact()
        path = art.save(tmp_path / "lenet.json")
        assert json.loads(path.read_text())["schema"] == ARTIFACT_SCHEMA
        loaded = PlanArtifact.load(path)
        assert loaded.to_dict() == art.to_dict()


class TestChecksum:
    def test_round_trip_preserves_checksum(self, tmp_path):
        art = PlanArtifact.load(make_artifact().save(tmp_path / "a.json"))
        again = PlanArtifact.from_json(art.to_json())
        assert again.to_dict()["checksum"] == art.to_dict()["checksum"]
        assert again.to_dict() == art.to_dict()

    def test_checksum_covers_every_section(self, tmp_path):
        path = make_artifact().save(tmp_path / "a.json")
        data = json.loads(path.read_text())
        recorded = data["checksum"]
        assert recorded == PlanArtifact._checksum_of(data)
        for section in ("key", "plan", "lowering", "provenance"):
            mutated = json.loads(path.read_text())
            mutated[section] = {"tampered": True}
            assert PlanArtifact._checksum_of(mutated) != recorded


class TestArtifactValidation:
    def test_wrong_schema_rejected(self):
        data = make_artifact().to_dict()
        data["schema"] = "something.else"
        with pytest.raises(ReproError, match="not a plan artifact"):
            PlanArtifact.from_dict(data)

    def test_wrong_version_rejected(self):
        data = make_artifact().to_dict()
        data["version"] = ARTIFACT_VERSION + 1
        with pytest.raises(ReproError, match="unsupported plan-artifact"):
            PlanArtifact.from_dict(data)

    def test_missing_sections_rejected(self):
        data = make_artifact().to_dict()
        del data["plan"]
        with pytest.raises(ReproError, match="missing its 'plan'"):
            PlanArtifact.from_dict(data)

    def test_key_plan_network_mismatch_rejected(self):
        with pytest.raises(ReproError, match="names network"):
            PlanArtifact(key=make_key("lenet"), plan=make_plan("alexnet"))

    def test_invalid_json_rejected(self):
        with pytest.raises(ReproError, match="not valid JSON"):
            PlanArtifact.from_json("{nope")
        with pytest.raises(ReproError, match="must be an object"):
            PlanArtifact.from_json("[1, 2]")

    def test_missing_file_raises_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read plan artifact"):
            PlanArtifact.load(tmp_path / "missing.json")


class TestRehydration:
    def test_to_tuning_result_is_round_free(self):
        result = make_artifact().to_tuning_result()
        assert result.source == "artifact"
        assert result.rounds == []
        assert result.converged_after == 2
        with pytest.raises(TuningError, match="artifact"):
            result.final_report

    def test_describe_mentions_pipeline_and_key(self):
        text = make_artifact().describe()
        assert "profile -> place -> partition -> schedule -> lower" in text
        assert "lenet" in text and "jetson-agx-xavier" in text
        assert "4 measured rounds" in text
