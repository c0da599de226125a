"""Static artifact verifiers: check load-bearing JSON without executing it.

Everything the system persists — :class:`~repro.compile.artifact.PlanArtifact`
files, :class:`~repro.faults.scenario.FaultScenario` files — and
everything it ships in-process — :class:`~repro.hardware.specs.DeviceSpec`
catalogs, :class:`~repro.nn.graph.NetworkGraph` models — carries
invariants that were previously enforced only at runtime, deep inside
the simulator.  These verifiers check them *up front*:

Plan artifacts (``repro check-plan``):

* schema / version / content-checksum validity (REPRO301/302);
* every partition fraction in its legal range — split in (0, 1), CPU
  exactly 1, GPU exactly 0 (REPRO303, the Eq. 1-4 contract);
* the allocation table covers every buffer of the named network exactly
  once, no extras, no misses (REPRO304);
* zero-copy (MANAGED) allocations only on unified-memory devices
  (REPRO305);
* the named device's roofline is consistent — positive peak FLOPs and
  bandwidth, finite arithmetic-intensity breakpoints (REPRO308);
* the named network's dataflow re-verifies — every layer's input shape
  is produced by a predecessor (REPRO309).

Fault scenarios:

* schema / version / probability ranges (REPRO301/307);
* fault windows of the same kind must not overlap (REPRO306).

Plan stores (``repro check-plan <store-dir>``):

* manifest schema / version / entry structure, and every complete line
  of the ``manifest.log`` journal (REPRO310; a torn final line is a
  warning — the store drops it on load);
* every entry's object exists, hashes to its content address, carries
  a valid payload checksum, and embeds the entry's key (REPRO311);
* objects not referenced by any manifest entry — snapshot or journal —
  are orphans (REPRO312,
  warning — recoverable via ``PlanStore.rebuild``);
* producer fingerprints that no longer match the current DeviceSpec /
  cost-model build are stale (REPRO313, warning — the store serves
  them as misses until swept).

Every check returns :class:`~repro.analysis.findings.Finding` records
rather than raising, so one corrupt file yields a complete diagnosis.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from ..compile.artifact import (
    ARTIFACT_SCHEMA,
    ARTIFACT_VERSION,
    PlanArtifact,
    payload_checksum,
)
from ..core.plan import Assignment, ExecutionPlan
from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..faults.scenario import (
    SCENARIO_SCHEMA,
    FaultScenario,
)
from ..hardware.memory import AllocKind
from ..hardware.specs import DeviceSpec
from ..nn.graph import NetworkGraph
from .findings import Finding

RULE_SCHEMA = "REPRO301"
RULE_CHECKSUM = "REPRO302"
RULE_FRACTION = "REPRO303"
RULE_ALLOC_COVERAGE = "REPRO304"
RULE_ZERO_COPY = "REPRO305"
RULE_WINDOWS = "REPRO306"
RULE_PROBABILITY = "REPRO307"
RULE_ROOFLINE = "REPRO308"
RULE_DATAFLOW = "REPRO309"
RULE_STORE_SCHEMA = "REPRO310"
RULE_STORE_OBJECT = "REPRO311"
RULE_STORE_ORPHAN = "REPRO312"
RULE_STORE_STALE = "REPRO313"

_SHA256_HEX = 64


def _finding(rule: str, path: str, message: str, symbol: str = "") -> Finding:
    return Finding(rule=rule, path=path, message=message, symbol=symbol)


def _device_catalog() -> Mapping[str, DeviceSpec]:
    from ..hardware.specs import DEVICE_CATALOG
    from ..hardware.variants import VARIANT_CATALOG

    catalog: Dict[str, DeviceSpec] = dict(DEVICE_CATALOG)
    catalog.update(VARIANT_CATALOG)
    return catalog


def _build_network(name: str) -> Optional[NetworkGraph]:
    from ..nn.models import MODEL_BUILDERS, build

    if name not in MODEL_BUILDERS:
        return None
    return build(name)


# ---------------------------------------------------------------------------
# Device specs
# ---------------------------------------------------------------------------

def verify_device_spec(spec: DeviceSpec, *, path: str = "") -> List[Finding]:
    """Roofline consistency of one device spec."""
    label = path or f"device:{spec.name}"
    out: List[Finding] = []
    processors = [("cpu", spec.cpu)]
    if spec.gpu is not None:
        processors.append(("gpu", spec.gpu))
    for kind, proc in processors:
        if not (proc.peak_flops > 0 and math.isfinite(proc.peak_flops)):
            out.append(_finding(
                RULE_ROOFLINE, label,
                f"{kind} peak_flops must be positive and finite, got "
                f"{proc.peak_flops!r}", symbol=spec.name,
            ))
        bandwidth = spec.stream_bandwidth(proc)
        if not (bandwidth > 0 and math.isfinite(bandwidth)):
            out.append(_finding(
                RULE_ROOFLINE, label,
                f"{kind} stream bandwidth must be positive and finite, got "
                f"{bandwidth!r}", symbol=spec.name,
            ))
    if not out:
        for kind, breakpoint_ai in spec.roofline_breakpoints().items():
            if not (breakpoint_ai > 0 and math.isfinite(breakpoint_ai)):
                out.append(_finding(
                    RULE_ROOFLINE, label,
                    f"{kind} arithmetic-intensity breakpoint must be "
                    f"finite and positive, got {breakpoint_ai!r}",
                    symbol=spec.name,
                ))
    if not (spec.memory.bandwidth > 0 and math.isfinite(spec.memory.bandwidth)):
        out.append(_finding(
            RULE_ROOFLINE, label,
            f"memory bandwidth must be positive and finite, got "
            f"{spec.memory.bandwidth!r}", symbol=spec.name,
        ))
    return out


# ---------------------------------------------------------------------------
# Network graphs
# ---------------------------------------------------------------------------

def verify_network_graph(net: NetworkGraph, *, path: str = "") -> List[Finding]:
    """Dataflow re-verification of one network DAG."""
    label = path or f"network:{net.name}"
    out: List[Finding] = []
    try:
        problems = net.verify_dataflow()
    except ReproError as exc:
        return [_finding(RULE_DATAFLOW, label, str(exc), symbol=net.name)]
    for problem in problems:
        out.append(_finding(RULE_DATAFLOW, label, problem, symbol=net.name))
    return out


# ---------------------------------------------------------------------------
# Plan artifacts
# ---------------------------------------------------------------------------

def _verify_plan_payload(data: Mapping[str, object], path: str) -> List[Finding]:
    """Structural checks on the raw payload (no model/device resolution)."""
    out: List[Finding] = []
    schema = data.get("schema")
    if schema != ARTIFACT_SCHEMA:
        out.append(_finding(
            RULE_SCHEMA, path,
            f"not a plan artifact: schema={schema!r}, expected "
            f"{ARTIFACT_SCHEMA!r}",
        ))
        return out
    version = data.get("version")
    if version != ARTIFACT_VERSION:
        out.append(_finding(
            RULE_SCHEMA, path,
            f"unsupported plan-artifact version {version!r} (this build "
            f"reads {ARTIFACT_VERSION})",
        ))
    recorded = data.get("checksum")
    if recorded is None:
        out.append(_finding(
            RULE_CHECKSUM, path,
            "artifact has no content checksum; regenerate it with this "
            "build", symbol="checksum",
        ))
    else:
        expected = payload_checksum(data)
        if recorded != expected:
            out.append(_finding(
                RULE_CHECKSUM, path,
                f"checksum mismatch: recorded {str(recorded)[:12]}…, "
                f"content hashes to {expected[:12]}… (corrupt or "
                f"hand-edited file)", symbol="checksum",
            ))
    for section in ("key", "plan"):
        if not isinstance(data.get(section), Mapping):
            out.append(_finding(
                RULE_SCHEMA, path,
                f"artifact is missing its {section!r} section",
                symbol=section,
            ))
    return out


def _verify_fractions(
    plan_data: Mapping[str, object], path: str
) -> List[Finding]:
    """Eq. 1-4 contract on the raw layer records."""
    out: List[Finding] = []
    records = plan_data.get("layers")
    if not isinstance(records, list):
        return [_finding(
            RULE_SCHEMA, path, "plan section has no layer list",
            symbol="plan.layers",
        )]
    for record in records:
        if not isinstance(record, Mapping):
            out.append(_finding(
                RULE_SCHEMA, path,
                f"malformed layer record {record!r}", symbol="plan.layers",
            ))
            continue
        layer = str(record.get("layer", "?"))
        assignment = record.get("assignment")
        try:
            fraction = float(record.get("cpu_fraction", 0.0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            out.append(_finding(
                RULE_FRACTION, path,
                f"layer {layer!r} has non-numeric cpu_fraction "
                f"{record.get('cpu_fraction')!r}", symbol=layer,
            ))
            continue
        if not 0.0 <= fraction <= 1.0 or not math.isfinite(fraction):
            out.append(_finding(
                RULE_FRACTION, path,
                f"layer {layer!r} partition fraction {fraction!r} outside "
                f"[0, 1]", symbol=layer,
            ))
        elif assignment == Assignment.SPLIT.value and not 0.0 < fraction < 1.0:
            out.append(_finding(
                RULE_FRACTION, path,
                f"split layer {layer!r} needs cpu_fraction strictly inside "
                f"(0, 1), got {fraction!r}", symbol=layer,
            ))
        elif assignment == Assignment.CPU.value and fraction not in (0.0, 1.0):
            out.append(_finding(
                RULE_FRACTION, path,
                f"cpu layer {layer!r} implies fraction 1, got {fraction!r}",
                symbol=layer,
            ))
        elif assignment == Assignment.GPU.value and fraction != 0.0:
            out.append(_finding(
                RULE_FRACTION, path,
                f"gpu layer {layer!r} implies fraction 0, got {fraction!r}",
                symbol=layer,
            ))
    return out


def _verify_semantics(
    key: PlanKey, plan: ExecutionPlan, path: str
) -> List[Finding]:
    """Cross-checks against the named network and device."""
    out: List[Finding] = []
    catalog = _device_catalog()
    device = catalog.get(key.device)
    if device is None:
        out.append(Finding(
            rule=RULE_SCHEMA, path=path, severity="warning",
            message=(
                f"device {key.device!r} is not in the catalog; "
                f"device-dependent checks skipped"
            ), symbol="key.device",
        ))
    else:
        out.extend(verify_device_spec(device, path=path))
        managed = [
            name for name, kind in plan.alloc.items()
            if kind is AllocKind.MANAGED
        ]
        if managed and not device.is_integrated:
            out.append(_finding(
                RULE_ZERO_COPY, path,
                f"{len(managed)} zero-copy (managed) allocations on "
                f"{key.device!r}, which has no unified memory "
                f"(first: {managed[0]!r})", symbol="plan.alloc",
            ))
    net = _build_network(key.network)
    if net is None:
        out.append(Finding(
            rule=RULE_SCHEMA, path=path, severity="warning",
            message=(
                f"network {key.network!r} is not a catalog model; "
                f"coverage checks skipped"
            ), symbol="key.network",
        ))
        return out
    out.extend(verify_network_graph(net, path=path))
    placed = set(plan.layers)
    expected_layers = set(net.topo_order())
    for missing in sorted(expected_layers - placed):
        out.append(_finding(
            RULE_ALLOC_COVERAGE, path,
            f"layer {missing!r} of {key.network!r} has no placement in "
            f"the plan", symbol="plan.layers",
        ))
    for extra in sorted(placed - expected_layers):
        out.append(_finding(
            RULE_ALLOC_COVERAGE, path,
            f"plan places unknown layer {extra!r} (not in "
            f"{key.network!r})", symbol="plan.layers",
        ))
    if device is not None:
        from ..core.memory_manager import MemoryPlacer

        catalog_buffers = set(MemoryPlacer(net, device).buffer_catalog())
        allocated = set(plan.alloc)
        for missing in sorted(catalog_buffers - allocated):
            out.append(_finding(
                RULE_ALLOC_COVERAGE, path,
                f"buffer {missing!r} has no allocation decision",
                symbol="plan.alloc",
            ))
        for extra in sorted(allocated - catalog_buffers):
            out.append(_finding(
                RULE_ALLOC_COVERAGE, path,
                f"allocation table names unknown buffer {extra!r}",
                symbol="plan.alloc",
            ))
    return out


def verify_plan_artifact_data(
    data: Mapping[str, object], *, path: str = "plan-artifact",
) -> List[Finding]:
    """Verify a plan-artifact payload dict without executing it."""
    out = _verify_plan_payload(data, path)
    if any(f.rule == RULE_SCHEMA and f.severity == "error" for f in out):
        return out
    plan_data = data.get("plan")
    if isinstance(plan_data, Mapping):
        out.extend(_verify_fractions(plan_data, path))
    if any(f.severity == "error" for f in out):
        return out
    # The payload is structurally sound: parse it and cross-check.
    try:
        artifact = PlanArtifact.from_dict(data)
    except ReproError as exc:
        out.append(_finding(RULE_SCHEMA, path, str(exc)))
        return out
    out.extend(_verify_semantics(artifact.key, artifact.plan, path))
    return out


# ---------------------------------------------------------------------------
# Fault scenarios
# ---------------------------------------------------------------------------

def verify_fault_scenario_data(
    data: Mapping[str, object], *, path: str = "fault-scenario",
) -> List[Finding]:
    """Verify a fault-scenario payload dict without running it."""
    out: List[Finding] = []
    schema = data.get("schema")
    if schema != SCENARIO_SCHEMA:
        return [_finding(
            RULE_SCHEMA, path,
            f"not a fault scenario: schema={schema!r}, expected "
            f"{SCENARIO_SCHEMA!r}",
        )]
    for label in ("kernel_failure_p", "payload_corrupt_p",
                  "artifact_corrupt_p", "worker_crash_p"):
        raw = data.get(label, 0.0)
        try:
            p = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            out.append(_finding(
                RULE_PROBABILITY, path,
                f"{label} must be numeric, got {raw!r}", symbol=label,
            ))
            continue
        if not 0.0 <= p <= 1.0:
            out.append(_finding(
                RULE_PROBABILITY, path,
                f"{label} must be a probability in [0, 1], got {p!r}",
                symbol=label,
            ))
    if out:
        return out
    try:
        scenario = FaultScenario.from_dict(data)
    except ReproError as exc:
        out.append(_finding(RULE_SCHEMA, path, str(exc)))
        return out
    for problem in scenario.overlapping_windows():
        out.append(_finding(
            RULE_WINDOWS, path, problem, symbol=scenario.name,
        ))
    return out


def verify_fault_scenario(
    scenario: FaultScenario, *, path: str = "",
) -> List[Finding]:
    """Verify an in-memory scenario (used for the built-in catalog)."""
    label = path or f"scenario:{scenario.name}"
    return [
        _finding(RULE_WINDOWS, label, problem, symbol=scenario.name)
        for problem in scenario.overlapping_windows()
    ]


# ---------------------------------------------------------------------------
# Plan stores
# ---------------------------------------------------------------------------

def _entry_shape_problems(record: Mapping[str, object]) -> List[str]:
    """Structural problems with one manifest entry record."""
    problems: List[str] = []
    key = record.get("key")
    if not isinstance(key, Mapping):
        problems.append(f"entry key must be an object, got {key!r}")
    sha = record.get("sha256")
    if not (
        isinstance(sha, str)
        and len(sha) == _SHA256_HEX
        and all(c in "0123456789abcdef" for c in sha)
    ):
        problems.append(f"entry sha256 must be {_SHA256_HEX} hex chars, got {sha!r}")
    fingerprints = record.get("fingerprints")
    if not isinstance(fingerprints, Mapping):
        problems.append(
            f"entry fingerprints must be an object, got {fingerprints!r}"
        )
    return problems


def _replay_manifest_journal(
    path: Path, entries: Dict[str, object]
) -> List[Finding]:
    """Apply the manifest journal's well-formed records to ``entries``
    the way the store replays them on load; report the rest."""
    from ..fsutil import scan_journal

    display = str(path)
    scan = scan_journal(path)
    out = [
        _finding(RULE_STORE_SCHEMA, display, f"line {line}: {problem}")
        for line, problem in scan.errors
    ]
    for record in scan.records:
        if record.record is None:
            entries.pop(record.id, None)
            continue
        problems = _entry_shape_problems(record.record)
        if problems:
            out.extend(
                _finding(
                    RULE_STORE_SCHEMA, display,
                    f"line {record.line}: {problem}", symbol=record.id,
                )
                for problem in problems
            )
            continue
        entries[record.id] = record.record
    if scan.torn_bytes:
        out.append(Finding(
            rule=RULE_STORE_SCHEMA, path=display, severity="warning",
            message=(
                f"torn final line ({scan.torn_bytes} bytes) from an "
                f"interrupted append; the store drops it on load"
            ),
        ))
    return out


def verify_plan_store(root: Union[str, Path]) -> List[Finding]:
    """Verify a :class:`~repro.store.plan_store.PlanStore` directory.

    Checks the manifest's schema/version and entry structure and the
    ``manifest.log`` journal replayed over it (REPRO310),
    re-hashes every referenced object against its content address and
    re-validates its embedded artifact + key (REPRO311), reports objects
    no manifest entry references (REPRO312, warning — ``rebuild()``
    re-indexes them), and compares recorded producer fingerprints with
    the current DeviceSpec / cost-model build (REPRO313, warning — the
    store already serves such entries as stale misses).
    """
    from ..fsutil import TMP_SUFFIX, journal_path, sha256_text
    from ..store.fingerprint import cost_model_fingerprint, device_fingerprint_for
    from ..store.plan_store import (
        MANIFEST_NAME,
        OBJECTS_DIR,
        STORE_SCHEMA,
        STORE_VERSION,
    )

    store_root = Path(root)
    manifest_path = store_root / MANIFEST_NAME
    display = str(manifest_path)
    out: List[Finding] = []
    if not manifest_path.is_file():
        return [_finding(
            RULE_STORE_SCHEMA, str(store_root),
            f"no {MANIFEST_NAME} here — not a plan store "
            f"(or one that never completed a write)",
        )]
    try:
        data = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [_finding(
            RULE_STORE_SCHEMA, display, f"manifest unreadable: {exc}",
        )]
    if not isinstance(data, Mapping):
        return [_finding(
            RULE_STORE_SCHEMA, display, "manifest top level must be an object",
        )]
    schema = data.get("schema")
    if schema != STORE_SCHEMA:
        out.append(_finding(
            RULE_STORE_SCHEMA, display,
            f"manifest schema is {schema!r} (expected {STORE_SCHEMA!r})",
        ))
        return out
    version = data.get("version")
    if version != STORE_VERSION:
        out.append(_finding(
            RULE_STORE_SCHEMA, display,
            f"manifest version {version!r} is not {STORE_VERSION} — "
            f"fingerprint semantics may have drifted across builds",
        ))
    entries = data.get("entries", {})
    if not isinstance(entries, Mapping):
        out.append(_finding(
            RULE_STORE_SCHEMA, display,
            f"manifest entries must be an object, got {type(entries).__name__}",
        ))
        return out
    entries = dict(entries)
    out.extend(
        _replay_manifest_journal(journal_path(manifest_path), entries)
    )

    current_cost_fp = cost_model_fingerprint()
    referenced: Dict[str, str] = {}
    for slug in sorted(str(s) for s in entries):
        record = entries[slug]
        if not isinstance(record, Mapping):
            out.append(_finding(
                RULE_STORE_SCHEMA, display,
                f"entry for {slug!r} must be an object, "
                f"got {type(record).__name__}",
                symbol=slug,
            ))
            continue
        problems = _entry_shape_problems(record)
        if problems:
            out.extend(
                _finding(RULE_STORE_SCHEMA, display, problem, symbol=slug)
                for problem in problems
            )
            continue
        sha = str(record["sha256"])
        referenced[sha] = slug
        object_path = store_root / OBJECTS_DIR / f"{sha}.json"
        object_display = str(object_path)
        try:
            text = object_path.read_text()
        except OSError:
            out.append(_finding(
                RULE_STORE_OBJECT, object_display,
                f"object for {slug!r} is missing — crashed writer or "
                f"manual deletion; the store treats this entry as a miss",
                symbol=slug,
            ))
            continue
        actual = sha256_text(text)
        if actual != sha:
            out.append(_finding(
                RULE_STORE_OBJECT, object_display,
                f"object bytes hash to {actual[:12]}… but the address "
                f"says {sha[:12]}… — content-address violation "
                f"(corrupt write); the store quarantines this on read",
                symbol=slug,
            ))
            continue
        try:
            artifact = PlanArtifact.from_json(text)
        except ReproError as exc:
            out.append(_finding(
                RULE_STORE_OBJECT, object_display,
                f"object for {slug!r} is not a valid plan artifact: {exc}",
                symbol=slug,
            ))
            continue
        if artifact.key.slug() != slug:
            out.append(_finding(
                RULE_STORE_OBJECT, object_display,
                f"object embeds key {artifact.key.slug()!r} but the "
                f"manifest indexes it as {slug!r}",
                symbol=slug,
            ))
        fingerprints = record.get("fingerprints")
        recorded_device = ""
        recorded_cost = ""
        if isinstance(fingerprints, Mapping):
            recorded_device = str(fingerprints.get("device", ""))
            recorded_cost = str(fingerprints.get("cost_model", ""))
        current_device = device_fingerprint_for(artifact.key.device)
        if recorded_device and current_device and recorded_device != current_device:
            out.append(Finding(
                rule=RULE_STORE_STALE, path=display, severity="warning",
                message=(
                    f"entry {slug!r} was tuned against a different "
                    f"{artifact.key.device!r} spec (device fingerprint "
                    f"drift); sweep_stale() or re-tune"
                ),
                symbol=slug,
            ))
        if recorded_cost and recorded_cost != current_cost_fp:
            out.append(Finding(
                rule=RULE_STORE_STALE, path=display, severity="warning",
                message=(
                    f"entry {slug!r} predates the current cost-model "
                    f"calibration (cost-model fingerprint drift); "
                    f"sweep_stale() or re-tune"
                ),
                symbol=slug,
            ))

    objects_dir = store_root / OBJECTS_DIR
    if objects_dir.is_dir():
        for object_path in sorted(objects_dir.glob("*.json")):
            if object_path.stem not in referenced:
                out.append(Finding(
                    rule=RULE_STORE_ORPHAN, path=str(object_path),
                    severity="warning",
                    message=(
                        "object is not referenced by any manifest entry "
                        "(interrupted registration?); PlanStore.rebuild() "
                        "re-indexes it"
                    ),
                ))
        for tmp_path in sorted(objects_dir.glob(f"*{TMP_SUFFIX}")):
            out.append(Finding(
                rule=RULE_STORE_ORPHAN, path=str(tmp_path),
                severity="warning",
                message=(
                    "torn temporary write left behind by a crashed "
                    "worker; PlanStore.sweep_tmp() collects it"
                ),
            ))
    return out


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def verify_artifact_file(path: Union[str, Path]) -> List[Finding]:
    """Verify one path, dispatching on its JSON ``schema`` field.

    Accepts plan artifacts, fault scenarios, and plan-store manifests;
    a directory is treated as a plan-store root.  Anything else (or a
    file that is not JSON at all) is itself a finding.
    """
    file_path = Path(path)
    display = str(path)
    if file_path.is_dir():
        return verify_plan_store(file_path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {display}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [_finding(RULE_SCHEMA, display, f"not valid JSON: {exc}")]
    if not isinstance(data, Mapping):
        return [_finding(RULE_SCHEMA, display, "top level must be an object")]
    schema = data.get("schema")
    if schema == ARTIFACT_SCHEMA:
        return verify_plan_artifact_data(data, path=display)
    if schema == SCENARIO_SCHEMA:
        return verify_fault_scenario_data(data, path=display)
    from ..store.plan_store import STORE_SCHEMA
    if schema == STORE_SCHEMA:
        return verify_plan_store(file_path.parent)
    return [_finding(
        RULE_SCHEMA, display,
        f"unknown schema {schema!r}; verifiable schemas are "
        f"{ARTIFACT_SCHEMA!r}, {SCENARIO_SCHEMA!r}, and {STORE_SCHEMA!r}",
    )]


def verify_catalogs() -> List[Finding]:
    """Statically verify everything the package ships in-process:
    every device spec, every built-in fault scenario, every catalog
    model's dataflow."""
    from ..faults.scenario import SCENARIO_CATALOG
    from ..nn.models import MODEL_BUILDERS, build

    out: List[Finding] = []
    for spec in _device_catalog().values():
        out.extend(verify_device_spec(spec))
    for scenario in SCENARIO_CATALOG.values():
        out.extend(verify_fault_scenario(scenario))
    for name in MODEL_BUILDERS:
        out.extend(verify_network_graph(build(name)))
    return out


__all__ = [
    "verify_artifact_file",
    "verify_catalogs",
    "verify_device_spec",
    "verify_fault_scenario",
    "verify_fault_scenario_data",
    "verify_network_graph",
    "verify_plan_artifact_data",
    "verify_plan_store",
]
