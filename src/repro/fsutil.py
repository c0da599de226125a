"""Crash-safe filesystem primitives shared by every persistence layer.

The plan cache, the plan store, and the tuning job queue all persist
load-bearing JSON.  A torn write — a process killed (or a disk full)
halfway through ``write_text`` — must never leave a half-written file
where a reader expects an artifact: readers would see valid-prefix JSON
garbage, and at fleet scale some worker *will* die mid-write.

:func:`atomic_write_text` gives all of them the same guarantee: the
payload is written to a ``*.tmp`` sibling and moved into place with
:func:`os.replace`, which is atomic on POSIX (and on Windows for same-
volume moves).  After a crash the target path holds either the old
complete content or the new complete content — never a mixture — and
at worst an orphaned ``*.tmp`` file is left behind for
:func:`sweep_tmp_files` to collect.

Rewriting a whole file per change costs O(state) per transition, which
is what the job queue and the store manifest used to pay on every
claim and registration.  :class:`SnapshotJournal` keeps that file as a
*snapshot* and records each change as one fsynced line in a sibling
append-only journal, folding the journal back into the snapshot only
once it outgrows the live state — O(1) amortized per durable
transition.  Its append is the only sanctioned non-atomic write path
(the REPRO230 prover flags any other ``os.open`` for writing).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import ReproError

#: Suffix of in-flight writes; readers must ignore these.
TMP_SUFFIX = ".tmp"

#: Suffix of a snapshot's journal: ``manifest.json`` -> ``manifest.log``.
JOURNAL_SUFFIX = ".log"


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp sibling + rename).

    The temporary file lives in the same directory as the target so the
    final :func:`os.replace` never crosses a filesystem boundary.  The
    data is flushed and fsynced before the rename, so a crash after
    return cannot roll the content back either.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        # Leave no half-written tmp behind when *this* writer survives
        # its own failure (a killed process still may; see sweep).
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    return path


def sweep_tmp_files(directory: Union[str, Path]) -> List[Path]:
    """Delete orphaned ``*.tmp`` files under ``directory`` (one level).

    These are the corpses of writers killed mid-:func:`atomic_write_text`;
    the corresponding target files are intact, so the tmp files are pure
    garbage.  Returns what was removed.
    """
    directory = Path(directory)
    removed: List[Path] = []
    if not directory.is_dir():
        return removed
    for tmp in sorted(directory.glob(f"*{TMP_SUFFIX}")):
        try:
            tmp.unlink()
        except OSError:
            continue
        removed.append(tmp)
    return removed


def sha256_text(text: str) -> str:
    """Hex content digest of ``text`` (UTF-8)."""
    return hashlib.sha256(text.encode()).hexdigest()


class JournalRecord(NamedTuple):
    """One complete journal line: the full post-transition state of one
    id, or a tombstone (``record is None``) for its removal."""

    line: int
    id: str
    record: Optional[Dict[str, object]]


@dataclass
class JournalScan:
    """What :func:`scan_journal` found in one journal file."""

    records: List[JournalRecord] = field(default_factory=list)
    #: (line number, problem) for every corrupt *complete* line.
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: byte length of the complete lines (where a torn tail starts).
    valid_bytes: int = 0
    #: bytes of a torn final line (no trailing newline); dropped.
    torn_bytes: int = 0


def journal_path(snapshot: Union[str, Path]) -> Path:
    """The journal sibling of a snapshot file."""
    return Path(snapshot).with_suffix(JOURNAL_SUFFIX)


def _journal_line(record_id: str, record: Optional[Dict[str, object]]) -> str:
    return json.dumps(
        {"id": record_id, "record": record},
        sort_keys=True, separators=(",", ":"),
    ) + "\n"


def scan_journal(path: Union[str, Path]) -> JournalScan:
    """Parse a journal; a missing file is an empty journal.

    A final line without its newline is a write the crash interrupted
    before it was acknowledged: it is reported in ``torn_bytes`` and
    dropped.  Every complete line must be ``{"id": str, "record":
    object | null}``; anything else lands in ``errors``.
    """
    scan = JournalScan()
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return scan
    complete, _, torn = data.rpartition(b"\n")
    scan.torn_bytes = len(torn)
    scan.valid_bytes = len(data) - len(torn)
    if not scan.valid_bytes:
        return scan
    for number, raw in enumerate(complete.split(b"\n"), start=1):
        try:
            entry = json.loads(raw)
        except ValueError as exc:
            scan.errors.append((number, f"not valid JSON: {exc}"))
            continue
        record = entry.get("record", ()) if isinstance(entry, dict) else ()
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("id"), str)
            or not (record is None or isinstance(record, dict))
        ):
            scan.errors.append(
                (number, 'expected {"id": str, "record": object|null}')
            )
            continue
        scan.records.append(JournalRecord(number, entry["id"], record))
    return scan


class SnapshotJournal:
    """A JSON snapshot file plus an fsynced journal of per-id records.

    The owner keeps its state in memory and reports every transition
    as the full post-transition record of each changed id
    (:meth:`append`).  The record is one compact JSON line appended to
    ``<name>.log`` and fsynced before :meth:`append` returns.  Once the
    journal holds more records than there are live ids, the snapshot is
    rewritten from ``render()`` (atomically) and the journal unlinked,
    so the journal costs O(1) amortized per transition and never grows
    beyond the state it describes.

    Crash safety: loading (:meth:`read`) replays the journal over the
    snapshot, last writer wins per id.  A torn final line was never
    acknowledged and is dropped.  A compaction runs after the
    triggering records are appended; it replaces the snapshot, then
    unlinks the journal, so a crash between those two steps leaves a
    journal whose last record for every id equals the snapshot's, and
    replaying it is a no-op.  A journal always sits beside a snapshot:
    a handle that has not read one writes the whole state first.

    One process writes through one handle; the owner serializes calls.
    """

    def __init__(self, path: Union[str, Path], render: Callable[[], str]) -> None:
        self.path = Path(path)
        self.journal_path = journal_path(self.path)
        self._render = render
        #: complete records in the journal file.
        self._records = 0
        #: a snapshot this handle read or wrote is on disk: the base
        #: its appends build on.
        self._has_snapshot = False
        #: where a torn tail starts; it is cut off before the next append.
        self._torn_at: Optional[int] = None

    def read(self) -> Tuple[Optional[str], List[JournalRecord]]:
        """The snapshot text (None when absent) and the journal records.

        Both files become this handle's base for later appends.
        Raises :class:`~repro.errors.ReproError` on a corrupt complete
        journal line; an unreadable snapshot raises its ``OSError``.
        """
        try:
            snapshot: Optional[str] = self.path.read_text()
        except FileNotFoundError:
            snapshot = None
        scan = scan_journal(self.journal_path)
        if scan.errors:
            line, problem = scan.errors[0]
            raise ReproError(
                f"journal {self.journal_path} line {line} is corrupt: "
                f"{problem}"
            )
        self._has_snapshot = snapshot is not None
        self._records = len(scan.records)
        self._torn_at = scan.valid_bytes if scan.torn_bytes else None
        return snapshot, scan.records

    def append(
        self,
        changes: Sequence[Tuple[str, Optional[Dict[str, object]]]],
        live: int,
    ) -> None:
        """Durably record ``changes`` (id, post-state or None) given
        ``live`` ids after the transition; compacts when due."""
        if not changes:
            return
        if not self._has_snapshot:
            # Files this handle never read describe some other state.
            self.replace()
            return
        self._append("".join(_journal_line(i, r) for i, r in changes))
        self._records += len(changes)
        if self._records > live:
            # Journaled first, so a journal left over by a crash before
            # the unlink replays as a no-op over the new snapshot.
            self._fold()

    def compact(self) -> None:
        """Fold the journal into the snapshot; no-op when it is empty."""
        if self._records or self._torn_at is not None:
            self._fold()

    def _fold(self) -> None:
        self._write_snapshot()
        self._unlink_journal()

    def replace(self) -> None:
        """Write the snapshot from scratch, dropping the journal first
        (its records do not lead up to the new state)."""
        self._unlink_journal()
        self._write_snapshot()

    def _write_snapshot(self) -> None:
        atomic_write_text(self.path, self._render())
        self._has_snapshot = True

    def _unlink_journal(self) -> None:
        try:
            os.unlink(self.journal_path)
        except FileNotFoundError:
            pass
        self._records = 0
        self._torn_at = None

    def _append(self, text: str) -> None:
        data = text.encode()
        fd = os.open(
            self.journal_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            if self._torn_at is not None:
                os.ftruncate(fd, self._torn_at)
                self._torn_at = None
            start = os.lseek(fd, 0, os.SEEK_END)
            try:
                while data:
                    data = data[os.write(fd, data):]
                os.fsync(fd)
            except BaseException:
                # Cut a half-written line so the next append starts clean.
                os.ftruncate(fd, start)
                raise
        finally:
            os.close(fd)


__all__ = [
    "JOURNAL_SUFFIX",
    "JournalRecord",
    "JournalScan",
    "SnapshotJournal",
    "TMP_SUFFIX",
    "atomic_write_text",
    "journal_path",
    "scan_journal",
    "sha256_text",
    "sweep_tmp_files",
]
