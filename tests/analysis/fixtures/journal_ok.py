"""Fixture: journaled writes done right.

Appends go through ``fsutil.SnapshotJournal``; a read-only ``os.open``
is not a write sink.
"""

import os

from repro.fsutil import SnapshotJournal


class Journaled:
    def __init__(self, path, render):
        self.journal = SnapshotJournal(path, render)

    def record(self, job_id, state, live):
        self.journal.append([(job_id, state)], live=live)

    def peek(self, path):
        fd = os.open(path, os.O_RDONLY)
        try:
            return os.read(fd, 64)
        finally:
            os.close(fd)
