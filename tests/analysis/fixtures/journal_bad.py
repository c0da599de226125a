"""Fixture: a hand-rolled journal append (REPRO230 x2).

``append`` opens the log with ``O_APPEND`` and writes a line; nothing
drops a torn tail on replay.  ``reopen`` passes its flags through a
variable, which the prover cannot read, so it assumes a write.
"""

import os


class RawJournal:
    def append(self, path, line):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
            os.fsync(fd)
        finally:
            os.close(fd)

    def reopen(self, path, flags):
        return os.open(path, flags)
