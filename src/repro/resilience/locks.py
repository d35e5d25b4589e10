"""Cross-process file locking for shared on-disk state.

The result store and the trace cache are explicitly safe to share
between concurrent sweep processes, which means two writers can race
on one entry.  Atomic renames already prevent *torn* files; this
module serializes each write with its check for an entry already on
disk, so two processes completing the same cell leave one verified
entry, and two processes never generate the same multi-megabyte trace
at once.

:class:`FileLock` is an advisory ``fcntl.flock`` on a dedicated
``<path>.lock`` sidecar.  The kernel releases it when the holder dies,
so a SIGKILLed sweep can never deadlock the cache directory.
"""

from __future__ import annotations

import errno
import fcntl
import os
import time
from typing import Optional

from repro.common.errors import ReproError

#: Seconds between attempts to take a held lock.
POLL_S = 0.02
#: Seconds to wait for a held lock before raising :class:`LockTimeout`.
TIMEOUT_S = 60.0


class LockTimeout(ReproError):
    """The lock could not be acquired within the allowed wait."""


class FileLock:
    """Advisory cross-process lock; not reentrant.

    Usage::

        with FileLock(path + ".lock"):
            ...check, then write...
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self) -> "FileLock":
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = time.monotonic() + TIMEOUT_S
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EACCES, errno.EAGAIN):
                        raise
                    if time.monotonic() >= deadline:
                        raise LockTimeout(
                            f"could not lock {self.path!r} within {TIMEOUT_S:g}s"
                        ) from None
                    time.sleep(POLL_S)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return self

    def __exit__(self, *exc) -> None:
        fd, self._fd = self._fd, None
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
