"""Cross-process file locking for shared on-disk state.

The result store and the trace cache are explicitly safe to share
between concurrent sweep processes, which means two writers can race
on one entry.  Atomic renames already prevent *torn* files; this
module serializes each write with its check for an entry already on
disk, so two processes completing the same cell leave one verified
entry, and two processes never generate the same multi-megabyte trace
at once.

:class:`FileLock` is an advisory lock on a dedicated ``<path>.lock``
sidecar.  On POSIX it is ``fcntl.flock`` — automatically released by
the kernel when the holder dies, so a SIGKILLed sweep can never
deadlock the cache directory.  Where ``fcntl`` is unavailable it falls
back to ``O_CREAT | O_EXCL`` spin-locking with stale-file eviction (a
holder that died leaves a lock file behind; anything older than
``stale_s`` is broken).
"""

from __future__ import annotations

import errno
import os
import time
from typing import Optional

from repro.common.errors import ReproError

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class LockTimeout(ReproError):
    """The lock could not be acquired within the allowed wait."""


class FileLock:
    """Advisory cross-process lock; reentrant within one instance.

    Usage::

        with FileLock(path + ".lock"):
            ...check, then write...

    ``timeout_s=None`` waits forever (fcntl blocks natively; the
    fallback spins).  The fallback breaks locks older than ``stale_s``
    seconds on the assumption the holder died.
    """

    def __init__(
        self,
        path: str,
        timeout_s: Optional[float] = 60.0,
        poll_s: float = 0.02,
        stale_s: float = 600.0,
    ) -> None:
        self.path = path
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.stale_s = stale_s
        self._fd: Optional[int] = None
        self._depth = 0

    # --- context manager ---

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # --- acquisition ---

    def acquire(self) -> None:
        if self._depth:
            self._depth += 1
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if fcntl is not None:
            self._acquire_flock()
        else:  # pragma: no cover - non-POSIX fallback
            self._acquire_excl()
        self._depth = 1

    def release(self) -> None:
        if not self._depth:
            return
        self._depth -= 1
        if self._depth:
            return
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(fd)
            try:
                os.remove(self.path)
            except OSError:
                pass

    def _acquire_flock(self) -> None:
        assert fcntl is not None
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = (
            None if self.timeout_s is None else time.monotonic() + self.timeout_s
        )
        try:
            while True:
                try:
                    if deadline is None:
                        fcntl.flock(fd, fcntl.LOCK_EX)
                    else:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError as exc:
                    if exc.errno not in (errno.EACCES, errno.EAGAIN):
                        raise
                    if deadline is not None and time.monotonic() >= deadline:
                        raise LockTimeout(
                            f"could not lock {self.path!r} within "
                            f"{self.timeout_s:g}s"
                        ) from None
                    time.sleep(self.poll_s)
        except BaseException:
            if self._fd is None:
                os.close(fd)
            raise

    def _acquire_excl(self) -> None:  # pragma: no cover - non-POSIX fallback
        deadline = (
            None if self.timeout_s is None else time.monotonic() + self.timeout_s
        )
        while True:
            try:
                self._fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                )
                return
            except FileExistsError:
                try:
                    age = time.time() - os.stat(self.path).st_mtime
                    if age > self.stale_s:
                        os.remove(self.path)  # holder presumed dead
                        continue
                except OSError:
                    continue
                if deadline is not None and time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"could not lock {self.path!r} within {self.timeout_s:g}s"
                    ) from None
                time.sleep(self.poll_s)
