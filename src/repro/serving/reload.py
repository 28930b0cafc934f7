"""Hot index reload: notice a rebuilt index file and swap it in live.

Index rebuilds land on disk through the library's atomic writer (temp
file + fsync + rename), so at any instant the path holds exactly one
consistent byte string. The :class:`IndexWatcher` detects *which* one:
it remembers the last observed signature — inode, ``mtime_ns``,
``ctime_ns`` and size from ``stat`` plus, when the header parses, the
embedded graph fingerprint — and :meth:`IndexWatcher.poll` reports when
the file on disk is no longer the bytes that were loaded.

:class:`~repro.serving.service.SPCService` polls between requests (every
``reload_check_every`` admissions) and calls
:meth:`~repro.resilience.ResilientSPCIndex.reload`, which swaps the
served index atomically under its lock and bumps its generation counter.
In-flight requests keep the snapshot they started with, so a swap never
drops or torments a running query. :class:`ReloadThread` wraps the same
poll in a daemon thread for deployments that prefer time-based checks
over request-count-based ones.
"""

import os
import threading

from repro.exceptions import SerializationError
from repro.io.serialize import read_label_meta

_MISSING = ("missing",)


class IndexWatcher:
    """Detect on-disk changes of one index file (SPCF, or SPCL labels).

    ``poll()`` is cheap (one ``stat``; the header is only re-read when
    the stat signature moved) and never raises: an unreadable or
    corrupt file is itself a *change* to report — the reloader is the
    one that decides how to react (typically: degrade).
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        self._last = self._signature()

    @property
    def path(self):
        """The watched file path."""
        return self._path

    def _stat_ident(self):
        try:
            stat = os.stat(self._path)
        except OSError:
            return _MISSING
        return (stat.st_ino, stat.st_mtime_ns, stat.st_ctime_ns,
                stat.st_size)

    def _signature(self):
        """Full signature; remembers the stat part for :meth:`poll`."""
        ident = self._stat = self._stat_ident()
        if ident is _MISSING:
            return _MISSING
        try:
            meta = read_label_meta(self._path)
        except (OSError, SerializationError):
            return ident + ("unreadable",)
        return ident + (meta.fingerprint,)

    def poll(self):
        """True when the file changed since the last ``poll``/``mark``."""
        if self._stat_ident() == self._stat:
            return False
        current = self._signature()
        if current == self._last:
            return False
        self._last = current
        return True

    def mark(self):
        """Adopt the current on-disk state as the baseline (after a load)."""
        self._last = self._signature()

    def __repr__(self):
        return f"IndexWatcher({self._path!r})"


class ReloadThread:
    """Daemon thread polling a watcher and firing a reload callback.

    ``callback`` runs on the watcher thread whenever the file changed;
    exceptions from it are swallowed into ``errors`` (a reload must never
    kill the watcher). ``stop()`` joins the thread.
    """

    def __init__(self, watcher, callback, interval=1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._watcher = watcher
        self._callback = callback
        self._interval = interval
        self._stop = threading.Event()
        self._thread = None
        self.fired = 0
        self.errors = []

    def start(self):
        """Launch the daemon poll thread; returns ``self`` for chaining."""
        if self._thread is not None:
            raise RuntimeError("reload thread already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="spc-index-reload")
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(self._interval):
            if self._watcher.poll():
                self.fired += 1
                try:
                    self._callback()
                except Exception as exc:  # noqa: BLE001 - observability only
                    self.errors.append(exc)

    def stop(self):
        """Signal the poll thread to exit and join it (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
