"""Cluster worker process: map the shared label arena, answer batches.

Each worker is a separate OS process that opens the *same* SPCF v4 flat
label file through :func:`repro.io.flat_store.open_shared` — a zero-copy
read-only ``mmap``, so N workers share one physical copy of the label
columns through the page cache instead of N pickled duplicates. The
worker then loops on its pipe: receive one batch, execute it against the
mapped :class:`~repro.core.flat_labels.FlatLabels` with the vectorized
engines of :mod:`repro.core.batch_query`, reply, repeat.

Failure discipline mirrors :class:`~repro.serving.service.SPCService`:
per-request problems (expired deadline, invalid vertex, corrupt arena)
become typed ``ERR`` replies and the worker keeps serving; only a closed
pipe (router gone) or an explicit ``STOP`` ends the process. A reload
command remaps the file in place — the old arena stays valid until the
swap succeeds (mmap pins the old inode even after an atomic replace), so
a corrupt replacement file demotes nothing: the worker reports the
failure and keeps answering from the generation it has.
"""

import os

from repro.core.batch_query import count_many, count_set_to_set, single_source
from repro.exceptions import (
    DeadlineExceeded,
    ReproError,
    SerializationError,
    VertexError,
)
from repro.io.flat_store import open_shared
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.serving import protocol
from repro.serving.deadline import Deadline


def _memory_stats(path):
    """RSS and mapping-sharing evidence from ``/proc`` (Linux only).

    Reports the process RSS plus, for the mapping of ``path``, how many
    KiB are resident and how many are *private dirty* — the number that
    must stay ~0 for a read-only shared arena (private dirty pages are
    exactly the "duplicated label memory" the cluster exists to avoid).
    Returns partial data (``supported=False``) where /proc is missing.
    """
    stats = {"pid": os.getpid(), "supported": False, "rss_kb": None,
             "map_rss_kb": 0, "map_private_dirty_kb": 0,
             "map_shared_clean_kb": 0}
    basename = os.path.basename(path)
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    stats["rss_kb"] = int(line.split()[1])
                    break
        with open("/proc/self/smaps") as handle:
            in_mapping = False
            for line in handle:
                if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ", 1)[0]:
                    in_mapping = line.rstrip().endswith(basename)
                    continue
                if not in_mapping:
                    continue
                field = line.split(":", 1)[0]
                if field in ("Rss", "Private_Dirty", "Shared_Clean"):
                    kb = int(line.split()[1])
                    key = {"Rss": "map_rss_kb",
                           "Private_Dirty": "map_private_dirty_kb",
                           "Shared_Clean": "map_shared_clean_kb"}[field]
                    stats[key] += kb
    except OSError:
        return stats
    stats["supported"] = True
    return stats


def _execute(flat, message):
    """Run one batch message against the arena; return the payload."""
    kind = message[0]
    if kind == protocol.PAIRS:
        _, _, sources, targets, budget = message
        deadline = Deadline.of(budget)
        return count_many(flat, list(zip(sources, targets)),
                          deadline=deadline)
    if kind == protocol.SINGLE_SOURCE:
        _, _, s, budget = message
        return single_source(flat, s, deadline=Deadline.of(budget))
    if kind == protocol.SET_TO_SET:
        _, _, sources, targets, budget = message
        deadline = Deadline.of(budget)
        if deadline is not None:
            deadline.check()
        return count_set_to_set(flat, sources, targets)
    raise AssertionError(f"unknown batch kind {kind!r}")


def worker_main(conn, path, generation, verify=True, fault=None):
    """Worker process entry point: serve batches from ``conn`` forever.

    ``generation`` is the router-assigned ordinal for the arena mapped at
    spawn; reload commands carry the next ordinal. The first message sent
    is always ``HELLO`` (or an ``ERR`` with batch id ``None`` when the
    initial open fails, letting the router fail fast instead of hanging).

    ``fault`` is the chaos-test hook: a picklable object (e.g.
    :class:`repro.testing.faults.StalledWorker` or
    :class:`~repro.testing.faults.TornPipeWrite`) whose
    ``before_reply(conn, reply)`` runs just before each successful batch
    reply is sent. Returning True means the fault consumed the reply
    (e.g. it wrote a torn frame); marker-file dedup inside the fault
    keeps firing deterministic across supervisor respawns.
    """
    # Nothing reads a worker's metrics: the router keeps the serving
    # families. A registry inherited enabled across the fork would only
    # spend the worker's time on them.
    set_registry(MetricsRegistry(enabled=False))
    try:
        flat, meta, signature = open_shared(path, verify=verify)
    except (OSError, SerializationError) as exc:
        conn.send((protocol.ERR, None, protocol.ERR_SERIALIZATION, str(exc)))
        conn.close()
        return
    conn.send((protocol.HELLO, generation, meta.n, signature))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == protocol.STOP:
            break
        if kind == protocol.RELOAD:
            next_generation = message[1]
            try:
                flat, meta, signature = open_shared(path, verify=verify)
            except (OSError, SerializationError) as exc:
                conn.send((protocol.RELOADED, generation, False, str(exc)))
            else:
                generation = next_generation
                conn.send((protocol.RELOADED, generation, True, signature))
            continue
        if kind == protocol.PING:
            conn.send((protocol.PONG, generation))
            continue
        if kind == protocol.STATS:
            batch_id = message[1]
            payload = _memory_stats(path)
            payload["generation"] = generation
            payload["signature"] = signature
            payload["entries"] = meta.entries
            payload["arena_bytes"] = meta.total_bytes
            conn.send((protocol.OK, batch_id, generation, payload))
            continue
        batch_id = message[1]
        try:
            payload = _execute(flat, message)
        except DeadlineExceeded as exc:
            conn.send((protocol.ERR, batch_id, protocol.ERR_DEADLINE,
                       str(exc)))
        except VertexError as exc:
            conn.send((protocol.ERR, batch_id, protocol.ERR_VERTEX, str(exc)))
        except SerializationError as exc:
            conn.send((protocol.ERR, batch_id, protocol.ERR_SERIALIZATION,
                       str(exc)))
        except ReproError as exc:
            conn.send((protocol.ERR, batch_id, protocol.ERR_ERROR, str(exc)))
        else:
            reply = (protocol.OK, batch_id, generation, payload)
            if fault is not None and fault.before_reply(conn, reply):
                continue
            conn.send(reply)
    conn.close()
