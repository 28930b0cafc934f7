"""Wire protocol between the cluster router and its worker processes.

Messages travel over :class:`multiprocessing.connection.Connection`
pipes (one duplex pipe per worker), which gives length-prefixed framing,
pickling of numpy payloads, and a ``fileno()`` the selectors-based
router can multiplex — without inventing a socket format. Every message
is a plain tuple whose first element is one of the kind constants below,
so both ends dispatch with a single comparison and the protocol stays
greppable.

Router → worker requests::

    (PAIRS, batch_id, sources, targets, budget)      # count_many batch
    (SINGLE_SOURCE, batch_id, s, budget)             # full sweep from s
    (SET_TO_SET, batch_id, sources, targets, budget) # whole set query
    (RELOAD, generation)                             # remap the arena
    (STATS, batch_id)                                # memory/identity probe
    (PING,)                                          # heartbeat probe
    (STOP,)                                          # clean shutdown

Worker → router replies::

    (HELLO, generation, n, signature)                # once, after spawn
    (OK, batch_id, generation, payload)              # request succeeded
    (ERR, batch_id, kind, message)                   # typed request failure
    (RELOADED, generation, ok, detail)               # reload outcome
    (PONG, generation)                               # heartbeat answer

``PING``/``PONG`` is the router's liveness probe for *idle* workers: a
busy worker is supervised through its in-flight batch instead (the
protocol is sequential per worker, so a wedged compute can never answer
a ping anyway). An idle worker that misses its pong within the stall
timeout is declared dead and respawned.

The router does not trust a worker's framing: replies are deframed by a
router-side incremental decoder
(:class:`_FrameDecoder`) that treats a short read,
a torn length prefix, or an unpicklable frame as *that worker's* death —
a crashing worker can corrupt at most its own pipe, never the router.

``budget`` is the batch's deadline budget in seconds (``None`` =
unlimited); the worker rebuilds a local
:class:`~repro.serving.deadline.Deadline` from it, so expiry surfaces as
an ``ERR`` with kind :data:`ERR_DEADLINE` within one scan chunk.
``generation`` is the router-assigned reload ordinal the worker's mapped
arena corresponds to. Every request goes whole to one worker, so one
reply answers it from one index generation.

The protocol is deliberately *sequential per worker*: a worker owns at
most one outstanding batch, so the router's view of worker state (idle,
busy, reloading) is exact and reloads can wait for the in-flight batch
to finish on the old arena instead of interrupting it.
"""

import os
import pickle
import struct

#: Router → worker request kinds.
PAIRS = "pairs"
SINGLE_SOURCE = "single_source"
SET_TO_SET = "set_to_set"
RELOAD = "reload"
STATS = "stats"
PING = "ping"
STOP = "stop"

#: Worker → router reply kinds.
HELLO = "hello"
OK = "ok"
ERR = "err"
RELOADED = "reloaded"
PONG = "pong"

#: Typed failure kinds carried by ``ERR`` replies.
ERR_DEADLINE = "deadline"
ERR_VERTEX = "vertex"
ERR_SERIALIZATION = "serialization"
ERR_ERROR = "error"


class _WorkerGone(Exception):
    """Internal: the worker behind a pipe can never speak again."""


class _FrameDecoder:
    """Incremental router-side decoder for Connection-framed pickles.

    The router must never trust a worker's framing: a process dying
    inside ``write(2)`` leaves a truncated length-prefixed frame on the
    pipe, and a blocking ``Connection.recv`` on that would wedge (or
    crash) the router itself. This decoder reads the raw (non-blocking)
    fd, buffers bytes, and yields only complete frames; a zero-byte
    read marks ``eof`` (worker death — any buffered partial frame is
    simply the torn write it died inside), and a frame that fails to
    unpickle raises :class:`_WorkerGone`, failing that worker only.

    Wire format matches CPython's ``multiprocessing.connection``: a
    4-byte big-endian signed length, with ``-1`` escaping to an 8-byte
    unsigned extended length, then the pickled payload.
    """

    __slots__ = ("fd", "eof", "_buf")

    def __init__(self, fd):
        self.fd = fd
        self.eof = False
        self._buf = bytearray()

    def pump(self):
        """Drain the fd; return complete decoded messages, set ``eof``.

        Raises :class:`_WorkerGone` on an undecodable frame. Messages
        decoded before an EOF are still returned — the caller processes
        them, then checks ``eof`` and runs the death path.
        """
        while not self.eof:
            try:
                chunk = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                break
            except OSError as exc:
                raise _WorkerGone(f"pipe read failed: {exc}") from exc
            if not chunk:
                self.eof = True
                break
            self._buf += chunk
        messages = []
        while True:
            frame = self._next_frame()
            if frame is None:
                break
            try:
                messages.append(pickle.loads(frame))
            except Exception as exc:
                raise _WorkerGone(f"undecodable frame: {exc!r}") from exc
        return messages

    def _next_frame(self):
        buf = self._buf
        if len(buf) < 4:
            return None
        size, = struct.unpack("!i", bytes(buf[:4]))
        offset = 4
        if size == -1:
            if len(buf) < 12:
                return None
            size, = struct.unpack("!Q", bytes(buf[4:12]))
            offset = 12
        if size < 0:
            raise _WorkerGone(f"corrupt frame length {size}")
        if len(buf) < offset + size:
            return None
        frame = bytes(buf[offset:offset + size])
        del buf[:offset + size]
        return frame
