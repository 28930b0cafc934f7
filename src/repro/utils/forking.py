"""Fork child processes from a threaded program, one fork at a time.

A child forked while another thread holds the child end of a fresh pipe
inherits that end and keeps it open. Whoever waits for EOF on the pipe
(a process sentinel, a result pipe) then waits for the wrong process to
exit: a rebuild child forked beside a cluster worker respawn once kept
``MaintenanceController.rebuild_now`` waiting until its task timeout.
:func:`start_child` creates the pipe, forks and closes the child's end
under one process-wide lock, so no fork can see another's child end.
"""

import multiprocessing
import threading

_FORK_LOCK = threading.Lock()


def start_child(target, args, name=None, duplex=False):
    """Fork a daemon process running ``target(child_conn, *args)``.

    Returns ``(process, conn)``, ``conn`` being the parent's end of a new
    :func:`multiprocessing.Pipe` (its reading end unless ``duplex``).
    Uses the fork start method where the platform has it.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    with _FORK_LOCK:
        conn, child_conn = ctx.Pipe(duplex=duplex)
        process = ctx.Process(target=target, args=(child_conn, *args),
                              name=name, daemon=True)
        process.start()
        child_conn.close()
    return process, conn
