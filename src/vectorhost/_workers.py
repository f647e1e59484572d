"""Forked worker processes: when the program starts one, and how its
result and the warnings it raises reach this process.

The stepping loops hold the GIL, so work that does not wait on other work
(a sweep row, the trajectory verify measures) runs in a forked worker
process on Linux when two or more CPUs are usable.  Fork hands the worker
the imported modules, and with them any function a caller has wrapped,
which spawn would import again.  The program starts no thread of its own;
the OpenBLAS builds bundled with numpy and scipy each start an idle thread
pool on import, and OpenBLAS's fork handler shuts its pools down before
a fork (after the first fork the parent runs one thread), so no worker
inherits a pool mid-task.  That handler is OpenBLAS's: it is observed on
the bundled builds, not guaranteed by anything here.  multiprocessing is
imported only when a worker starts.
"""

from __future__ import annotations

import os
import sys
import warnings


def usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where no worker forks."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


class Worker:
    """target(ask, *args) in a forked process; what it returns or raises,
    and its warnings, come back through result().  ask() may be called
    once: it returns the reply the parent passes to result().  stop()
    ends and reaps the process on any exit path, whether it has sent its
    result or is no longer wanted."""

    def __init__(self, target, *args):
        import multiprocessing
        # the fork context flushes the standard streams before it forks,
        # so a worker inherits no buffered output to repeat
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_run, args=(child, target, args), daemon=True)
        self.process.start()
        child.close()   # so recv() sees EOF if the worker dies

    def result(self, reply=None):
        """target's result, its warnings emitted here first; what it raised
        is raised here.  The worker's ask() is answered with reply."""
        try:
            sent = self.conn.recv()
            if sent is None:   # ask()
                self.conn.send(reply)
                sent = self.conn.recv()
        except (EOFError, OSError):   # the worker died
            sent = None
        self.process.join()   # it has sent all it will
        if sent is None:
            raise RuntimeError(f"a worker process exited with code "
                               f"{self.process.exitcode} and no result")
        return emitted(*sent)

    def stop(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()


def _run(conn, target, args) -> None:
    """The worker process: run target and send recorded()'s pair."""
    def ask():
        conn.send(None)
        return conn.recv()
    conn.send(recorded(target, ask, *args))


def recorded(fn, *args) -> tuple:
    """(fn(*args) or the exception it raised, its warnings), the warnings as
    (message, category, filename, lineno) for emitted() in another process."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def emitted(result, caught):
    """Emit recorded warnings as warnings.warn would have here, through this
    process's filters and the raising module's once-per-line registry;
    then return the result, or raise it if fn raised."""
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(message, category, filename, lineno,
                               module=getattr(module, "__name__", None),
                               registry=registry)
    if isinstance(result, BaseException):
        raise result
    return result
