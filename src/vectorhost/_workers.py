"""Forked worker processes: when the program starts one, and how the
warnings a worker raises reach this process.

The stepping loops hold the GIL, so work that does not wait on other work
(a sweep row, the trajectory verify measures) runs in a forked worker
process on Linux when two or more CPUs are usable.  Fork hands the worker
the imported modules, and with them any function a caller has wrapped,
which spawn would import again.  Fork is safe here because the program
starts no thread.  multiprocessing is imported only when a worker starts.
"""

from __future__ import annotations

import os
import sys
import warnings


def usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where no worker forks."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def fork_context():
    """multiprocessing's fork context (its fork flushes the standard
    streams first, so a worker inherits no buffered output to repeat)."""
    import multiprocessing
    return multiprocessing.get_context("fork")


class Worker:
    """target(conn, *args) in a forked process, where conn is one end of a
    pipe and self.conn the other.  stop() ends and reaps the process on any
    exit path, whether it has sent its result or is no longer wanted."""

    def __init__(self, target, *args):
        ctx = fork_context()
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=target, args=(child, *args), daemon=True)
        self.process.start()
        child.close()   # so recv() sees EOF if the worker dies

    def stop(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()


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
