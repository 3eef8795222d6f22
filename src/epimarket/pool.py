"""A fork pool: the shares of one job, run on every usable CPU.

A child starts from the parent's memory at the fork, so it reads the
parent's arrays copy-on-write; only its result passes back, pickled
through a pipe. The sweep's point shares and the writer's row ranges run
on it (`analysis._epidemic_rows`, `output._write_tables`).
"""
from __future__ import annotations

import os
import pickle
import signal


def usable_cpus() -> int:
    """The number of processes a job may split into: the CPUs this
    process may run on, or 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked(fn, shares: list) -> list:
    """[fn(share) for share in shares], fn of each share after the first
    run in a forked child process.

    A child pickles its result, or the exception fn raised, into a pipe
    and leaves by os._exit, so it never flushes the parent's stdio or
    buffered files, or runs its atexit handlers. An exception from a
    child is raised here, and so is a RuntimeError naming the exit status
    of a child that sent nothing.
    Every child is reaped before this returns or raises; on an error it is
    killed first.
    """
    children = []  # (pid, read end of its pipe)
    sent: list[bytes] = []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, share, w)
            children.append((pid, open(r, "rb")))
            os.close(w)
        results = [fn(shares[0])]
        sent = [pipe.read() for _pid, pipe in children]
    finally:
        failed = len(sent) < len(children)
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if failed:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _pipe), data, status in zip(children, sent, statuses):
        if not data:
            raise RuntimeError(
                f"forked process {pid} ended without sending its result "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            )
        raised, value = pickle.loads(data)
        if raised:
            raise value
        results.append(value)
    return results


def _child(fn, share, w: int):
    """The forked side of `forked`: never returns."""
    code = 1
    try:
        try:
            data = pickle.dumps((False, fn(share)))
        except BaseException as exc:  # raised again in the parent
            data = pickle.dumps((True, exc))
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)
