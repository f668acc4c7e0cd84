"""One call per argument, the first in this process and the others in forked children.

BLEU scoring spreads its shards over the CPUs this way, and ``run`` decodes
and scores the test set in a child while it builds the training mix.

A child is stopped with SIGTERM, which a handler it sets right after the
fork turns into an ``Ended`` exception. So a child stops the way an
interrupted process does: ``translate_file`` kills the translator's process
group, and a child's own children (BLEU shards) are stopped and reaped in
turn. Where the platform cannot fork, the calls run one after the other in
this process.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
from typing import Callable, Sequence

from .errors import PipelineError


# the signals that end a process by default and that run turns into an
# exception while it runs (SIGHUP exists on POSIX only)
ENDING_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name))
_STOP_SIGNALS = {signal.SIGINT, *ENDING_SIGNALS}  # every signal that may raise in this process


class Ended(BaseException):
    """An ending signal turned into an exception; ``args[0]`` is the signal number.

    A forked child raises it on SIGTERM, and ``run`` on SIGTERM and SIGHUP,
    so one sent to a child comes back to the parent as the same exception.
    Not an Exception, so nothing absorbs it.
    """


def raise_ended(signum, frame) -> None:
    raise Ended(signum)


def _send_and_exit(func: Callable, arg, write_fd: int, mask) -> None:
    """In a forked child: pickle func(arg), or the exception it raised, into the pipe; exit.

    The child starts with SIGINT, SIGTERM and SIGHUP blocked, so none can
    unwind it into the parent's code before this sets its SIGTERM handler
    and restores the parent's signal mask.
    """
    code = 1
    try:
        signal.signal(signal.SIGTERM, raise_ended)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            payload = (True, func(arg))
        except BaseException as exc:  # re-raised in the parent
            payload = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)  # never unwind into the parent's code, run its atexit or flush its buffers


def map_forked(func: Callable, args: Sequence, worker: str = "worker", result: str = "result") -> list:
    """[func(a) for a in args], args[0] here and each later one in a forked child.

    An exception raised in a child is raised here. A child that exits
    without sending its whole result raises PipelineError, which names it
    as ``worker`` and what it owed as ``result``; nothing partial is
    returned. Every child is reaped before this returns or raises, and on
    an exception or interrupt the children still running are stopped
    first.
    """
    if not hasattr(os, "fork"):
        return [func(arg) for arg in args]
    children: list[tuple[int, io.BufferedReader]] = []  # not yet reaped
    try:
        for arg in args[1:]:
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            # blocked until the child is on the list of children to stop
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
            try:
                pid = os.fork()
                if pid == 0:
                    _send_and_exit(func, arg, write_fd, mask)
                children.append((pid, pipe))
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write_fd)  # EOF comes when the child exits only if no later child holds it
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [func(args[0])]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise PipelineError(
                    f"{worker} {pid} ended (exit code "
                    f"{os.waitstatus_to_exitcode(status)}) without sending its {result}"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, _ in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
