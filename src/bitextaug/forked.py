"""How a process ends, and one call per argument, the later ones in forked children.

Within ``ending_signals()``, SIGTERM and SIGHUP raise ``Ended``, and the
process ends by that signal once the exception has left the block. Every
command runs in one, so a scheduler's timeout or a closed terminal stops
it the way an interrupt does: translators are killed, temporary
directories removed, and forked children stopped and reaped.

``map_forked`` spreads BLEU shards over the CPUs, runs ``run``'s test
side next to its train side, and lets ``corpus.save_parallel`` write a
large corpus's target file in a child while the parent writes its source
file (unless a child of the parent already runs). A child turns SIGTERM
into ``Ended`` itself, so it stops the way its parent does. Without
``os.fork`` the calls run in turn.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import threading
from typing import Callable, Sequence

from .errors import PipelineError


# the signals that end a process by default, which ending_signals takes over (SIGHUP is POSIX only)
ENDING_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name))
_STOP_SIGNALS = {signal.SIGINT, *ENDING_SIGNALS}  # every signal that may raise in this process


class Ended(BaseException):
    """An ending signal turned into an exception; ``args[0]`` is the signal number.

    One raised in a forked child is raised again in the parent. Not an
    Exception, so nothing absorbs it.
    """


def _raise_ended(signum, frame) -> None:
    raise Ended(signum)


@contextlib.contextmanager
def ending_signals():
    """Within the block, each ending signal whose handler is the default raises Ended.

    Only in the main thread; a nested block takes over nothing. On leaving,
    the default handlers are back, and an Ended for a signal taken over
    ends the process by that signal; any other Ended propagates.
    """
    main = threading.current_thread() is threading.main_thread()  # the only thread that sets handlers
    taken = [s for s in ENDING_SIGNALS if main and signal.getsignal(s) == signal.SIG_DFL]
    ended = None
    try:
        for signum in taken:
            signal.signal(signum, _raise_ended)
        yield
    except Ended as exc:
        ended = exc.args[0]
        raise
    finally:
        for signum in taken:
            signal.signal(signum, signal.SIG_DFL)
        if ended in taken:
            os.kill(os.getpid(), ended)


@contextlib.contextmanager
def held_signals():
    """SIGINT and the ending signals wait until the block ends; yields the mask to restore."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _send_and_exit(func: Callable, arg, write_fd: int, mask) -> None:
    """In a forked child: pickle func(arg), or the exception it raised, into the pipe; exit.

    The child starts with SIGINT, SIGTERM and SIGHUP blocked, so none can
    unwind it into the parent's code before this sets its SIGTERM handler
    and restores the parent's signal mask.
    """
    code = 1
    try:
        signal.signal(signal.SIGTERM, _raise_ended)
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
            with held_signals() as mask:  # until the child is on the list of children to stop
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
