"""Parts of one computation run at the same time in forked processes.

A caller splits its work into parts, one per CPU this process may use
(``cpus``), does one part itself and hands the others to ``forked``, which
runs each in a child made by a bare ``os.fork``.  A child calls the
function on its part and writes the bytes it returns, or the exception
that ended it, to a pipe, and leaves by ``os._exit``: it flushes no stdio
or file buffer it inherited and runs no ``atexit`` hook.  The caller takes
each child's bytes with ``Child.result`` once its own part is done.

Every child is reaped before ``forked`` is left, and killed first if the
caller raises.  A child that ends without writing a whole result raises
``ChildProcessError``.  With one CPU, or where the platform has no
``os.fork`` or ``os.sched_getaffinity``, the caller makes no parts for
children and so does all the work itself.
"""

from __future__ import annotations

import os
import pickle
import shutil
from contextlib import contextmanager

_RETURNED, _RAISED = b"r", b"e"  # the first byte a child writes


def cpus() -> int:
    """CPUs this process may use, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


class Child:
    """One forked child: its pid (None once reaped) and the read end of its
    pipe.  ``what`` names it in the error raised if it dies."""

    def __init__(self, pid: int, pipe, what: str):
        self.pid = pid
        self.pipe = pipe
        self.what = what

    def _reap(self) -> int:
        self.pipe.close()
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def result(self, sink=None) -> bytes | None:
        """The bytes the child's function returned, read to the end of its
        pipe; with a binary ``sink``, they are copied into it in blocks
        instead, and None is returned.  Raises the exception that ended the
        function, or ChildProcessError if the child ended without writing a
        whole result.  The child is reaped either way."""
        tag = self.pipe.read(1)
        if tag == _RETURNED and sink is not None:
            shutil.copyfileobj(self.pipe, sink)
            data = None
        else:
            data = self.pipe.read()
        code = self._reap()
        if code != 0:
            raise ChildProcessError(f"{self.what} ended without a result (exit code {code})")
        if tag == _RAISED:
            raise pickle.loads(data)
        return data


def _run_child(fd: int, fn, part, readers: list[int]) -> None:
    """The body of a forked child: write fn(part), or the exception it
    raised, to fd and leave, with status 0 only once all of it is written.
    It first closes the read ends of the pipes it inherited, so that only
    the parent reads: once the parent closes one, its child gets EPIPE."""
    status = 1
    try:
        for r in readers:
            os.close(r)
        try:
            tag, data = _RETURNED, fn(part)
        except BaseException as exc:  # sent to the parent, which raises it
            tag, data = _RAISED, pickle.dumps(exc)
        with open(fd, "wb") as pipe:
            pipe.write(tag)
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@contextmanager
def forked(fn, parts, what: str):
    """Fork one child per part, which computes ``fn(part)``, a bytes-like
    object; yield the children, in the order of ``parts``.

    The caller takes every child's result inside the block.  On leaving it,
    each child not yet reaped is reaped, after its pipe is closed, so a
    child still writing ends; if the block raises, those children are
    killed first."""
    children: list[Child] = []
    try:
        for part in parts:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_child(w, fn, part, [r] + [child.pipe.fileno() for child in children])
            os.close(w)
            children.append(Child(pid, open(r, "rb"), what))
        yield children
    except BaseException:
        import signal

        for child in children:
            if child.pid is not None:
                os.kill(child.pid, signal.SIGKILL)
        raise
    finally:
        for child in children:
            if child.pid is not None:
                child._reap()
