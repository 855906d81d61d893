"""The data path's one shared helper thread.

The sampler (``retsim``) and the co-moment build (``comoments``) hand part
of their work to one private worker thread and keep a share of their own:
the sampler draws and correlates piece i + 1 while the helper sends piece
i through the normal-score maps, and the build forms every other chunk's
Gram matrix on the helper.  numpy releases the GIL in those element-wise
passes and BLAS calls, so the two threads run on two CPUs.  Each value is
computed by the same operations on either thread, and the chunk Grams are
added in chunk order, so every result is bit for bit that of a serial run.

``helper()`` gives the thread only where it can pay:

* the process may run on two or more CPUs (``os.sched_getaffinity``);
* the environment pins OpenBLAS to one thread when the package is
  imported (``OPENBLAS_NUM_THREADS``, else ``GOTO_NUM_THREADS``, else
  ``OMP_NUM_THREADS``, as OpenBLAS reads them, equal to 1).  A threaded
  BLAS already runs the data path's products on the second CPU, and with
  it the helper made the N = 15 sampler and build 15-26 % slower.

Each caller also keeps work too small to pay for a handoff to itself.  A
task the helper has not started when its result is due runs on the
caller instead (``Handoff.result``), so a helper that gets no CPU costs
little.  A caller settles every task it handed over before it returns,
raises or is closed, so no helper work outlives the call that made it.  A
consumer that spends its time in Python keeps every stage on its own
thread for a block (``on_caller``), as ``simulate``'s CSV writer does.
The thread is made on first use, at most one per process, and no
process-wide setting is changed.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterator, Mapping

#: tests set this to False to run every data-path stage on the calling thread
_ENABLED = True


def blas_single_threaded(environ: Mapping[str, str]) -> bool:
    """Whether ``environ`` pins OpenBLAS to one thread: the first of its
    thread-count variables that holds a positive integer holds 1."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


#: read at import, after numpy's BLAS has read the same variables
_BLAS_SINGLE_THREADED = blas_single_threaded(os.environ)


class Handoff:
    """A task handed to the helper thread."""

    def __init__(self, future: Future, call: Callable[[], Any]) -> None:
        self._future, self._call = future, call

    def result(self) -> Any:
        """The task's result, computed on the caller if the helper has not started it."""
        return self._call() if self._future.cancel() else self._future.result()

    def settle(self) -> None:
        """Cancel the task if the helper has not started it, else wait until it ends."""
        if not self._future.cancel():
            wait([self._future])


class _Helper(ThreadPoolExecutor):
    """A one-thread pool that counts the tasks handed to it."""

    def __init__(self) -> None:
        super().__init__(max_workers=1, thread_name_prefix="portdim-helper")
        self.handoffs = 0

    def hand(self, fn: Callable[..., Any], *args: Any) -> Handoff:
        """Start ``fn(*args)`` on the helper thread."""
        self.handoffs += 1
        call = functools.partial(fn, *args)
        return Handoff(self.submit(call), call)


_lock = threading.Lock()
_pool: _Helper | None = None


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: per thread: whether its data-path calls keep every stage on the caller
_kept = threading.local()


@contextlib.contextmanager
def on_caller() -> Iterator[None]:
    """Within the block, data-path calls made on this thread hand nothing
    to the helper: for a consumer that spends its time in Python, which the
    helper could only wait for at the GIL."""
    saved = getattr(_kept, "on_caller", False)
    _kept.on_caller = True
    try:
        yield
    finally:
        _kept.on_caller = saved


def helper() -> _Helper | None:
    """The shared helper thread, or None where it would not pay."""
    global _pool
    if not (_ENABLED and _BLAS_SINGLE_THREADED and not getattr(_kept, "on_caller", False) and _cpus() >= 2):
        return None
    with _lock:
        if _pool is None:
            _pool = _Helper()
        return _pool


def handoffs() -> int:
    """Tasks handed to the helper so far in this process."""
    return 0 if _pool is None else _pool.handoffs


def _forget_after_fork() -> None:
    """A forked child has no helper thread: it makes its own on first use."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)
