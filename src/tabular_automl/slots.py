"""Training slots of a forked trial run, and the helpers that borrow them.

At `--parallelism P` > 1, `tuner.engine` makes one `Slots(ctx, P)` per run
and takes a slot (a `Lease`) before it forks each trial, waiting for one if
need be. The trial gives its slot back when its runner returns, while its
result may still wait to be applied. A trial that trains may borrow slots
that are idle at that moment, never waiting for one, and hand part of its
work to helper processes forked from it (`share`). So at most P processes
train at once. At P = 1 no slots exist and `share` runs every task in the
calling process.

A lease counts every slot its trial holds, its own and its helpers', in a
word of memory shared with the engine. The engine kills a trial together
with its helpers, which share its process group, and then gives back what
that word says the trial still held.
"""
from __future__ import annotations

import mmap
from typing import Callable, Optional

from .errors import WorkerDied

current: Optional["Lease"] = None  # the lease of the trial this process runs, if forked


def _shared_int() -> memoryview:
    """One C int in anonymous shared memory: forked processes see each other's writes."""
    return memoryview(mmap.mmap(-1, 4)).cast("i")


class Slots:
    """P training slots, shared through fork with every trial and helper."""

    def __init__(self, ctx, count: int):
        self.ctx = ctx  # the multiprocessing fork context helpers start from
        self.free = ctx.Semaphore(count)

    def lease(self, timeout: float) -> Optional["Lease"]:
        """A slot for the next trial, waiting at most `timeout` s for one."""
        return Lease(self) if self.free.acquire(timeout=timeout) else None


class Lease:
    """The slots one trial holds. Only the trial process changes the count."""

    def __init__(self, slots: Slots):
        self.slots = slots
        self.held = _shared_int()
        self.held[0] = 1

    def borrow(self) -> bool:
        """Take an idle slot for a helper, without waiting."""
        if not self.slots.free.acquire(False):
            return False
        self.held[0] += 1
        return True

    def give_back(self) -> None:
        self.held[0] -= 1
        self.slots.free.release()

    def close(self) -> None:
        """Engine side, once the trial has sent its result or been killed:
        free every slot it and its helpers still held."""
        for _ in range(self.held[0]):
            self.slots.free.release()
        self.held[0] = 0


def _helper(conn, claim: Callable[[], Optional[int]], work: Callable[[int], object]) -> None:
    global current
    current = None  # a helper borrows no slots
    done = {}
    while (i := claim()) is not None:
        done[i] = work(i)
    conn.send(done)
    conn.close()


def share(n: int, work: Callable[[int], object]) -> list:
    """`[work(i) for i in range(n)]`, with some tasks run by helper processes
    while this is a forked trial and slots are idle.

    This process and its helpers claim task indices in turn from a shared
    counter; before each task it claims, this process borrows idle slots for
    more helpers, up to one per unclaimed task. A helper sends its results
    back pickled, which keeps floats exact, so the list equals the serial one
    whenever `work(i)` depends on i alone. A helper that exits without its
    results fails the call with `WorkerDied`.
    """
    lease = current
    if lease is None or n < 2:
        return [work(i) for i in range(n)]
    ctx = lease.slots.ctx
    lock, next_task = ctx.Lock(), _shared_int()
    next_task[0] = 0

    def claim() -> Optional[int]:
        with lock:
            i = next_task[0]
            if i < n:
                next_task[0] = i + 1
                return i
        return None

    results: dict = {}
    helpers = []  # (process, receiving end)
    try:
        while (i := claim()) is not None:
            while len(helpers) < n - 1 - i and lease.borrow():
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_helper, args=(send, claim, work))
                proc.start()  # if this fails, the lease still counts the slot for the engine
                send.close()
                helpers.append((proc, recv))
            results[i] = work(i)
        for proc, recv in helpers:
            try:
                results.update(recv.recv())
            except EOFError:
                proc.join()
                raise WorkerDied(f"helper process exited with code {proc.exitcode}"
                                 " and no result") from None
    finally:
        for proc, recv in helpers:
            if proc.is_alive():
                proc.kill()
            proc.join()
            recv.close()
            lease.give_back()
    return [results[i] for i in range(n)]
