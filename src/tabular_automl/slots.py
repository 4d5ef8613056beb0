"""Training slots of a forked trial run, the helpers that borrow them, and
the one way this package forks a child, hears from it and reaps it.

At `--parallelism P` > 1, `tuner.engine` makes one `Slots(P)` per run and
takes a slot (a `Lease`) before it forks each trial, waiting for one if need
be. The trial gives its slot back when its runner returns, while its result
may still wait to be applied. A trial that trains may borrow slots that are
idle at that moment, never waiting for one, and hand part of its work to
helper processes forked from it (`share`). So at most P processes train at
once. At P = 1 no slots exist and `share` runs every task in the calling
process.

The slots are GNU make's jobserver: P bytes in a non-blocking pipe, so
taking a slot reads one byte and giving it back writes one. A lease counts
every slot its trial holds, its own and its helpers', in a word of memory
shared with the engine. The engine kills a trial together with its
helpers, which share its process group, and then gives back what that word
says the trial still held.

A child made by `fork` sends one pickled result down a pipe and exits. Only
the process that forked a child reaps it (`end`): the engine its trials, a
trial its helpers. So a trial's pid names its process group until the
engine has reaped it.
"""
from __future__ import annotations

import mmap
import os
import pickle
import signal
import sys
import traceback
from contextlib import suppress
from typing import Callable, Optional

from .errors import WorkerDied

current: Optional["Lease"] = None  # the lease of the trial this process runs, if forked
_sending: Optional[int] = None  # the write end of this process's result pipe, if forked


def _shared_int() -> memoryview:
    """One C int in anonymous shared memory: forked processes see each other's writes."""
    return memoryview(mmap.mmap(-1, 4)).cast("i")


def _flush() -> None:
    """Write out buffered output, so that a fork does not copy it and an
    `os._exit` does not lose it."""
    sys.stdout.flush()
    sys.stderr.flush()


def fork(fn: Callable[[], object]) -> tuple[int, int]:
    """Run `fn` in a forked child that sends `fn()` back pickled and exits.

    Returns the child's pid and the read end of its result pipe, which
    `receive` reads. The child closes the result pipe it inherited, if its
    parent is itself a forked child, so that the parent's pipe reads EOF as
    soon as the parent exits. A child whose `fn` raises prints the traceback
    and exits with code 1, sending nothing.
    """
    global _sending
    _flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        os.close(read_fd)
        if _sending is not None:
            os.close(_sending)
        _sending = write_fd
        data = memoryview(pickle.dumps(fn()))
        _flush()  # before the parent can read the result and end this process
        while data:
            data = data[os.write(write_fd, data):]
        os._exit(0)
    except Exception:
        traceback.print_exc()
    finally:
        try:
            _flush()
        finally:
            os._exit(1)  # never back into the parent's stack


def receive(fd: int):
    """What the child sent down its result pipe `fd`, which is closed; None
    if the child exited before sending all of it."""
    try:
        with open(fd, "rb") as pipe:
            return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None


def end(pid: int) -> int:
    """Kill child `pid`, with the process group it leads if any, and reap
    it. Returns its exit code (negative: the signal that ended it)."""
    for kill in (os.killpg, os.kill):
        with suppress(ProcessLookupError):  # it leads no group yet, or has exited
            kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class Slots:
    """P training slots, shared through fork with every trial and helper."""

    def __init__(self, count: int):
        self.fd, self._give_fd = os.pipe2(os.O_NONBLOCK)  # read a byte to take a slot
        self.give(count)

    def take(self) -> bool:
        """Take a free slot, without waiting."""
        with suppress(BlockingIOError):
            return len(os.read(self.fd, 1)) == 1
        return False

    def give(self, count: int = 1) -> None:
        os.write(self._give_fd, b"+" * count)

    def lease(self) -> Optional["Lease"]:
        """A slot for the next trial, if one is free."""
        return Lease(self) if self.take() else None

    def close(self) -> None:
        os.close(self.fd)
        os.close(self._give_fd)


class Lease:
    """The slots one trial holds. Only the trial process changes the count."""

    def __init__(self, slots: Slots):
        self.slots = slots
        self.held = _shared_int()
        self.held[0] = 1

    def borrow(self) -> bool:
        """Take an idle slot for a helper, without waiting."""
        # Counted before it is taken (and given back before it is uncounted):
        # a trial killed in between leaves the run a spare slot, never one short.
        self.held[0] += 1
        if self.slots.take():
            return True
        self.held[0] -= 1
        return False

    def give_back(self) -> None:
        self.slots.give()
        self.held[0] -= 1

    def close(self) -> None:
        """Engine side, once the trial has sent its result or been killed:
        free every slot it and its helpers still held."""
        self.slots.give(self.held[0])
        self.held[0] = 0


def share(n: int, work: Callable[[int], object]) -> list:
    """`[work(i) for i in range(n)]`, with some tasks run by helper processes
    while this is a forked trial and slots are idle.

    This process and its helpers claim task indices in turn from a shared
    counter, under a lock that is one byte in a pipe; before each task it
    claims, this process borrows idle slots for more helpers, up to one per
    unclaimed task. A helper sends its results back pickled, which keeps
    floats exact, so the list equals the serial one whenever `work(i)`
    depends on i alone. A helper that exits without its results fails the
    call with `WorkerDied`.
    """
    lease = current
    if lease is None or n < 2:
        return [work(i) for i in range(n)]
    next_task = _shared_int()  # zero-filled
    lock, unlock = os.pipe()
    os.write(unlock, b"+")

    def claim() -> Optional[int]:
        os.read(lock, 1)
        i = next_task[0]
        next_task[0] = i + 1
        os.write(unlock, b"+")
        return i if i < n else None

    def helper() -> dict:
        global current
        current = None  # a helper borrows no slots
        return {i: work(i) for i in iter(claim, None)}

    results: dict = {}
    helpers = []  # (pid, result pipe), not yet received
    try:
        for i in iter(claim, None):
            while len(helpers) < n - 1 - i and lease.borrow():
                # If this fails, the lease still counts the slot for the engine.
                helpers.append(fork(helper))
            results[i] = work(i)
        while helpers:
            pid, fd = helpers.pop()
            done = receive(fd)
            code = end(pid)
            lease.give_back()
            if done is None:
                raise WorkerDied(f"helper process exited with code {code} and no result")
            results.update(done)
    finally:
        for pid, fd in helpers:
            os.close(fd)
            end(pid)
            lease.give_back()
        os.close(lock)
        os.close(unlock)
    return [results[i] for i in range(n)]
