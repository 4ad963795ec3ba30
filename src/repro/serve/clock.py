"""Batching-window clocks: the service's ONLY wall-clock read point.

The determinism lint (the tier-1 test
``tests/statics/test_determinism.py::test_live_tree_is_deterministic``)
covers the entire ``repro.serve`` package but exempts exactly this
module: the admission queue's micro-batching window genuinely needs a
monotonic clock, and confining every read to one injectable seam means

* the rest of the service is statically provable wall-clock-free, and
* tests drive the window with :class:`ManualClock` virtual time — no
  real sleeps, no flaky timing assumptions.

Results never depend on the clock either way: batch composition
affects only *when* an answer is computed, never its bytes (the
digest-parity tests pin that).
"""

from __future__ import annotations

import asyncio
import time


class Clock:
    """Injectable time source for the admission queue."""

    def now(self) -> float:
        raise NotImplementedError

    async def sleep(self, delay: float) -> None:
        raise NotImplementedError

    async def wait_event(self, event: asyncio.Event, timeout: float) -> bool:
        """Wait until ``event`` is set or ``timeout`` elapses.

        Returns ``True`` when the event fired, ``False`` on timeout.
        """
        raise NotImplementedError


class MonotonicClock(Clock):
    """The production clock: ``time.monotonic`` + real waits."""

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    async def wait_event(self, event: asyncio.Event, timeout: float) -> bool:
        if timeout <= 0:
            return event.is_set()
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True


class ManualClock(Clock):
    """Virtual time for deterministic tests.

    Time only moves when :meth:`advance` is called; pending waits
    whose deadlines are reached fire then.  ``wait_event`` still
    honours the event immediately (no advance needed), so batch-full
    flushes work under a frozen clock.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._timers: list[tuple[float, asyncio.Event]] = []

    def now(self) -> float:
        return self._now

    async def advance(self, delta: float) -> None:
        """Move virtual time forward and let due waiters run."""
        self._now += delta
        for deadline, timer in list(self._timers):
            if deadline <= self._now + 1e-12:
                timer.set()
        # Yield a few times so woken waiters (and whatever they wake)
        # get scheduled before the test continues.
        for _ in range(10):
            await asyncio.sleep(0)

    async def sleep(self, delay: float) -> None:
        timer = asyncio.Event()
        entry = (self._now + delay, timer)
        self._timers.append(entry)
        try:
            await timer.wait()
        finally:
            if entry in self._timers:
                self._timers.remove(entry)

    async def wait_event(self, event: asyncio.Event, timeout: float) -> bool:
        if event.is_set() or timeout <= 0:
            return event.is_set()
        timer = asyncio.Event()
        entry = (self._now + timeout, timer)
        self._timers.append(entry)
        event_task = asyncio.ensure_future(event.wait())
        timer_task = asyncio.ensure_future(timer.wait())
        try:
            done, pending = await asyncio.wait(
                (event_task, timer_task),
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            # If both fired in the same tick, the event wins: the
            # batcher should collect the new arrival before flushing.
            return event_task in done
        finally:
            if entry in self._timers:
                self._timers.remove(entry)
