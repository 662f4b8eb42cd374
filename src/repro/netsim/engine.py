"""The discrete-event engine.

A minimal, fast event loop.  The heap holds ``(time, seq, event)``
tuples, so ordering is decided by C-level tuple comparison: earlier
``time`` first, and for equal times the lower ``seq`` -- the order in
which the events were scheduled.  ``(time, seq)`` is the whole ordering
contract; it keeps runs deterministic (a requirement for reproducible
experiments).  ``seq`` is unique per simulator, so the comparison never
reaches the :class:`Event` itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: :meth:`cancel` marks the event and the loop
    skips it when popped, which is O(1) instead of O(n) heap surgery.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} #{self.seq}{state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.events_processed = 0
        self._live = 0  # pending non-cancelled events (O(1) `pending`)
        self._running = False  # an outermost `run` is on the stack
        self._stopping = False  # stop() was called during that run

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._counter)
        event = Event(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        seq = next(self._counter)
        event = Event(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run one event.  Returns False when the queue is empty."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def stop(self) -> None:
        """End the current :meth:`run` once the event now firing returns.

        Meant to be called from a callback.  The stop applies to the
        outermost active ``run``: a ``run`` nested inside a callback (a
        control-plane wait, say) still completes its own ``until`` /
        ``max_events`` contract, and the outer run returns after the
        event that contains it.  A stopped run leaves the clock at that
        event's time -- it does not advance to ``until``.  Outside a run
        this is a no-op.
        """
        self._stopping = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes,
        ``max_events`` have fired, or a callback calls :meth:`stop`.

        The limits compose: whichever is hit first stops the run.
        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end -- even if the queue drained earlier, and
        also when ``max_events`` stopped the run with no remaining work
        at or before ``until`` -- so periodic processes can be re-armed
        from a known time.  If the event cap left unfired events at or
        before ``until``, the clock stays at the last fired event (it
        never jumps over pending work).
        """
        heap = self._heap
        limit = float("inf") if until is None else until
        # -1 never equals the fired count, so it means "no cap".
        cap = -1 if max_events is None else max(0, max_events)
        outermost = not self._running
        if outermost:
            self._running = True
            self._stopping = False
        fired = 0
        stopped = False
        try:
            while heap:
                entry = _heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                time = entry[0]
                if time > limit or fired == cap:
                    _heappush(heap, entry)
                    break
                self.now = time
                event.fired = True
                self._live -= 1
                event.callback(*event.args)
                self.events_processed += 1
                fired += 1
                if self._stopping and outermost:
                    stopped = True
                    break
        finally:
            if outermost:
                self._running = False
                self._stopping = False
        if until is not None and not stopped and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until

    @property
    def pending(self) -> int:
        """Number of pending (non-cancelled) events."""
        return self._live
