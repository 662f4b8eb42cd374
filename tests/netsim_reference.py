"""A deliberately simple reference for the discrete-event core.

Test-only.  This is the engine and channel as they were before the
fast path: events are ordered by a Python-level ``Event.__lt__``, the
run loop is ``peek_time()`` + ``step()`` per event, the channel
serializes through separate ``_start_next`` / ``_deliver`` calls, and
the coordinator's wave loop steps and rescans every instance after
each event.  The differential tests in ``test_netsim_differential.py``
drive it and the real :mod:`repro.netsim` with the same programs and
require identical observable behaviour.

``stop()`` did not exist before the fast path; the reference adds it in
the most direct way (a flag the peek+step loop checks after each event
of the outermost run or step) so programs that call it can be compared
too.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.netsim.link import ChannelStats


class RefEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(self, time, seq, callback, args, sim=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __lt__(self, other: "RefEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class RefSimulator:
    """The pre-fast-path engine, plus a minimal ``stop()``."""

    event_class = RefEvent

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: List[RefEvent] = []
        self._counter = itertools.count()
        self.events_processed = 0
        self._live = 0
        self._depth = 0
        self._stopping = False

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        event = self.event_class(time, next(self._counter), callback, args, self)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        # A step is a one-event run: it counts as a level for stop().
        self._depth += 1
        try:
            return self._step()
        finally:
            self._depth -= 1

    def _step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.fired = True
            self._live -= 1
            event.callback(*event.args)
            self.events_processed += 1
            return True
        return False

    def stop(self) -> None:
        self._stopping = True

    def run(self, until=None, max_events=None) -> None:
        outermost = self._depth == 0
        if outermost:
            self._stopping = False
        self._depth += 1
        stopped = False
        try:
            fired = 0
            while self._heap:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                self._step()
                fired += 1
                if outermost and self._stopping:
                    stopped = True
                    break
        finally:
            self._depth -= 1
            if outermost:
                self._stopping = False
        if until is not None and not stopped and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until

    @property
    def pending(self) -> int:
        return self._live


class RefChannel:
    """The pre-fast-path channel: one method per dataplane step."""

    def __init__(self, sim, rate_bps, queue_limit_bytes=512 * 1024,
                 propagation_delay=0.0, name="", mtu=9216):
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.queue_limit_bytes = int(queue_limit_bytes)
        self.propagation_delay = float(propagation_delay)
        self.name = name
        self.mtu = int(mtu)
        self.oversize_drops = 0
        self.stats = ChannelStats()
        self._sinks: List[Callable] = []
        self._taps: List[Callable] = []
        self._queue: Deque = deque()
        self._queued_bytes = 0
        self._busy = False

    def connect(self, sink) -> None:
        self._sinks.append(sink)

    def add_tap(self, tap) -> None:
        self._taps.append(tap)

    def offer(self, frame) -> bool:
        stats = self.stats
        stats.offered_frames += 1
        stats.offered_bytes += frame.wire_len
        if frame.wire_len > self.mtu:
            self.oversize_drops += 1
            stats.dropped_frames += 1
            stats.dropped_bytes += frame.wire_len
            return False
        if self._taps:
            for tap in tuple(self._taps):
                tap(frame)
        if self._queued_bytes + frame.wire_len > self.queue_limit_bytes:
            stats.dropped_frames += 1
            stats.dropped_bytes += frame.wire_len
            return False
        self._queue.append(frame)
        self._queued_bytes += frame.wire_len
        if not self._busy:
            self._start_next()
        return True

    @property
    def queue_depth_bytes(self) -> int:
        return self._queued_bytes

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        frame = self._queue.popleft()
        self._queued_bytes -= frame.wire_len
        serialization = frame.wire_len * 8.0 / self.rate_bps
        self.sim.schedule(serialization, self._finish_transmit, frame)

    def _finish_transmit(self, frame) -> None:
        self.stats.tx_frames += 1
        self.stats.tx_bytes += frame.wire_len
        if self.propagation_delay > 0:
            self.sim.schedule(self.propagation_delay, self._deliver, frame)
        else:
            self._deliver(frame)
        self._start_next()

    def _deliver(self, frame) -> None:
        self.stats.delivered_frames += 1
        self.stats.delivered_bytes += frame.wire_len
        for sink in self._sinks:
            sink(frame)

    @property
    def in_flight_frames(self) -> int:
        s = self.stats
        return s.offered_frames - s.dropped_frames - s.delivered_frames


def reference_run_wave(sim, instances, deadline) -> None:
    """The coordinator's wave loop before the fast path."""
    while sim.now < deadline and not all(inst.finished for inst in instances):
        if not sim.step():
            break
    for instance in instances:
        if not instance.finished:
            instance.abort("coordinator deadline reached")
