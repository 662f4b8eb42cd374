"""Differential tests: the fast event core against a simple reference.

The reference (``tests/netsim_reference.py``) is the engine, channel
and wave loop as they were before the fast path.  Hypothesis generates
programs -- many equal timestamps, scheduling and cancelling from inside
callbacks, nested waits, composed ``run(until, max_events)`` calls,
``stop()`` -- and both implementations must agree on every observable:
the fired sequence, the clock, ``events_processed`` and ``pending``
after every call; for channels also delivery order and times, the drop
set and ``ChannelStats`` at arbitrary poll instants.

Each property is shown to be able to fail: the same check run against
a deliberately broken reference (ties fired newest-first, a ``>=`` tail
drop, a wave that never fires the event crossing its deadline) must
find a counterexample.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.core.coordinator import Coordinator
from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.netsim.link import Channel
from tests.netsim_reference import (
    RefChannel,
    RefEvent,
    RefSimulator,
    reference_run_wave,
)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# The planted-defect searches only need one counterexample: generate
# deterministically and skip shrinking, whose length varies by seed.
FIND_SETTINGS = settings(max_examples=2000, deadline=None, database=None,
                         derandomize=True, phases=[Phase.generate],
                         suppress_health_check=[HealthCheck.too_slow])


# -- deliberately broken references (the properties must catch them) -----


class LifoTieEvent(RefEvent):
    """Equal-time events fire newest-first: a broken ``seq`` tie-break."""

    __slots__ = ()

    def __lt__(self, other):
        return (self.time, -self.seq) < (other.time, -other.seq)


class LifoTieSimulator(RefSimulator):
    event_class = LifoTieEvent


class EagerDropChannel(RefChannel):
    """Tail-drops a frame that would exactly fill the queue."""

    def offer(self, frame):
        if self._queued_bytes + frame.wire_len == self.queue_limit_bytes:
            self.stats.offered_frames += 1
            self.stats.offered_bytes += frame.wire_len
            self.stats.dropped_frames += 1
            self.stats.dropped_bytes += frame.wire_len
            return False
        return super().offer(frame)


def wave_without_deadline_crossing(sim, instances, deadline):
    """Never fires the event that crosses the deadline."""
    while sim.now < deadline and not all(inst.finished for inst in instances):
        next_time = sim.peek_time()
        if next_time is None or next_time >= deadline:
            break
        sim.step()
    for instance in instances:
        if not instance.finished:
            instance.abort("coordinator deadline reached")


# -- engine programs -------------------------------------------------------

# Few distinct delays, so equal timestamps are the common case.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
CALLBACK_ACTIONS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("stop")),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 1.5])),
    st.tuples(st.just("step")),
)
TOP_OPS = st.one_of(
    st.tuples(st.just("run"),
              st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])),
              st.one_of(st.none(), st.integers(0, 6))),
    st.tuples(st.just("step")),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("stop")),
)
PROGRAMS = st.fixed_dictionaries({
    "initial": st.lists(DELAYS, min_size=1, max_size=12),
    "scripts": st.lists(st.lists(CALLBACK_ACTIONS, max_size=3),
                        min_size=1, max_size=6),
    "ops": st.lists(TOP_OPS, min_size=1, max_size=8),
})


class EngineDriver:
    """Runs one program on one engine and records what it observes."""

    MAX_EVENTS = 64  # bounds self-scheduling programs
    MAX_DEPTH = 2  # bounds nested waits and steps

    def __init__(self, sim, program):
        self.sim = sim
        self.scripts = program["scripts"]
        self.events = []
        self.trace = []
        self.depth = 0
        for delay in program["initial"]:
            self.schedule(delay)

    def schedule(self, delay):
        if len(self.events) < self.MAX_EVENTS:
            label = len(self.events)
            self.events.append(self.sim.schedule(delay, self.fire, label))

    def cancel(self, index):
        if self.events:
            self.events[index % len(self.events)].cancel()

    def fire(self, label):
        sim = self.sim
        self.trace.append(("fire", label, sim.now, sim.pending))
        for action in self.scripts[label % len(self.scripts)]:
            kind = action[0]
            if kind == "schedule":
                self.schedule(action[1])
            elif kind == "cancel":
                self.cancel(action[1])
            elif kind == "stop":
                sim.stop()
            elif self.depth < self.MAX_DEPTH:
                self.depth += 1
                if kind == "wait":
                    sim.run(until=sim.now + action[1])
                    self.trace.append(("waited", label, sim.now))
                else:
                    self.trace.append(("stepped", label, sim.step()))
                self.depth -= 1

    def execute(self, ops):
        sim = self.sim
        observed = []
        for op in ops:
            kind = op[0]
            if kind == "run":
                until = None if op[1] is None else sim.now + op[1]
                result = sim.run(until=until, max_events=op[2])
            elif kind == "step":
                result = sim.step()
            elif kind == "schedule":
                result = self.schedule(op[1])
            elif kind == "cancel":
                result = self.cancel(op[1])
            else:
                result = sim.stop()
            observed.append((op, result, tuple(self.trace), sim.now,
                             sim.events_processed, sim.pending))
        return observed


def engine_observations(engine_class, program):
    return EngineDriver(engine_class(), program).execute(program["ops"])


def engines_agree(program, reference=RefSimulator):
    return (engine_observations(Simulator, program)
            == engine_observations(reference, program))


class TestEngineDifferential:
    @SETTINGS
    @given(PROGRAMS)
    def test_fast_engine_matches_reference(self, program):
        fast = engine_observations(Simulator, program)
        slow = engine_observations(RefSimulator, program)
        assert fast == slow

    def test_property_catches_a_broken_tie_break(self):
        program = find(PROGRAMS, lambda p: not engines_agree(p, LifoTieSimulator),
                       settings=FIND_SETTINGS)
        assert not engines_agree(program, LifoTieSimulator)
        assert engines_agree(program)

    def test_stop_ends_outermost_run_after_its_event(self):
        for engine in (Simulator, RefSimulator):
            sim = engine()
            fired = []
            sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
            sim.schedule(1.0, fired.append, "b")
            sim.run(until=5.0)
            assert fired == ["a"]
            assert sim.now == 1.0  # a stopped run does not advance the clock
            assert sim.pending == 1
            sim.run()
            assert fired == ["a", "b"]

    def test_stop_inside_nested_wait_lets_the_wait_finish(self):
        for engine in (Simulator, RefSimulator):
            sim = engine()
            fired = []

            def outer():
                sim.run(until=sim.now + 2.0)  # a control-plane wait
                fired.append(("outer-done", sim.now))

            sim.schedule(1.0, outer)
            sim.schedule(1.5, lambda: (fired.append("stopper"), sim.stop()))
            sim.schedule(2.5, fired.append, "inside-wait")
            sim.schedule(4.0, fired.append, "after")
            sim.run()
            assert fired == ["stopper", "inside-wait", ("outer-done", 3.0)]
            assert sim.now == 3.0
            sim.run()
            assert fired[-1] == "after"

    def test_stop_outside_a_run_is_a_noop(self):
        sim = Simulator()
        fired = []
        sim.stop()
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]


# -- channel programs ------------------------------------------------------

TIMES = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
SIZES = st.sampled_from([64, 300, 1500, 1500, 9000, 9300])
CHANNEL_PROGRAMS = st.fixed_dictionaries({
    "rate": st.sampled_from([4e3, 8e3, 64e3, 1e6]),
    "downstream_speedup": st.sampled_from([1, 2]),
    "queue_limit": st.sampled_from([1500, 3000, 10000]),
    "propagation": st.sampled_from([0.0, 0.0, 0.1, 0.25]),
    "mirror_limit": st.sampled_from([1500, 3000]),
    # Interleaved offers and polls, scheduled in list order, so ties
    # between them go both ways.
    "schedule": st.lists(st.one_of(st.tuples(st.just("offer"), TIMES, SIZES),
                                   st.tuples(st.just("poll"), TIMES)),
                         min_size=1, max_size=30),
    "chunks": st.lists(st.one_of(st.none(), st.sampled_from([0.1, 0.5, 1.0, 4.0])),
                       min_size=1, max_size=4),
})


def channel_observations(program, engine_class, channel_class):
    """A source channel chained into a downstream channel, with a tap
    mirroring clones into a small mirror channel -- the switch's shape."""
    sim = engine_class()
    log = []
    source = channel_class(sim, program["rate"], program["queue_limit"],
                           program["propagation"], name="source")
    downstream = channel_class(sim, program["rate"] * program["downstream_speedup"],
                               program["queue_limit"], program["propagation"],
                               name="downstream")
    mirror = channel_class(sim, program["rate"], program["mirror_limit"],
                           0.0, name="mirror")
    channels = (source, downstream, mirror)

    def sink(name):
        return lambda frame: log.append(("deliver", name, frame.flow_id, sim.now))

    # The forwarding sink also reads the source's queue mid-event, as the
    # INT stamper reads queue depth at the egress.
    source.connect(lambda frame: log.append(
        ("forward", frame.flow_id, sim.now, source.queue_depth_bytes,
         downstream.offer(frame))))
    downstream.connect(sink("downstream"))
    mirror.connect(sink("mirror"))
    source.add_tap(lambda frame: log.append(
        ("mirror", frame.flow_id, sim.now, mirror.offer(frame.clone()))))

    def offer(tag, size):
        frame = Frame(wire_len=size, head=b"\x00" * 14, flow_id=tag)
        log.append(("offer", tag, sim.now, source.offer(frame)))

    def poll():
        log.append(("poll", sim.now, snapshot()))

    def snapshot():
        return tuple((dataclasses.astuple(ch.stats), ch.queue_depth_bytes,
                      ch.in_flight_frames, ch.oversize_drops) for ch in channels)

    for tag, entry in enumerate(program["schedule"]):
        if entry[0] == "offer":
            sim.schedule_at(entry[1], offer, tag, entry[2])
        else:
            sim.schedule_at(entry[1], poll)
    for chunk in program["chunks"]:
        sim.run(until=None if chunk is None else sim.now + chunk)
        log.append(("chunk", sim.now, sim.events_processed, sim.pending,
                    snapshot()))
    sim.run()
    log.append(("end", sim.now, sim.events_processed, snapshot()))
    return log


def channels_agree(program, engine_class=RefSimulator, channel_class=RefChannel):
    return (channel_observations(program, Simulator, Channel)
            == channel_observations(program, engine_class, channel_class))


class TestChannelDifferential:
    @SETTINGS
    @given(CHANNEL_PROGRAMS)
    def test_fast_channel_matches_reference(self, program):
        fast = channel_observations(program, Simulator, Channel)
        slow = channel_observations(program, RefSimulator, RefChannel)
        assert fast == slow

    def test_property_catches_a_broken_tie_break(self):
        program = find(CHANNEL_PROGRAMS,
                       lambda p: not channels_agree(p, LifoTieSimulator),
                       settings=FIND_SETTINGS)
        assert not channels_agree(program, LifoTieSimulator)
        assert channels_agree(program)

    def test_property_catches_a_broken_drop_rule(self):
        program = find(CHANNEL_PROGRAMS,
                       lambda p: not channels_agree(p, RefSimulator,
                                                    EagerDropChannel),
                       settings=FIND_SETTINGS)
        assert not channels_agree(program, RefSimulator, EagerDropChannel)


# -- the coordinator's wave loop -------------------------------------------


class FakeInstance:
    """The slice of PatchworkInstance the wave loop relies on: a
    ``finished`` flag set first, teardown (which may wait on the control
    plane), then ``on_done``; ``abort`` finishes at the current time."""

    def __init__(self, sim, name, teardown=0.0):
        self.sim = sim
        self.name = name
        self.teardown = teardown
        self.on_done = None
        self.finished_at = None
        self.aborted_at = None
        self._finished = False

    @property
    def finished(self):
        return self._finished

    def finish(self):
        if self._finished:
            return
        self._finished = True
        self.finished_at = self.sim.now
        if self.teardown:
            self.sim.run(until=self.sim.now + self.teardown)
        if self.on_done is not None:
            self.on_done(self)

    def abort(self, reason):
        self.aborted_at = self.sim.now
        self.finish()


def new_run_wave(sim, instances, deadline):
    Coordinator._run_wave(None, sim, instances, deadline)


WAVES = st.fixed_dictionaries({
    # Finish time per instance; None = stuck (never finishes by itself).
    "finishes": st.lists(st.one_of(st.none(), st.sampled_from(
        [0.0, 5.0, 10.0, 20.0, 40.0, 99.0, 100.0, 130.0])), min_size=1, max_size=3),
    "teardowns": st.lists(st.sampled_from([0.0, 0.0, 3.0, 30.0]),
                          min_size=3, max_size=3),
    # The periodic process (the SNMP poller's role) keeps the queue live.
    "tick": st.sampled_from([7.0, 10.0, 25.0]),
    # Extra one-shot events, some landing on finish times and the deadline.
    "extras": st.lists(st.sampled_from([5.0, 10.0, 20.0, 99.0, 100.0, 101.0]),
                       max_size=4),
    # Events that wait on the control plane (nested runs).
    "waits": st.lists(st.tuples(st.sampled_from([4.0, 10.0, 90.0]),
                                st.sampled_from([2.0, 15.0, 30.0])), max_size=2),
    "deadline": st.sampled_from([20.0, 100.0, 1000.0]),
    "start": st.sampled_from([0.0, 30.0]),
})


def wave_observations(spec, engine_class, wave):
    sim = engine_class()
    trace = []

    def tick():
        trace.append(("tick", sim.now))
        sim.schedule(spec["tick"], tick)

    def wait(seconds):
        sim.run(until=sim.now + seconds)
        trace.append(("waited", sim.now))

    sim.schedule(spec["tick"], tick)
    instances = []
    for i, at in enumerate(spec["finishes"]):
        instance = FakeInstance(sim, f"i{i}", spec["teardowns"][i])
        instances.append(instance)
        if at is not None:
            sim.schedule_at(at, instance.finish)
    for at in spec["extras"]:
        sim.schedule_at(at, trace.append, ("extra", at))
    for at, seconds in spec["waits"]:
        sim.schedule_at(at, wait, seconds)
    if spec["start"]:
        sim.run(until=spec["start"])
    wave(sim, instances, spec["deadline"])
    return (trace, sim.now, sim.events_processed, sim.pending,
            [(inst.finished_at, inst.aborted_at, inst.on_done)
             for inst in instances])


def waves_agree(spec, wave=reference_run_wave):
    return (wave_observations(spec, Simulator, new_run_wave)
            == wave_observations(spec, RefSimulator, wave))


class TestWaveDifferential:
    @SETTINGS
    @given(WAVES)
    def test_wave_matches_reference(self, spec):
        fast = wave_observations(spec, Simulator, new_run_wave)
        slow = wave_observations(spec, RefSimulator, reference_run_wave)
        assert fast == slow

    def test_property_catches_a_wave_that_skips_the_crossing_event(self):
        spec = find(WAVES, lambda s: not waves_agree(s, wave_without_deadline_crossing),
                    settings=FIND_SETTINGS)
        assert not waves_agree(spec, wave_without_deadline_crossing)

    @pytest.mark.parametrize("engine,wave", [(Simulator, new_run_wave),
                                             (RefSimulator, reference_run_wave)])
    def test_stops_right_after_the_last_finish(self, engine, wave):
        sim = engine()
        fired = []
        first, last = FakeInstance(sim, "a"), FakeInstance(sim, "b")
        sim.schedule_at(10.0, first.finish)
        sim.schedule_at(20.0, last.finish)
        sim.schedule_at(20.0, fired.append, "same-instant-later")
        wave(sim, [first, last], deadline=100.0)
        assert fired == []
        assert (sim.now, sim.events_processed, sim.pending) == (20.0, 2, 1)

    @pytest.mark.parametrize("engine,wave", [(Simulator, new_run_wave),
                                             (RefSimulator, reference_run_wave)])
    def test_stuck_instance_aborted_at_first_event_past_deadline(self, engine, wave):
        sim = engine()

        def tick():
            sim.schedule(7.0, tick)

        sim.schedule(7.0, tick)
        stuck = FakeInstance(sim, "stuck")
        wave(sim, [stuck], deadline=100.0)
        assert stuck.aborted_at == 105.0  # the tick that crossed 100
        assert sim.events_processed == 15

    @pytest.mark.parametrize("engine,wave", [(Simulator, new_run_wave),
                                             (RefSimulator, reference_run_wave)])
    def test_exactly_one_event_at_or_past_the_deadline_fires(self, engine, wave):
        sim = engine()
        fired = []
        for at in (99.0, 100.0, 100.0, 101.0):
            sim.schedule_at(at, fired.append, at)
        stuck = FakeInstance(sim, "stuck")
        wave(sim, [stuck], deadline=100.0)
        assert fired == [99.0, 100.0]
        assert stuck.aborted_at == 100.0

    @pytest.mark.parametrize("engine,wave", [(Simulator, new_run_wave),
                                             (RefSimulator, reference_run_wave)])
    def test_nested_wait_past_deadline_ends_the_wave(self, engine, wave):
        sim = engine()
        fired = []
        sim.schedule_at(90.0, lambda: sim.run(until=sim.now + 30.0))
        sim.schedule_at(125.0, fired.append, "after-wait")
        stuck = FakeInstance(sim, "stuck")
        wave(sim, [stuck], deadline=100.0)
        assert fired == []
        assert stuck.aborted_at == 120.0

    @pytest.mark.parametrize("engine,wave", [(Simulator, new_run_wave),
                                             (RefSimulator, reference_run_wave)])
    def test_last_finish_inside_a_wait_lets_the_wait_complete(self, engine, wave):
        sim = engine()
        fired = []
        done = FakeInstance(sim, "done")
        sim.schedule_at(10.0, lambda: sim.run(until=sim.now + 20.0))
        sim.schedule_at(15.0, done.finish)
        sim.schedule_at(25.0, fired.append, "inside-wait")
        sim.schedule_at(31.0, fired.append, "after-wait")
        wave(sim, [done], deadline=100.0)
        assert fired == ["inside-wait"]
        assert sim.now == 30.0

    def test_drained_queue_holds_stragglers_to_the_deadline(self):
        # The one deliberate difference from the reference: when the
        # queue drains with an instance unfinished, the wave advances the
        # clock to the deadline before aborting (the reference aborted at
        # the last event's time).  Coordinator runs always have the SNMP
        # poller's periodic event, so the queue never drains there.
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        stuck = FakeInstance(sim, "stuck")
        new_run_wave(sim, [stuck], deadline=100.0)
        assert stuck.aborted_at == 100.0
        assert sim.events_processed == 1

    def test_restores_instance_hooks(self):
        sim = Simulator()
        seen = []
        instance = FakeInstance(sim, "a")
        instance.on_done = seen.append
        sim.schedule_at(5.0, instance.finish)
        new_run_wave(sim, [instance], deadline=100.0)
        assert seen == [instance]
        assert instance.on_done == seen.append
