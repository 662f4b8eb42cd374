"""Benchmark-side spans around calls into the program's public functions.

The traced run installs a wrapper around each hook in :data:`HOOKS`.
A wrapper records one span (metric name, start, end, parent, run id)
per call, and some also read exact cost counts from the public objects
the call returns or touches.  Spans stay in memory until the run ends.

A hook whose target no longer exists (a refactor moved or merged it) is
recorded in :attr:`Instrumentation.absent` and skipped: that layer then
reads as absent in the trace, and the end-to-end run is unaffected.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    span_id: int = 0
    run_id: str = ""

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


class Tracer:
    """In-memory span recorder on the wall clock.

    ``time.time`` is the clock because the campaign runner's own
    ``trace.jsonl`` spans use it too, so both sets nest in one tree.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, time.time(), parent=parent,
                    span_id=len(self.spans), run_id=self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.time()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def add_closed(self, name: str, start: float, end: float) -> None:
        """Adopt a span recorded elsewhere (e.g. the runner's trace)."""
        self.spans.append(Span(name, start, end, span_id=len(self.spans),
                               run_id=self.run_id))


def self_times(spans: List[Span], root: Span) -> Dict[str, float]:
    """Self time per span name inside ``root``.

    Parents are found by interval containment rather than recorded ids,
    so spans adopted from another recorder nest correctly.  A span's
    self time is its duration minus the time its direct children cover.
    """
    eps = 1e-6
    inside = [s for s in spans if s is not root
              and s.start >= root.start - eps and s.end <= root.end + eps]
    inside.sort(key=lambda s: (s.start, -s.duration))
    child_time: Dict[int, float] = {}
    stack: List[Span] = [root]
    for span in inside:
        while len(stack) > 1 and span.start >= stack[-1].end - eps:
            stack.pop()
        parent = stack[-1]
        child_time[id(parent)] = child_time.get(id(parent), 0.0) + span.duration
        stack.append(span)
    totals: Dict[str, float] = {}
    for span in [root] + inside:
        own = max(0.0, span.duration - child_time.get(id(span), 0.0))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


# -- cost counts read at hook boundaries -----------------------------------


@dataclass
class Counts:
    """Exact cost counts gathered by the hooks during one unit."""

    values: Dict[str, int] = field(default_factory=dict)
    # Mirror destinations (switch, port) created in the current world.
    mirror_dests: List[Tuple[Any, str]] = field(default_factory=list)
    # Pending simulator events after the world's latest traffic window.
    pending: int = 0

    def add(self, name: str, amount: int) -> None:
        self.values[name] = self.values.get(name, 0) + int(amount)


def add_switch_stats(counts: Counts, switches, sim,
                     mirror_dests: List[Tuple[Any, str]]) -> None:
    """Sum every switch-port channel's counters into ``counts``."""
    counts.add("netsim.events", sim.events_processed)
    for switch in switches:
        for port in switch.ports.values():
            for channel in (port.link.rx, port.link.tx):
                counts.add("netsim.offered_frames", channel.stats.offered_frames)
                counts.add("netsim.delivered_frames",
                           channel.stats.delivered_frames)
                counts.add("netsim.dropped_frames", channel.stats.dropped_frames)
    for switch, port_id in mirror_dests:
        counts.add("switch.mirror_clones",
                   switch.ports[port_id].link.tx.stats.offered_frames)


def _after_generate(counts: Counts, args, result) -> None:
    orchestrator = args[0]
    counts.add("traffic.flows", len(result))
    counts.pending = orchestrator.federation.sim.pending


def _after_run_profile(counts: Counts, args, result) -> None:
    federation = args[0].api.federation
    switches = [site.switch for site in federation.sites.values()]
    add_switch_stats(counts, switches, federation.sim, counts.mirror_dests)
    counts.add("traffic.pending_events", counts.pending)
    counts.mirror_dests.clear()
    counts.pending = 0


def _after_create_mirror(counts: Counts, args, result) -> None:
    counts.mirror_dests.append((args[0], result.dest_port_id))


def _after_gather(counts: Counts, args, result) -> None:
    # Bytes put into the archives: the compressed size is not exact,
    # because the tar headers carry the files' modification times.
    counts.add("gather.archive_bytes", sum(site.raw_bytes for site in result))


def _after_digest(counts: Counts, args, result) -> None:
    stats = args[0].stats
    counts.add("analysis.cache_hits", stats.cache_hits)
    counts.add("analysis.cache_misses", stats.cache_misses)
    counts.add("analysis.digested_frames", stats.total_frames)


@dataclass(frozen=True)
class Hook:
    """One public function to wrap: ``module:Owner.attr`` or ``module:func``."""

    target: str
    span: Optional[str] = None
    after: Optional[Callable[[Counts, tuple, Any], None]] = None


HOOKS: Tuple[Hook, ...] = (
    Hook("repro:quickstart_federation", "testbed.build"),
    Hook("repro.testbed.federation:FederationBuilder.build", "testbed.build"),
    Hook("repro.traffic.workloads:TrafficOrchestrator.setup",
         "traffic.generate"),
    Hook("repro.traffic.workloads:TrafficOrchestrator.generate_window",
         "traffic.generate", _after_generate),
    Hook("repro.core.coordinator:Coordinator.run_profile", "netsim.simulate",
         _after_run_profile),
    Hook("repro.netsim.engine:Simulator.run", "netsim.simulate"),
    Hook("repro.testbed.switch:Switch.create_mirror", None,
         _after_create_mirror),
    Hook("repro.core.gather:gather_bundle", "gather.gather", _after_gather),
    Hook("repro.analysis.pipeline:AnalysisPipeline.digest", "analysis.digest",
         _after_digest),
    Hook("repro.analysis.pipeline:AnalysisPipeline.build_index",
         "analysis.analyze"),
    Hook("repro.analysis.pipeline:AnalysisPipeline.analyze",
         "analysis.analyze"),
    Hook("repro.analysis.pipeline:ProfileReport.write_csvs",
         "analysis.analyze"),
    Hook("repro.obs.journal:RunJournal.write", "obs.journal_write"),
    Hook("repro.obs.audit:audit_journal", "obs.audit"),
)

#: Spans of the campaign runner's own ``trace.jsonl``, by layer metric.
RUNNER_SPANS: Dict[str, str] = {
    "shard.dispatch": "campaign.shard_wait",
    "shard.land": "campaign.land",
    "journal.merge": "campaign.merge",
    "occasion.commit": "campaign.commit",
    "campaign.finalize": "campaign.finalize",
}


def adopt_runner_trace(tracer: Tracer, trace_path: Path) -> None:
    """Add the runner's wall-clock spans from its ``trace.jsonl``."""
    from repro.obs.journal import RunJournal

    opened: Dict[Any, Tuple[str, float]] = {}
    for event in RunJournal.read(trace_path).events:
        data = event.data
        if event.kind == "span-open":
            opened[data["span"]] = (data["name"], event.t)
        elif event.kind == "span-close" and data["span"] in opened:
            name, start = opened.pop(data["span"])
            metric = RUNNER_SPANS.get(name)
            if metric is not None:
                tracer.add_closed(metric, start, event.t)


class Instrumentation:
    """Installs and removes the :data:`HOOKS` wrappers."""

    def __init__(self, tracer: Tracer, counts: Counts,
                 hooks: Tuple[Hook, ...] = HOOKS) -> None:
        self.tracer = tracer
        self.counts = counts
        self.hooks = hooks
        self.absent: List[str] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for hook in self.hooks:
            resolved = _resolve(hook.target)
            if resolved is None:
                self.absent.append(hook.target)
                continue
            owner, attr = resolved
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, hook))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, func: Callable, hook: Hook) -> Callable:
        tracer, counts = self.tracer, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(hook.span) if hook.span else None
            try:
                result = func(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            if hook.after is not None:
                hook.after(counts, args, result)
            return result

        return wrapper


def _resolve(target: str) -> Optional[Tuple[Any, str]]:
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr
