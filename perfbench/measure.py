"""Run one unit of a workload in a fresh process; write its result as JSON.

``run.py`` starts this script once per unit, so every unit pays the
cold start a user's ``repro profile`` pays, and no state one unit leaves
in the process can speed up the next.  It is not meant to be called by
hand.  The first thing it does is import the program; the time until
that is done is the set-up time the parent reports.

Around the unit it times a fixed calibration loop that runs none of the
program's code; ``run.py`` scales the unit's times by it (see there).

``--probe`` only imports and calibrates.  ``--reference`` runs the campaign's
``shard_workers=1`` reference.  ``--trace 1`` installs the layer hooks
and adds per-layer metrics and the recorded spans to the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Per-layer times present on every workload, reported in seconds.
LAYER_SECONDS = ("testbed.build", "netsim.simulate", "analysis.digest",
                 "analysis.analyze", "obs.journal_write", "obs.audit")
#: Per-layer times of layers only some workloads use, reported as a
#: share of the traced wall time (an absent layer reads 0).
LAYER_SHARES = ("traffic.generate", "gather.gather", "campaign.shard_wait",
                "campaign.land", "campaign.merge", "campaign.commit",
                "campaign.finalize", "campaign.fsync")
#: Exact cost counts (an absent layer reads 0).
COUNTS = ("traffic.flows", "traffic.pending_events", "netsim.events",
          "netsim.offered_frames", "netsim.delivered_frames",
          "netsim.dropped_frames", "switch.mirror_clones",
          "capture.frames_seen", "capture.captured", "capture.pcap_bytes",
          "capture.drops.mirror-egress", "capture.drops.nic-ring",
          "capture.drops.writer-backpressure", "capture.drops.in-flight",
          "telemetry.sketch_reports", "telemetry.report_bytes",
          "telemetry.int_stamps", "gather.archive_bytes",
          "analysis.cache_hits", "analysis.cache_misses",
          "obs.journal_events", "obs.journal_bytes", "campaign.fsyncs",
          "campaign.durable_bytes", "campaign.wal_bytes")
#: Runs of the calibration loop before the unit, and again after it.
CALIBRATION_REPEATS = 10


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--reference-sha", default="")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    import workloads  # the program's imports: what set-up time covers
    ready = time.monotonic()
    calibration = calibrate()
    payload: Dict = {}
    if not args.probe:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.work, tiny=args.tiny)
        if args.reference:
            payload = workload.prepare()
        else:
            if args.reference_sha:
                workload.reference_sha = args.reference_sha
            payload = run_unit(workload, args.index, bool(args.trace))
        calibration += calibrate()
    payload["ready"] = ready
    payload["calibration_s"] = statistics.median(calibration)
    payload["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    args.result.write_text(json.dumps(payload, sort_keys=True))
    return 0


def calibration_loop(n: int = 20000) -> int:
    """Fixed heap, dict and integer work in the interpreter, as the
    simulator does it, but none of the program's code: its time tracks
    how fast the machine runs this process, not the program."""
    heap: List[tuple] = []
    seen: Dict[int, int] = {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        seen[i & 1023] = seen.get(i & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(seen)


def calibrate() -> List[float]:
    """Times of :data:`CALIBRATION_REPEATS` runs of the calibration loop."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - started)
    return times


def run_unit(workload, index: int, trace: bool, tamper=None) -> Dict:
    """One unit as a JSON-ready dict; traced units add ``layers``,
    ``spans`` and ``absent_hooks``."""
    if not trace:
        return dataclasses.asdict(workload.unit(index, tamper=tamper))
    from spans import Counts, Instrumentation, Tracer, self_times

    tracer = Tracer(run_id=f"{workload.name}/unit{index}")
    counts = Counts()
    hooks = Instrumentation(tracer, counts)
    hooks.install()
    try:
        unit = workload.unit(index, tracer=tracer, tamper=tamper)
    finally:
        hooks.uninstall()
    for name, value in counts.values.items():
        unit.counts.setdefault(name, value)
    root = tracer.spans[0]
    totals = self_times(tracer.spans, root)
    totals.update(unit.times)
    result = dataclasses.asdict(unit)
    result["layers"] = layer_metrics(unit, totals, root.duration)
    result["spans"] = [vars(span) for span in tracer.spans]
    result["absent_hooks"] = hooks.absent
    return result


def layer_metrics(unit, totals: Dict[str, float], wall: float) -> Dict:
    row = {"trace.wall_s": wall}
    for name in LAYER_SECONDS:
        row[f"{name}_s"] = totals.get(name, 0.0)
    for name in LAYER_SHARES:
        row[f"{name}_share"] = totals.get(name, 0.0) / wall
    # campaign.fsync overlaps the runner's spans; it is not self time.
    covered = sum(value for name, value in totals.items()
                  if name not in ("workload.unit", "campaign.fsync"))
    row["trace.coverage"] = covered / wall
    for name in COUNTS:
        row[name] = unit.counts.get(name, 0)
    simulate = totals.get("netsim.simulate", 0.0)
    row["netsim.events_per_s"] = \
        unit.counts.get("netsim.events", 0) / simulate if simulate else 0.0
    digest = totals.get("analysis.digest", 0.0)
    row["analysis.digest_frames_per_s"] = \
        unit.counts.get("analysis.digested_frames", 0) / digest if digest else 0.0
    for name in ("snmp", "sketch", "inband"):
        matches = unit.verdicts.get(name, [])
        row[f"detector.{name}_accuracy"] = \
            sum(matches) / len(matches) if matches else 0.0
    return row


if __name__ == "__main__":
    sys.exit(main())
