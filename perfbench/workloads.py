"""The benchmark's three workloads, each a fixed input run to completion.

A workload turns ``--seed`` into its inputs, then runs *units*: one
unit is one complete pass through the user-facing entry point, timed
from traffic generation to an audited journal.  Every unit returns a
:class:`UnitResult` carrying its wall time, the operations it attempted
and why any failed, the detector verdicts, and the exact cost counts
``run.py`` compares between units of the same seed.

``profile``
    ``repro profile`` driven through :func:`repro.cli.main`: the
    uncongested, simulation-bound occasion every user runs.
``campaign``
    A durable sharded campaign through :meth:`CampaignRunner.run`: many
    small shard worlds, so traffic generation and the durable
    orchestration path carry the load while the simulator does little.
``mirror-overload``
    A sweep of single-switch worlds built from the public dataplane
    classes, where every frame is mirrored, queued, stamped and
    captured, and a share of them is dropped at the mirror egress.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.cli
import repro.core.sharding  # loaded by the runner's first sharded occasion
import repro.obs.audit
from repro.analysis.pipeline import AnalysisPipeline
from repro.capture.session import CaptureSession
from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.congestion import CongestionDetector
from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.obs import Observability, scoped
from repro.obs.journal import RunJournal
from repro.obs.ledger import LedgerRecorder
from repro.telemetry.mflib import MFlib
from repro.telemetry.query import (EGRESS_LOAD_QUERY, InbandCongestionDetector,
                                   IntStamper, Query, QueryRuntime,
                                   SketchCongestionDetector, snmp_reading)
from repro.telemetry.snmp import walk_bytes
from repro.telemetry.timeseries import CounterStore
from repro.testbed.federation import DEFAULT_SITE_NAMES
from repro.testbed.nic import DedicatedNIC
from repro.testbed.switch import DOWNLINK, Switch
from repro.util.atomio import FileIO

from spans import Counts, Tracer, add_switch_stats, adopt_runner_trace

DETECTORS = ("snmp", "sketch", "inband")
FAILED_OUTCOMES = ("failed", "incomplete")

#: Called with the unit's output directory after the program wrote its
#: outputs and before the benchmark checks them.  Tests use it to break
#: an output and show that the checks catch it.
Tamper = Callable[[Path], None]


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Stopwatch:
    """Wall and CPU time from construction to :meth:`stop`."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = cpu_seconds()

    def stop(self) -> "UnitResult":
        return UnitResult(wall_s=time.perf_counter() - self.wall,
                          cpu_s=cpu_seconds() - self.cpu)


@dataclass
class UnitResult:
    """Everything ``run.py`` needs from one unit."""

    wall_s: float
    cpu_s: float = 0.0
    captured_frames: int = 0
    # Operation id -> failure reason, or None when it passed every gate.
    ops: Dict[str, Optional[str]] = field(default_factory=dict)
    # Detector -> one bool per sample: did the verdict match the truth?
    verdicts: Dict[str, List[bool]] = field(default_factory=dict)
    # Exact cost counts; must repeat for the same seed.
    counts: Dict[str, int] = field(default_factory=dict)
    journal_sha: str = ""
    # Problems that are not tied to one operation (e.g. parity).
    problems: List[str] = field(default_factory=list)
    # Layer times the unit measured itself, in seconds.
    times: Dict[str, float] = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_ledgers(audit, op_of_row: Callable[[object], str],
                  result: UnitResult) -> None:
    """Fail operations whose ledger row does not conserve frames, whose
    pcap was quarantined, or whose pcap digests to another frame count
    than the ledger says was captured; count the frames that passed."""
    if not audit.ok:
        result.problems.extend(audit.violations)
    for row in audit.ledgers:
        reason = None
        if row.conservation_error() != 0 or row.wiring_error() != 0:
            reason = f"{row.pcap}: ledger does not conserve frames"
        elif row.captured and row.digested is None:
            reason = f"{row.pcap}: pcap quarantined or never digested"
        elif row.digested is not None and row.digested != row.captured:
            reason = (f"{row.pcap}: digested {row.digested} frames, "
                      f"captured {row.captured}")
        op = op_of_row(row)
        if reason is not None:
            if result.ops.get(op) is None:
                result.ops[op] = reason
        else:
            result.captured_frames += row.captured
        for cause, count in row.drops.items():
            result.counts[f"capture.drops.{cause}"] = \
                result.counts.get(f"capture.drops.{cause}", 0) + count
        for name, value in (("capture.frames_seen", row.frames_seen),
                            ("capture.captured", row.captured),
                            ("capture.generated", row.generated)):
            result.counts[name] = result.counts.get(name, 0) + value


def snmp_verdicts(audit, result: UnitResult) -> None:
    result.verdicts["snmp"] = [
        row.verdict_overloaded is not None
        and row.verdict_overloaded == row.mirror_overloaded_truth
        for row in audit.ledgers]


def count_files(result: UnitResult, name: str, paths) -> None:
    result.counts[name] = sum(Path(p).stat().st_size for p in paths)


def count_journal(result: UnitResult, path: Path) -> None:
    data = Path(path).read_bytes()
    result.journal_sha = hashlib.sha256(data).hexdigest()
    result.counts["obs.journal_bytes"] = len(data)
    result.counts["obs.journal_events"] = data.count(b"\n")


# -- profile ----------------------------------------------------------------


class ProfileWorkload:
    """The ``repro profile`` default occasion, trimmed to fit the run.

    It keeps the defaults' 2 instances, 2 samples per run, tcpdump,
    snaplen 200 and telemetry off.  Two sites (not four), one cycle
    (not two) and traffic scale 0.01 (not 0.05) make one unit about a
    quarter of the default, so five units fit in a 40 s run.
    """

    name = "profile"

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.work = work
        if tiny:
            self.args = ["--sites", "STAR", "MICH", "--scale", "0.002",
                         "--cycles", "1", "--samples", "1", "--instances", "1"]
        else:
            self.args = ["--sites", "STAR", "MICH", "--cycles", "1",
                         "--scale", "0.01"]

    def unit(self, index: int, tracer: Optional[Tracer] = None,
             tamper: Optional[Tamper] = None) -> UnitResult:
        out = self.work / f"unit{index}"
        argv = ["profile", "--seed", str(self.seed), "--out", str(out),
                "--json", *self.args]
        captured = io.StringIO()
        root = tracer.open("workload.unit") if tracer else None
        watch = Stopwatch()
        with redirect_stdout(captured):
            code = repro.cli.main(argv)
        if tamper is not None:
            tamper(out)
        journal_path = out / "journal.jsonl"
        audit = repro.obs.audit.audit_journal(RunJournal.read(journal_path))
        result = watch.stop()
        if root is not None:
            tracer.close(root)
        if code != 0:
            result.problems.append(f"repro profile exited {code}")
        runs = json.loads(captured.getvalue())["runs"]
        for run in runs:
            reason = None
            if run["outcome"] in FAILED_OUTCOMES:
                reason = f"{run['site']}: outcome {run['outcome']}"
            if result.ops.get(run["site"]) is None:
                result.ops[run["site"]] = reason
        check_ledgers(audit, lambda row: row.site, result)
        snmp_verdicts(audit, result)
        count_journal(result, journal_path)
        count_files(result, "capture.pcap_bytes", sorted(out.glob("*/*.pcap")))
        return result


# -- campaign ---------------------------------------------------------------


class CountingIO(FileIO):
    """The runner's durable-write seam, counting fsyncs and bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.fsyncs = 0
        self.fsync_seconds = 0.0
        self.bytes_written = 0

    def write(self, handle, data: bytes) -> int:
        self.bytes_written += len(data)
        return super().write(handle, data)

    def fsync(self, handle) -> None:
        started = time.perf_counter()
        super().fsync(handle)
        self.fsync_seconds += time.perf_counter() - started
        self.fsyncs += 1

    def fsync_dir(self, path) -> None:
        started = time.perf_counter()
        super().fsync_dir(path)
        self.fsync_seconds += time.perf_counter() - started
        self.fsyncs += 1


class CampaignWorkload:
    """An 8-site, 2-occasion durable sharded campaign on 2 workers.

    Each site's traffic intensity is a heavy-tailed draw from the
    campaign seed, so the work of a campaign varies several-fold from
    one campaign seed to the next.  The campaign seed is therefore
    pinned (like ``repro profile``'s traffic seed), and ``--seed``
    draws the capture snaplen (64-256 bytes), which changes every pcap,
    digest and journal while the offered traffic stays the same.

    Before the timed units, one run at ``shard_workers=1`` -- the
    serial reference the sharding contract is stated against -- pins
    the merged journal every unit must reproduce byte for byte.
    """

    name = "campaign"
    workers = 2
    campaign_seed = 6

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.work = work
        rng = np.random.default_rng(seed)
        sites = DEFAULT_SITE_NAMES[:2] if tiny else DEFAULT_SITE_NAMES[:8]
        self.manifest = CampaignManifest(
            seed=self.campaign_seed, sites=tuple(sites),
            occasions=1 if tiny else 2,
            traffic_scale=0.002 if tiny else 0.005,
            sample_duration=2.0, sample_interval=10.0,
            snaplen=int(rng.integers(64, 257)),
            samples_per_run=1, runs_per_cycle=1, cycles=1,
            desired_instances=1, traffic_span=40.0, sharded=True)
        self.reference_sha = ""

    def prepare(self) -> Dict[str, object]:
        """Run the serial reference; returns its journal sha and wall time."""
        run_dir = self.work / "reference"
        started = time.perf_counter()
        summary = CampaignRunner(run_dir, manifest=self.manifest,
                                 shard_workers=1).run()
        wall = time.perf_counter() - started
        self.reference_sha = sha256_file(Path(summary.journal_path))
        return {"reference_sha": self.reference_sha, "wall_s": wall}

    def unit(self, index: int, tracer: Optional[Tracer] = None,
             tamper: Optional[Tamper] = None) -> UnitResult:
        run_dir = self.work / f"unit{index}"
        counting = CountingIO()
        # The traced unit runs the shards in-process (the serial
        # reference path) so the layer hooks see inside them.
        workers = 1 if tracer is not None else self.workers
        root = tracer.open("workload.unit") if tracer else None
        watch = Stopwatch()
        summary = CampaignRunner(run_dir, manifest=self.manifest, io=counting,
                                 shard_workers=workers).run()
        if tamper is not None:
            tamper(run_dir)
        journal_path = Path(summary.journal_path)
        audit = repro.obs.audit.audit_journal(RunJournal.read(journal_path))
        result = watch.stop()
        if root is not None:
            tracer.close(root)
            adopt_runner_trace(tracer, run_dir / "trace.jsonl")
        if not summary.audit_ok:
            result.problems.append("campaign summary: audit failed")
        count_journal(result, journal_path)
        if result.journal_sha != self.reference_sha:
            result.problems.append(
                f"merged journal at shard_workers={workers} differs from "
                "the shard_workers=1 reference")
        records = json.loads((run_dir / "records.json").read_text())["records"]
        for record in records:
            op = f"{record['site']}/o{record['occasion']}"
            reason = None
            if record["outcome"] in FAILED_OUTCOMES:
                reason = f"{op}: outcome {record['outcome']}"
            if result.ops.get(op) is None:
                result.ops[op] = reason
        check_ledgers(audit, _campaign_op, result)
        snmp_verdicts(audit, result)
        result.counts["campaign.fsyncs"] = counting.fsyncs
        result.counts["campaign.durable_bytes"] = counting.bytes_written
        result.counts["campaign.wal_bytes"] = \
            (run_dir / "campaign.wal").stat().st_size
        result.times["campaign.fsync"] = counting.fsync_seconds
        count_files(result, "capture.pcap_bytes",
                    sorted(run_dir.glob("captures/*/*.pcap")))
        return result


def _campaign_op(row) -> str:
    """``SITE/oN`` from a row's ``SITE/oN_...pcap`` name."""
    name = row.pcap.split("/", 1)[-1]
    return f"{row.site}/{name.split('_', 1)[0]}"


# -- mirror-overload --------------------------------------------------------


LINE_BPS = 300_000.0          # mirror destination line rate
FRAME_BYTES = 500
QUEUE_LIMIT_BYTES = 16_000     # 32 frames at the mirror egress
SKETCH_WINDOW = 15.0
SWITCH_PORTS = 16
MAC_A = b"\x02\x00\x00\x00\x00\x01"
MAC_B = b"\x02\x00\x00\x00\x00\x02"
HEAD_AB = MAC_B + MAC_A + b"\x08\x00" + b"\x00" * 50
HEAD_BA = MAC_A + MAC_B + b"\x08\x00" + b"\x00" * 50

# Mirrored load as a multiple of the mirror egress line rate.  Each
# group is a fixed grid jittered by the seed, so every seed offers about
# the same total work.
CLEAN = (0.2, 0.4, 0.6, 0.8)
NEAR = (0.9, 0.97, 1.03, 1.1)
OVER = (1.4, 1.8)
BURST_BASE = (0.4, 0.6)        # plus a burst shorter than a sketch window


@dataclass(frozen=True)
class SampleSpec:
    load: float
    burst_start: float = 0.0
    burst_seconds: float = 0.0
    burst_load: float = 0.0
    jitter_seed: int = 0


def mirror_specs(seed: int, tiny: bool = False) -> List[SampleSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    clean, near, over, burst = (CLEAN[:1], NEAR[1:2], OVER[:1], BURST_BASE[:1]) \
        if tiny else (CLEAN, NEAR, OVER, BURST_BASE)
    for grid, spread in ((clean, 0.05), (near, 0.02), (over, 0.1)):
        for load in grid:
            specs.append(SampleSpec(
                load=load + float(rng.uniform(-spread, spread)),
                jitter_seed=int(rng.integers(2 ** 31))))
    for load in burst:
        specs.append(SampleSpec(
            load=load + float(rng.uniform(-0.05, 0.05)),
            burst_start=float(rng.uniform(5.0, 30.0)),
            burst_seconds=float(rng.uniform(1.0, 3.0)),
            burst_load=float(rng.uniform(2.5, 3.5)),
            jitter_seed=int(rng.integers(2 ** 31))))
    return specs


class PacedSource:
    """Offers frames into one channel, one scheduled event at a time.

    The next offer is scheduled when the current one fires, so the
    heap holds one pending offer per source instead of the whole sample.
    Gaps are the rate's mean gap jittered by +/-25 %.
    """

    def __init__(self, sim: Simulator, channel, head: bytes,
                 spec: SampleSpec, end: float, start: float) -> None:
        self.sim = sim
        self.channel = channel
        self.head = head
        self.spec = spec
        self.start = start
        self.end = end
        self.jitter = np.random.default_rng(spec.jitter_seed) \
            .uniform(0.75, 1.25, 4096).tolist()
        self.offers = 0

    def _gap(self) -> float:
        spec = self.spec
        load = spec.load
        since = self.sim.now - self.start
        if spec.burst_seconds and \
                spec.burst_start <= since < spec.burst_start + spec.burst_seconds:
            load = spec.burst_load
        # Both directions are mirrored, so each source carries half.
        frames_per_s = (LINE_BPS / 8.0) * (load / 2.0) / FRAME_BYTES
        return self.jitter[self.offers % len(self.jitter)] / frames_per_s

    def fire(self) -> None:
        self.channel.offer(Frame(wire_len=FRAME_BYTES, head=self.head))
        self.offers += 1
        later = self.sim.now + self._gap()
        if later < self.end:
            self.sim.schedule_at(later, self.fire)


class MirrorOverloadWorkload:
    """A sweep of mirrored single-switch worlds at 0.2x - 1.8x egress."""

    name = "mirror-overload"

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.work = work
        self.specs = mirror_specs(seed, tiny)
        self.sample_seconds = 20.0 if tiny else 60.0

    def unit(self, index: int, tracer: Optional[Tracer] = None,
             tamper: Optional[Tamper] = None) -> UnitResult:
        out = self.work / f"unit{index}"
        root = tracer.open("workload.unit") if tracer else None
        counts = Counts()
        watch = Stopwatch()
        with scoped(Observability.create()) as obs:
            pcaps = []
            for k, spec in enumerate(self.specs):
                pcaps.append(out / "S" / f"sample{k:02d}.pcap")
                self._sample(k, spec, pcaps[-1], counts, tracer)
            if tamper is not None:
                tamper(out)
            pipeline = AnalysisPipeline(max_workers=1,
                                        cache_dir=out / "acap-cache")
            pipeline.digest(pcaps)
            pipeline.analyze()
            journal_path = obs.journal.write(out / "journal.jsonl")
            audit = repro.obs.audit.audit_journal(obs.journal)
        result = watch.stop()
        if root is not None:
            tracer.close(root)
        result.counts = dict(counts.values)
        result.ops = {f"sample{k:02d}": None for k in range(len(self.specs))}
        check_ledgers(audit, lambda row: row.pcap.split("/")[-1][:-5], result)
        for name in DETECTORS:
            result.verdicts[name] = [
                row.detectors.get(name, {}).get("overloaded")
                == row.mirror_overloaded_truth for row in audit.ledgers]
        if len(audit.ledgers) != len(self.specs):
            result.problems.append(
                f"{len(audit.ledgers)} ledger rows for {len(self.specs)} samples")
        count_journal(result, journal_path)
        count_files(result, "capture.pcap_bytes", [p for p in pcaps if p.exists()])
        return result

    def _sample(self, k: int, spec: SampleSpec, pcap: Path, counts: Counts,
                tracer: Optional[Tracer]) -> None:
        with tracer.span("testbed.build") if tracer else nullcontext():
            sim = Simulator()
            switch = Switch(sim, "tor", default_rate_bps=LINE_BPS,
                            queue_limit_bytes=QUEUE_LIMIT_BYTES)
            for port in ("src", "dst", "mir"):
                switch.add_port(port, DOWNLINK)
            for i in range(SWITCH_PORTS - 3):
                switch.add_port(f"idle{i:02d}", DOWNLINK)
            switch.register_mac(MAC_B, "dst")
            switch.register_mac(MAC_A, "src")
            session = switch.create_mirror("src", "mir")
            switch.int_stamper = IntStamper(stamp_every=8)
            nic_port = DedicatedNIC().ports[0]
            nic_port.attach(switch.ports["mir"].link, "mir")
        store = CounterStore()
        polls = 0

        def poll() -> None:
            nonlocal polls
            polls += 1
            for port_id, port_counters in switch.port_counters().items():
                for name, value in port_counters.items():
                    store.append("S", port_id, name, sim.now, value)

        reports = []
        runtime = QueryRuntime(sim, "S", seed=spec.jitter_seed,
                               on_report=reports.append)
        runtime.install(switch, [
            Query(EGRESS_LOAD_QUERY)
            .filter(("direction", "==", "tx"))
            .map(key="port", value="wire_len")
            .reduce("count-min", epsilon=0.05, delta=0.05)
            .every(SKETCH_WINDOW)
            .watch(ports=("mir",), directions=("tx",))
            .build(),
        ])
        poll()
        capture = CaptureSession(sim, nic_port, pcap, int_strip=True)
        recorder = LedgerRecorder(switch, "S")
        capture.start()
        window = recorder.open(mirrored_port="src", dest_port="mir",
                               sample=k, method="tcpdump",
                               pcap=f"S/{pcap.name}")
        start = sim.now
        end = start + self.sample_seconds
        runtime.arm(start)
        for port, head in (("src", HEAD_AB), ("dst", HEAD_BA)):
            source = PacedSource(sim, switch.ports[port].link.rx, head, spec,
                                 end=end, start=start)
            sim.schedule_at(start, source.fire)
        sim.run(until=end)
        poll()
        runtime.finalize(sim.now)
        stats = capture.stop()
        verdict = CongestionDetector(MFlib(store)).check(
            "S", "src", LINE_BPS, start, end)
        detectors = {
            "snmp": snmp_reading(verdict.overloaded, self.sample_seconds,
                                 walk_bytes(SWITCH_PORTS, polls)).to_dict(),
            "sketch": SketchCongestionDetector().check(
                reports, "mir", LINE_BPS, start, end).to_dict(),
            "inband": InbandCongestionDetector().check(
                capture.int_stamps, stats.frames_seen, start, end).to_dict(),
        }
        window.close(stats, verdict=verdict.overloaded, detectors=detectors)
        add_switch_stats(counts, [switch], sim,
                         [(switch, session.dest_port_id)])
        counts.add("telemetry.sketch_reports", len(reports))
        counts.add("telemetry.report_bytes",
                   sum(report.report_bytes for report in reports))
        counts.add("telemetry.int_stamps", len(capture.int_stamps))


WORKLOADS = {
    "profile": ProfileWorkload,
    "campaign": CampaignWorkload,
    "mirror-overload": MirrorOverloadWorkload,
}
