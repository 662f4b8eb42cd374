#!/usr/bin/env python3
"""Single-experiment mode: a researcher profiles their own experiment.

The paper's first user story (Section 4): a researcher running a
congestion-control experiment between two sites wants to see their own
traffic -- header behaviour, ACK streams, RSTs -- without touching
anyone else's.  Patchwork in single-experiment mode mirrors only the
switch ports the researcher's slice is attached to.

Run:  python examples/single_experiment_profile.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import quickstart_federation
from repro.analysis import AnalysisPipeline
from repro.core import Coordinator, PatchworkConfig, SamplingPlan
from repro.traffic.encapsulation import EncapKind
from repro.traffic.flows import STANDARD_APPS, Flow


def main() -> None:
    federation, api, poller, orchestrator = quickstart_federation(
        site_names=["STAR", "TOKY", "AMST"], traffic_scale=0.05)
    # Background: other researchers' experiments keep running.
    orchestrator.generate_window(0.0, 240.0)

    # --- The researcher's own experiment: a WAN transfer STAR -> TOKY.
    my_src = orchestrator.registry.create("STAR", slice_name="my-cc-exp")
    my_dst = orchestrator.registry.create("TOKY", slice_name="my-cc-exp")
    rng = np.random.default_rng(99)
    for i in range(6):
        Flow(sim=federation.sim, flow_id=10_000 + i, src=my_src, dst=my_dst,
             app=STANDARD_APPS["iperf-tcp"], total_bytes=400_000, rng=rng,
             templates=orchestrator.templates,
             encap=EncapKind.VLAN_MPLS, vlan_id=2900, mpls_label=19000,
             start_time=10.0 + i * 15.0, rate_scale=0.05).start()

    # --- Point Patchwork at the experiment's attachment ports only.
    star = federation.site("STAR")
    my_port = star.switch_port_for(my_src.nic_port)
    out = Path(tempfile.mkdtemp(prefix="patchwork-single-"))
    config = PatchworkConfig(
        output_dir=out,
        all_experiment=False,
        slice_name="my-cc-exp",
        sites=["STAR"],
        selector="fixed",
        fixed_ports=[my_port],
        desired_instances=1,
        plan=SamplingPlan(sample_duration=10, sample_interval=30,
                          samples_per_run=3, runs_per_cycle=1, cycles=1),
    )
    bundle = Coordinator(api, config, poller=poller).run_profile()
    record = bundle.run_records[0]
    print(f"profiled port {my_port} at STAR: {record.outcome.value}, "
          f"{record.samples_taken} samples")

    # --- Analyze: flow composition and TCP control information.
    report = AnalysisPipeline().run(bundle.pcap_paths)
    print(f"\ncaptured {report.total_frames} frames in "
          f"{len(bundle.pcap_paths)} samples")
    print()
    print(report.tables["frame_sizes_overall"].render())
    print()
    print(report.tables["tcp_flags"].render())
    my_flows = [
        (key, stats) for key, stats in report.aggregated_flows.items()
        if 2900 in key.vlan_ids
    ]
    print(f"\nflows on my slice's VLAN (2900): {len(my_flows)}")
    for key, stats in sorted(my_flows, key=lambda kv: -kv[1].wire_bytes)[:5]:
        print(f"  {key.endpoint_a} <-> {key.endpoint_b}: "
              f"{stats.frames} frames, {stats.wire_bytes} bytes, "
              f"syn={stats.syn_seen} fin={stats.fin_seen} rst={stats.rst_seen}")


if __name__ == "__main__":
    main()
