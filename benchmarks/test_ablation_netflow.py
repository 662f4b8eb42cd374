"""Ablation: NetFlow-style operator telemetry vs Patchwork's analysis.

Section 4's motivation, made quantitative: operator-oriented flow
export keys on the outer IP five-tuple, so (a) slices reusing the same
10/8 addresses merge into one flow, and (b) pseudowire-encapsulated
traffic is opaque.  Patchwork classifies with virtualization tags and
sees through the encapsulation.
"""

import numpy as np

from repro.analysis.acap import abstract
from repro.analysis.dissect import Dissector
from repro.analysis.flows import classify_flows
from repro.telemetry.netflow import NetFlowExporter
from repro.testbed import FederationBuilder
from repro.traffic.encapsulation import EncapKind
from repro.traffic.endpoints import EndpointRegistry
from repro.traffic.flows import STANDARD_APPS, Flow, FrameTemplates
from repro.util.tables import Table


def test_ablation_netflow(benchmark):
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    registry = EndpointRegistry(federation)
    a = registry.create("STAR", "slice-a")
    b = registry.create("STAR", "slice-a")

    exporter = NetFlowExporter(federation.sim)
    exporter.attach_to_switch(federation.site("STAR").switch)

    captured = []
    b.nic_port.receive(captured.append)
    a.nic_port.receive(captured.append)

    def run():
        rng = np.random.default_rng(3)
        templates = FrameTemplates()
        true_flows = 0
        # Ten flows in slice VLAN 100 and ten in slice VLAN 2900, all
        # reusing the same endpoints/ports -- only the tags differ.
        # The same rng seed per pair makes both slices draw identical
        # source ports: their five-tuples collide exactly, which is the
        # paper's "same 10/8 addresses in different slices" hazard.
        for vlan in (100, 2900):
            for i in range(10):
                Flow(sim=federation.sim, flow_id=vlan * 100 + i, src=a, dst=b,
                     app=STANDARD_APPS["iperf-tcp"], total_bytes=20_000,
                     rng=np.random.default_rng(i), templates=templates,
                     encap=EncapKind.VLAN_MPLS, vlan_id=vlan,
                     mpls_label=16000 + vlan,
                     start_time=federation.sim.now + i * 0.05).start()
                true_flows += 1
        # Plus five pseudowire-encapsulated flows: opaque to NetFlow.
        for i in range(5):
            Flow(sim=federation.sim, flow_id=90_000 + i, src=a, dst=b,
                 app=STANDARD_APPS["tls-web"], total_bytes=10_000,
                 rng=np.random.default_rng(90_000 + i), templates=templates,
                 encap=EncapKind.VLAN_MPLS_PW, vlan_id=500,
                 start_time=federation.sim.now + i * 0.05).start()
            true_flows += 1
        federation.sim.run(until=federation.sim.now + 60.0)
        # Patchwork's view: dissect the captured frames, classify by tags.
        dissector = Dissector()
        records = [abstract(dissector.dissect(f.captured_bytes(200)),
                            0.0, f.wire_len, 200) for f in captured]
        patchwork_flows = len(classify_flows(records))
        return true_flows, exporter.distinct_conversations(), patchwork_flows

    true_flows, netflow_flows, patchwork_flows = benchmark.pedantic(
        run, rounds=1, iterations=1)

    table = Table(["view", "distinct_conversations"], title="Flow visibility")
    table.add_row(["ground truth", true_flows])
    table.add_row(["NetFlow v5 (outer 5-tuple)", netflow_flows])
    table.add_row(["Patchwork (tags + 5-tuple)", patchwork_flows])
    print("\n" + table.render())
    print(f"NetFlow non-IP (pseudowire) frames: {exporter.non_ip_frames}")

    # NetFlow undercounts: duplicated-address slices merge, PW invisible.
    assert netflow_flows < true_flows
    # Patchwork resolves every flow.
    assert patchwork_flows == true_flows
    # The pseudowire traffic is specifically what NetFlow lost.
    assert exporter.non_ip_frames > 0