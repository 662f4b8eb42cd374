"""Tests for the capture-filter language."""

import pytest

from repro.capture.filters import FilterSyntaxError, compile_filter
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    ARP, Ethernet, IPv4, IPv6, MPLS, Payload, PseudoWireControlWord, TCP,
    TLSRecord, UDP, VLAN,
)

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"


def frame(stack, target=None):
    return FrameBuilder().build(FrameSpec(stack, target_size=target))


TLS_FRAME = frame([Ethernet(E1, E2), VLAN(100), MPLS(16001),
                   IPv4("10.0.0.1", "10.0.0.2"), TCP(50000, 443),
                   TLSRecord(), Payload(64)])
DNS_FRAME = frame([Ethernet(E1, E2), VLAN(200),
                   IPv4("10.0.0.3", "10.0.0.4"), UDP(40000, 53),
                   Payload(40)])
V6_FRAME = frame([Ethernet(E1, E2), IPv6("fd00::1", "fd00::2"),
                  UDP(1, 2), Payload(20)])
PW_FRAME = frame([Ethernet(E1, E2), VLAN(100), MPLS(16), MPLS(17),
                  PseudoWireControlWord(), Ethernet(E1, E2),
                  IPv4("10.0.0.9", "10.0.0.8"), TCP(1, 22), Payload(30)])
ARP_FRAME = frame([Ethernet(E1, E2), ARP(E1, "10.0.0.1")])


class TestPrimitives:
    def test_protocol_keywords(self):
        assert compile_filter("tcp")(TLS_FRAME)
        assert not compile_filter("tcp")(DNS_FRAME)
        assert compile_filter("udp")(DNS_FRAME)
        assert compile_filter("tls")(TLS_FRAME)
        assert compile_filter("arp")(ARP_FRAME)
        assert compile_filter("pw")(PW_FRAME)

    def test_ip_versions(self):
        assert compile_filter("ip")(TLS_FRAME)
        assert not compile_filter("ip")(V6_FRAME)
        assert compile_filter("ip6")(V6_FRAME)

    def test_port(self):
        assert compile_filter("port 443")(TLS_FRAME)
        assert compile_filter("port 50000")(TLS_FRAME)
        assert not compile_filter("port 80")(TLS_FRAME)

    def test_vlan_and_mpls(self):
        assert compile_filter("vlan 100")(TLS_FRAME)
        assert not compile_filter("vlan 200")(TLS_FRAME)
        assert compile_filter("mpls 16001")(TLS_FRAME)

    def test_addresses(self):
        assert compile_filter("src 10.0.0.1")(TLS_FRAME)
        assert not compile_filter("src 10.0.0.2")(TLS_FRAME)
        assert compile_filter("dst 10.0.0.2")(TLS_FRAME)
        assert compile_filter("host 10.0.0.1")(TLS_FRAME)
        assert compile_filter("host 10.0.0.2")(TLS_FRAME)
        assert not compile_filter("host 10.9.9.9")(TLS_FRAME)


class TestCombinators:
    def test_and(self):
        f = compile_filter("vlan 100 and tcp")
        assert f(TLS_FRAME)
        assert not f(DNS_FRAME)

    def test_or(self):
        f = compile_filter("tls or dns")
        assert f(TLS_FRAME)
        assert f(DNS_FRAME)
        assert not f(ARP_FRAME)

    def test_not(self):
        f = compile_filter("not ip6")
        assert f(TLS_FRAME)
        assert not f(V6_FRAME)

    def test_precedence_and_over_or(self):
        # a or b and c == a or (b and c)
        f = compile_filter("arp or vlan 100 and udp")
        assert f(ARP_FRAME)
        assert not f(TLS_FRAME)  # vlan 100 but tcp

    def test_parentheses(self):
        f = compile_filter("(arp or vlan 100) and tcp")
        assert f(TLS_FRAME)
        assert not f(ARP_FRAME)

    def test_nested_not(self):
        f = compile_filter("not not tcp")
        assert f(TLS_FRAME)

    def test_excludes_own_ssh(self):
        """The classic operational filter: everything except port 22."""
        f = compile_filter("ip and not port 22")
        assert f(TLS_FRAME)
        assert not f(PW_FRAME)  # inner dport is 22


class TestErrors:
    @pytest.mark.parametrize("expression", [
        "", "port", "port abc", "frobnicate", "(tcp", "tcp )", "tcp tcp",
    ])
    def test_syntax_errors(self, expression):
        with pytest.raises(FilterSyntaxError):
            compile_filter(expression)


class TestIntegration:
    def test_filter_in_capture_session(self, tmp_path):
        import numpy as np
        from repro.capture.fpga import FpgaOffloadConfig
        from repro.capture.session import CaptureMethod, CaptureSession
        from repro.packets.pcap import PcapReader
        from repro.testbed import FederationBuilder
        from repro.traffic.endpoints import EndpointRegistry
        from repro.traffic.flows import STANDARD_APPS, Flow, FrameTemplates

        federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
        registry = EndpointRegistry(federation)
        a, b = registry.create("STAR"), registry.create("STAR")
        templates = FrameTemplates()
        # Two flows: one TLS (port 443), one iperf (port 5201).
        for app, fid in (("tls-web", 1), ("iperf-tcp", 2)):
            Flow(sim=federation.sim, flow_id=fid, src=a, dst=b,
                 app=STANDARD_APPS[app], total_bytes=50_000,
                 rng=np.random.default_rng(fid),
                 templates=templates).start()
        only_tls = compile_filter("port 443")
        session = CaptureSession(
            federation.sim, b.nic_port, tmp_path / "tls.pcap",
            method=CaptureMethod.FPGA_DPDK,
            fpga_config=FpgaOffloadConfig(truncation=200,
                                          frame_filter=only_tls),
        )
        session.start()
        federation.sim.run()
        stats = session.stop()
        assert stats.frames_captured > 0
        for record in PcapReader(tmp_path / "tls.pcap"):
            assert only_tls(record.data)
