"""Differential tests for the per-world frame templates.

A flow's frames come from a template built once per shape from
placeholder addresses and patched with the flow's MACs, IP addresses and
port.  These tests check the patched bytes against a from-scratch
``FrameBuilder`` build of the same stack (``tests/packets_reference.py``)
under hypothesis, pin the checksum zero cases that the patch rule must
get right, and show the differential property failing on planted
defects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import IPv4, TCP, UDP, Ethernet
from repro.testbed import FederationBuilder
from repro.traffic.encapsulation import EncapKind
from repro.traffic.endpoints import EndpointRegistry, TrafficEndpoint
from repro.traffic.flows import (
    STANDARD_APPS,
    Flow,
    FrameTemplates,
    _adjust_checksum,
    _patch_word,
)
from repro.traffic.workloads import TrafficOrchestrator

from tests.packets_reference import UNDERLAY_BYTES, reference_frame

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
FIND_SETTINGS = settings(max_examples=2000, deadline=None, database=None,
                         derandomize=True, phases=[Phase.generate],
                         suppress_health_check=list(HealthCheck))

KINDS = {"tcp": ("data", "ack", "syn", "fin", "rst"),
         "udp": ("data", "ack"), "icmp": ("data", "ack")}


def _mac(raw: bytes) -> str:
    return raw.hex(":")


def _ipv4(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


def _ipv6(raw: bytes) -> str:
    return ":".join(raw[i:i + 2].hex() for i in range(0, 16, 2))


ENDPOINTS = st.builds(
    lambda mac, v4, v6: TrafficEndpoint("STAR", None, _mac(mac), _ipv4(v4),
                                        _ipv6(v6), "slice"),
    st.binary(min_size=6, max_size=6), st.binary(min_size=4, max_size=4),
    st.binary(min_size=16, max_size=16))


@st.composite
def frame_cases(draw):
    app = draw(st.sampled_from(sorted(STANDARD_APPS)))
    return {
        "app": app,
        "kind": draw(st.sampled_from(KINDS[STANDARD_APPS[app].transport])),
        "encap": draw(st.sampled_from(list(EncapKind))),
        "use_ipv6": draw(st.booleans()),
        "vlan_id": draw(st.integers(0, 4095)),
        "mpls_label": draw(st.integers(0, (1 << 20) - 2)),
        # Two flows of the same shape with different endpoints, so the
        # second always patches a template the first one built.
        "flows": draw(st.lists(
            st.tuples(ENDPOINTS, ENDPOINTS, st.integers(0, 0xFFFF),
                      st.integers(1, 2**40)),
            min_size=2, max_size=2)),
    }


CASES = frame_cases()


def make_flow(case, src, dst, sport, flow_id, templates, cls=Flow):
    flow = cls(sim=Simulator(), flow_id=flow_id, src=src, dst=dst,
               app=STANDARD_APPS[case["app"]], total_bytes=1000,
               rng=np.random.default_rng(0), templates=templates,
               encap=case["encap"], vlan_id=case["vlan_id"],
               mpls_label=case["mpls_label"], use_ipv6=case["use_ipv6"])
    flow.sport = sport
    return flow


def patched_matches_reference(case, cls=Flow) -> bool:
    templates = FrameTemplates()
    for src, dst, sport, flow_id in case["flows"]:
        flow = make_flow(case, src, dst, sport, flow_id, templates, cls)
        frame = flow._build_frame(case["kind"])
        if (frame.wire_len, frame.head) != reference_frame(flow, case["kind"]):
            return False
    return True


def _ip_offset(flow) -> int:
    return 14 + UNDERLAY_BYTES[flow.encap]


def _template_head(flow, kind) -> bytes:
    key = (flow.app.name, flow.encap, flow.vlan_id, flow.mpls_label,
           flow.use_ipv6, kind)
    return flow.templates.shapes[key][1]


class SkipsIPv4HeaderChecksum(Flow):
    """Planted defect: the IPv4 header checksum keeps its template value."""

    def _build_frame(self, kind):
        frame = super()._build_frame(kind)
        if not self.use_ipv6:
            at = _ip_offset(self) + 10
            head = bytearray(frame.head)
            head[at:at + 2] = _template_head(self, kind)[at:at + 2]
            frame.head = bytes(head)
        return frame


class SkipsInnerMacs(Flow):
    """Planted defect: a pseudowire's inner Ethernet keeps zero MACs."""

    def _build_frame(self, kind):
        frame = super()._build_frame(kind)
        if self.encap is EncapKind.VLAN_MPLS_PW:
            head = bytearray(frame.head)
            head[30:42] = bytes(12)
            frame.head = bytes(head)
        return frame


class TestPatchedTemplates:
    @SETTINGS
    @given(CASES)
    def test_patched_template_matches_full_build(self, case):
        assert patched_matches_reference(case)

    def test_property_catches_a_skipped_ipv4_checksum_patch(self):
        case = find(CASES, lambda c: not patched_matches_reference(
            c, SkipsIPv4HeaderChecksum), settings=FIND_SETTINGS)
        assert not case["use_ipv6"]

    def test_property_catches_skipped_inner_macs(self):
        case = find(CASES, lambda c: not patched_matches_reference(
            c, SkipsInnerMacs), settings=FIND_SETTINGS)
        assert case["encap"] is EncapKind.VLAN_MPLS_PW

    def test_one_template_per_shape(self):
        templates = FrameTemplates()
        src = TrafficEndpoint("STAR", None, "02:e0:00:00:00:01", "10.0.0.1",
                              "fd00::1", "s")
        for n in range(2, 6):
            dst = TrafficEndpoint("STAR", None, f"02:e0:00:00:00:0{n}",
                                  f"10.0.0.{n}", f"fd00::{n}", "s")
            Flow(sim=Simulator(), flow_id=n, src=src, dst=dst,
                 app=STANDARD_APPS["iperf-tcp"], total_bytes=1000,
                 rng=np.random.default_rng(n), templates=templates)
        # data + ack, whatever the endpoints.
        assert len(templates.shapes) == 2

    def test_orchestrators_do_not_share_templates(self):
        def world():
            federation = FederationBuilder(seed=42).build(
                site_names=["STAR", "MICH"])
            orchestrator = TrafficOrchestrator(federation, seed=7, scale=0.01)
            orchestrator.generate_window(0.0, 30.0)
            return orchestrator

        first, second = world(), world()
        assert first.templates is not second.templates
        assert first.templates.shapes
        assert first.templates.shapes.keys() == second.templates.shapes.keys()


# -- checksum zero cases ---------------------------------------------------


@pytest.fixture()
def world():
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    registry = EndpointRegistry(federation)
    a = registry.create("STAR", "slice-a")
    b = registry.create("STAR", "slice-a")
    return federation, a, b


def flow_with_sport(federation, src, dst, app, sport, **kwargs):
    flow = Flow(sim=federation.sim, flow_id=1, src=src, dst=dst,
                app=STANDARD_APPS[app], total_bytes=1000,
                rng=np.random.default_rng(0), templates=FrameTemplates(),
                **kwargs)
    flow.sport = sport
    return flow


def zero_sum_sport(flow, kind, checksum_at) -> int:
    """The source port at which the checksummed words sum to 0xFFFF,
    i.e. the computed checksum is zero (solved from a build at port 0)."""
    flow.sport = 0
    _wire_len, head = reference_frame(flow, kind)
    stored = (head[checksum_at] << 8) | head[checksum_at + 1]
    covered = ~stored & 0xFFFF
    return (-covered) % 0xFFFF or 0xFFFF


class TestChecksumZeroCases:
    def test_udp_zero_written_as_ffff(self, world):
        # DNS STAR->STAR with this port computes a UDP checksum of 0,
        # which RFC 768 transmits as 0xFFFF; the old patch wrote 0x0000.
        federation, a, b = world
        flow = flow_with_sport(federation, a, b, "dns", 22580)
        udp_checksum = _ip_offset(flow) + 20 + 6
        _wire_len, built = reference_frame(flow, "data")
        assert built[udp_checksum:udp_checksum + 2] == b"\xff\xff"
        assert flow._build_frame("data").head == built

    @pytest.mark.parametrize("app,kind", [("dns", "data"), ("dns", "ack"),
                                          ("ntp", "data"), ("ntp", "ack")])
    @pytest.mark.parametrize("use_ipv6", [False, True])
    def test_udp_zero_cases(self, world, app, kind, use_ipv6):
        federation, a, b = world
        flow = flow_with_sport(federation, a, b, app, 0, use_ipv6=use_ipv6)
        at = _ip_offset(flow) + (40 if use_ipv6 else 20) + 6
        flow.sport = zero_sum_sport(flow, kind, at)
        wire_len, built = reference_frame(flow, kind)
        assert built[at:at + 2] == b"\xff\xff"
        frame = flow._build_frame(kind)
        assert (frame.wire_len, frame.head) == (wire_len, built)

    @pytest.mark.parametrize("kind", ["data", "ack", "syn", "fin", "rst"])
    @pytest.mark.parametrize("use_ipv6", [False, True])
    def test_tcp_zero_checksum_kept(self, world, kind, use_ipv6):
        federation, a, b = world
        flow = flow_with_sport(federation, a, b, "iperf-tcp", 0,
                               use_ipv6=use_ipv6,
                               encap=EncapKind.VLAN_MPLS_PW)
        at = _ip_offset(flow) + (40 if use_ipv6 else 20) + 16
        flow.sport = zero_sum_sport(flow, kind, at)
        wire_len, built = reference_frame(flow, kind)
        assert built[at:at + 2] == b"\x00\x00"
        frame = flow._build_frame(kind)
        assert (frame.wire_len, frame.head) == (wire_len, built)


class TestIcmpIdentifierEdges:
    # The echo identifier is the flow id mod 2**16.  A reply with
    # identifier 0 is an all-zero message (checksum 0xFFFF); identifier
    # 0xFFFF sums to 0xFFFF (checksum 0).
    @pytest.mark.parametrize("flow_id", [65536, 65535, 131072, 1])
    @pytest.mark.parametrize("kind", ["data", "ack"])
    @pytest.mark.parametrize("use_ipv6", [False, True])
    def test_matches_full_build(self, world, flow_id, kind, use_ipv6):
        federation, a, b = world
        flow = flow_with_sport(federation, a, b, "icmp", 0, use_ipv6=use_ipv6)
        flow.flow_id = flow_id
        frame = flow._build_frame(kind)
        assert (frame.wire_len, frame.head) == reference_frame(flow, kind)


def _tcp_frame(sport: int) -> bytearray:
    return bytearray(FrameBuilder().build(FrameSpec([
        Ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02"),
        IPv4(src="10.1.2.3", dst="10.4.5.6"),
        TCP(sport=sport, dport=443)])))


def _udp_frame(sport: int) -> bytearray:
    return bytearray(FrameBuilder().build(FrameSpec([
        Ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02"),
        IPv4(src="10.1.2.3", dst="10.4.5.6", proto=17),
        UDP(sport=sport, dport=53)])))


def _zero_port(build, checksum_at: int) -> int:
    data = build(0)
    covered = ~((data[checksum_at] << 8) | data[checksum_at + 1]) & 0xFFFF
    return (-covered) % 0xFFFF or 0xFFFF


class TestAdjustChecksum:
    """The one patch rule, on frames whose stored checksum is a zero case."""

    TCP_CHECKSUM = 14 + 20 + 16
    UDP_CHECKSUM = 14 + 20 + 6

    def test_stored_tcp_zero_is_updated(self):
        zero = _zero_port(_tcp_frame, self.TCP_CHECKSUM)
        data = _tcp_frame(zero)
        assert data[self.TCP_CHECKSUM:self.TCP_CHECKSUM + 2] == b"\x00\x00"
        delta = _patch_word(data, 34, 40000)
        _adjust_checksum(data, self.TCP_CHECKSUM, delta)
        assert data == _tcp_frame(40000)

    def test_stored_udp_ffff_is_updated(self):
        zero = _zero_port(_udp_frame, self.UDP_CHECKSUM)
        data = _udp_frame(zero)
        assert data[self.UDP_CHECKSUM:self.UDP_CHECKSUM + 2] == b"\xff\xff"
        delta = _patch_word(data, 34, 40000)
        _adjust_checksum(data, self.UDP_CHECKSUM, delta, udp=True)
        assert data == _udp_frame(40000)

    def test_patch_into_udp_zero_writes_ffff(self):
        zero = _zero_port(_udp_frame, self.UDP_CHECKSUM)
        data = _udp_frame(40000)
        _adjust_checksum(data, self.UDP_CHECKSUM,
                         _patch_word(data, 34, zero), udp=True)
        assert data == _udp_frame(zero)

    def test_patch_into_tcp_zero_writes_zero(self):
        zero = _zero_port(_tcp_frame, self.TCP_CHECKSUM)
        data = _tcp_frame(40000)
        _adjust_checksum(data, self.TCP_CHECKSUM, _patch_word(data, 34, zero))
        assert data == _tcp_frame(zero)
