"""Flow-level traffic generation.

A :class:`Flow` is one application conversation between two endpoints.
It is generated open-loop: data frames leave the source at the flow's
rate, and every ``ack_every`` data frames the destination emits a
payload-free ACK in the reverse direction (the paper: "minimum-size
frames consist of payload-free ACKs in a TCP stream").  TCP flows open
with a SYN and close with a FIN (occasionally RST, which the paper calls
out as important control information).

Frames are built once per world and frame shape as byte templates
(:class:`FrameTemplates`), patched with each flow's addresses and port,
and then re-stamped per transmission, so generating a large flow costs
a few byte patches plus cheap per-frame events.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.engine import Simulator
from repro.netsim.frame import DEFAULT_HEAD_BYTES, Frame
from repro.packets.builder import FrameBuilder, FrameSpec, MIN_FRAME_SIZE
from repro.packets.checksum import ones_complement_sum
from repro.packets.headers import (
    DNSHeader,
    HTTPPayload,
    ICMP,
    IPv4,
    IPv6,
    NTPPayload,
    Payload,
    SSHBanner,
    TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TLSRecord,
    UDP,
    ipv4_bytes,
    ipv6_bytes,
    mac_bytes,
)
from repro.traffic.encapsulation import EncapKind, underlay_stack
from repro.traffic.endpoints import TrafficEndpoint

AppHeaderFactory = Callable[[np.random.Generator], Optional[object]]


@dataclass(frozen=True)
class AppSpec:
    """The shape of one application protocol's flows.

    ``inner_frame_size`` is the size of a full data frame *before* the
    underlay encapsulation (1514 for standard-MTU bulk transfer, ~9000
    for jumbo experiments).  ``rate_bps`` is the per-flow sending rate
    at simulation scale.
    """

    name: str
    transport: str  # "tcp" | "udp" | "icmp"
    dport: int
    inner_frame_size: int = 1514
    rate_bps: float = 20e6
    ack_every: int = 4
    request_response: bool = False
    app_header: Optional[AppHeaderFactory] = None
    rst_probability: float = 0.01
    # Per-app ceiling on flow bytes: a DNS exchange is a few frames no
    # matter how bulk-heavy the site's flow-size distribution is.
    flow_bytes_cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "udp", "icmp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.inner_frame_size < MIN_FRAME_SIZE:
            raise ValueError("inner frame size below Ethernet minimum")


STANDARD_APPS: Dict[str, AppSpec] = {
    "iperf-tcp": AppSpec("iperf-tcp", "tcp", 5201, inner_frame_size=1514,
                         rate_bps=40e6, ack_every=6),
    "iperf-jumbo": AppSpec("iperf-jumbo", "tcp", 5201, inner_frame_size=8986,
                           rate_bps=80e6, ack_every=6),
    "tls-web": AppSpec("tls-web", "tcp", 443, inner_frame_size=1514,
                       rate_bps=10e6, ack_every=3, flow_bytes_cap=8e5,
                       app_header=lambda rng: TLSRecord()),
    "http": AppSpec("http", "tcp", 80, inner_frame_size=1514,
                    rate_bps=8e6, ack_every=3, flow_bytes_cap=5e5,
                    app_header=lambda rng: HTTPPayload(response=False)),
    "ssh": AppSpec("ssh", "tcp", 22, inner_frame_size=576,
                   rate_bps=1e6, ack_every=2, flow_bytes_cap=3e4,
                   app_header=lambda rng: SSHBanner()),
    "dns": AppSpec("dns", "udp", 53, inner_frame_size=220, rate_bps=1e6,
                   request_response=True, flow_bytes_cap=600,
                   app_header=lambda rng: DNSHeader(ident=int(rng.integers(0, 65536)))),
    "ntp": AppSpec("ntp", "udp", 123, inner_frame_size=110, rate_bps=1e6,
                   request_response=True, flow_bytes_cap=300,
                   app_header=lambda rng: NTPPayload()),
    "icmp": AppSpec("icmp", "icmp", 0, inner_frame_size=98, rate_bps=1e6,
                    request_response=True, flow_bytes_cap=500),
}


def _adjust_checksum(data: bytearray, offset: int, delta: int,
                     udp: bool = False) -> None:
    """Add ``delta`` to the words a stored Internet checksum covers.

    RFC 1624 eqn. 3 in sum form: the covered sum is ``s = ~c``; after
    the change it is ``s' = (s + delta) mod 0xFFFF``, read as 0xFFFF
    when the remainder is 0 (a full build's carry fold yields 0 only for
    all-zero words, which an IPv4 header or a pseudo-header never is),
    and the new checksum is ``~s'``.  A stored 0x0000 is an ordinary
    checksum here: only a UDP field reserves it for "no checksum", so a
    UDP result of 0 is written as 0xFFFF (RFC 768), exactly as a full
    build writes it.
    """
    checksum = (data[offset] << 8) | data[offset + 1]
    total = ((~checksum & 0xFFFF) + delta) % 0xFFFF or 0xFFFF
    checksum = ~total & 0xFFFF
    if udp and checksum == 0:
        checksum = 0xFFFF
    data[offset] = checksum >> 8
    data[offset + 1] = checksum & 0xFF


def _patch_word(data: bytearray, offset: int, value: int) -> int:
    """Write the 16-bit ``value`` at ``offset``; return the checksum
    delta (new minus old word)."""
    old = (data[offset] << 8) | data[offset + 1]
    data[offset] = value >> 8
    data[offset + 1] = value & 0xFF
    return value - old


@dataclass(frozen=True)
class _WireAddresses:
    """One endpoint's addresses as they go on the wire."""

    mac: bytes
    ipv4: bytes
    ipv4_sum: int
    ipv6: bytes
    ipv6_sum: int


class FrameTemplates:
    """One world's frame templates, keyed by frame shape.

    A shape is ``(app, encap, vlan_id, mpls_label, use_ipv6, kind)``: no
    endpoint address is part of it.  Each template is built once, from
    all-zero placeholder addresses and a placeholder source port, and
    every flow patches its own MACs, IP addresses and port (or ICMP
    identifier) in at fixed offsets, updating the checksums
    incrementally.  The cache belongs to the world's
    :class:`~repro.traffic.workloads.TrafficOrchestrator` (or whoever
    builds flows), so no build state outlives a world.
    """

    def __init__(self) -> None:
        self.builder = FrameBuilder()
        self.shapes: Dict[tuple, Tuple[int, bytes]] = {}
        self._wire: Dict[Tuple[str, str, str], _WireAddresses] = {}

    def wire(self, endpoint: TrafficEndpoint) -> _WireAddresses:
        """``endpoint``'s packed addresses (parsed once per world)."""
        key = (endpoint.mac, endpoint.ipv4, endpoint.ipv6)
        wire = self._wire.get(key)
        if wire is None:
            ipv4 = ipv4_bytes(endpoint.ipv4)
            ipv6 = ipv6_bytes(endpoint.ipv6)
            wire = self._wire[key] = _WireAddresses(
                mac_bytes(endpoint.mac), ipv4, ones_complement_sum(ipv4),
                ipv6, ones_complement_sum(ipv6))
        return wire


# Placeholders a template is built with, patched per flow.
_ZERO_MAC = "00:00:00:00:00:00"
_ZERO_IPV4 = "0.0.0.0"
_ZERO_IPV6 = "::"
_TEMPLATE_SPORT = 40000

# Offset of the inner Ethernet header in a VLAN_MPLS_PW frame:
# outer Ethernet 14 + VLAN 4 + MPLS 4 + MPLS 4 + PW control word 4.
_PW_INNER_ETHERNET = 30


class Flow:
    """One generated conversation.

    The flow schedules itself on the simulator: :meth:`start` arms the
    SYN (for TCP) and the first data frame; each data-frame event chains
    the next, so memory stays bounded for huge flows.  The flow stops at
    ``total_bytes`` sent or at ``stop_time``, whichever comes first.

    Frame templates come from the world's :class:`FrameTemplates`, one
    per frame shape; the flow's addresses and port are patched in with
    incremental checksum updates, so creating tens of thousands of small
    flows stays cheap while every flow keeps a distinct, valid
    five-tuple.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        src: TrafficEndpoint,
        dst: TrafficEndpoint,
        app: AppSpec,
        total_bytes: int,
        rng: np.random.Generator,
        templates: FrameTemplates,
        encap: EncapKind = EncapKind.VLAN_MPLS,
        vlan_id: int = 100,
        mpls_label: int = 16000,
        use_ipv6: bool = False,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        rtt: float = 0.004,
        rate_scale: float = 1.0,
    ):
        if total_bytes <= 0:
            raise ValueError("flow must carry at least one byte")
        self.sim = sim
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.app = app
        self.total_bytes = total_bytes
        self.rng = rng
        self.templates = templates
        self.encap = encap
        self.vlan_id = vlan_id
        self.mpls_label = mpls_label
        self.use_ipv6 = use_ipv6
        self.start_time = start_time
        self.stop_time = stop_time
        self.rtt = rtt
        self.sport = int(rng.integers(32768, 61000))
        self.bytes_sent = 0
        self.frames_sent = 0
        self.finished = False
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        self.rate_scale = rate_scale
        self._data_template = self._build_frame("data")
        self._ack_template = self._build_frame("ack")
        self._data_interval = self._data_template.wire_len * 8.0 / (app.rate_bps * rate_scale)
        self._payload_per_frame = max(1, self._payload_bytes_per_data_frame())

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the flow on the simulator."""
        at = max(self.start_time, self.sim.now)
        if self.app.transport == "tcp":
            syn = self._build_frame("syn")
            self.sim.schedule_at(at, self._send, self.src, syn)
            first_data = at + self.rtt  # handshake turnaround
        else:
            first_data = at
        self.sim.schedule_at(first_data, self._send_data)

    @property
    def expected_data_frames(self) -> int:
        """How many data frames the flow would need for its size."""
        return -(-self.total_bytes // self._payload_per_frame)

    # -- event handlers ------------------------------------------------------

    def _send_data(self) -> None:
        if self.finished:
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self.finished = True
            return
        frame = self._stamp(self._data_template)
        self.src.send(frame)
        self.frames_sent += 1
        self.bytes_sent += self._payload_per_frame
        if self.app.request_response:
            # Request/response apps: each request earns one reply.
            self.sim.schedule(self.rtt / 2, self._send, self.dst, self._stamp(self._ack_template))
        elif self.app.ack_every > 0 and self.frames_sent % self.app.ack_every == 0:
            self.sim.schedule(self.rtt / 2, self._send, self.dst, self._stamp(self._ack_template))
        if self.bytes_sent >= self.total_bytes:
            self._finish()
            return
        self.sim.schedule(self._data_interval, self._send_data)

    def _finish(self) -> None:
        self.finished = True
        if self.app.transport == "tcp":
            kind = "rst" if self.rng.random() < self.app.rst_probability else "fin"
            closing = self._build_frame(kind)
            self.sim.schedule(self._data_interval, self._send, self.src, closing)

    def _send(self, endpoint: TrafficEndpoint, frame: Frame) -> None:
        endpoint.send(self._stamp(frame))

    def _stamp(self, template: Frame) -> Frame:
        """A per-transmission copy of a template frame."""
        return Frame(
            wire_len=template.wire_len,
            head=template.head,
            created_at=self.sim.now,
            flow_id=self.flow_id,
            slice_id=template.slice_id,
            site=template.site,
        )

    # -- frame construction ------------------------------------------------

    def _payload_bytes_per_data_frame(self) -> int:
        ip_tcp = 40 if not self.use_ipv6 else 60
        return max(1, self.app.inner_frame_size - 14 - ip_tcp)

    def _build_frame(self, kind: str) -> Frame:
        """A frame of one kind ('data'/'ack'/'syn'/'fin'/'rst'): the
        shape's template with this flow's addresses and port patched in.
        An 'ack' (or a request/response reply) travels destination to
        source; every other kind travels source to destination."""
        forward = kind != "ack"
        src, dst = (self.src, self.dst) if forward else (self.dst, self.src)
        key = (self.app.name, self.encap, self.vlan_id, self.mpls_label,
               self.use_ipv6, kind)
        shapes = self.templates.shapes
        template = shapes.get(key)
        if template is None:
            template = shapes[key] = self._build_template(forward, kind)
        wire_len, template_head = template
        head = bytearray(template_head)
        wire_src = self.templates.wire(src)
        wire_dst = self.templates.wire(dst)
        head[0:6] = wire_dst.mac
        head[6:12] = wire_src.mac
        if self.encap is EncapKind.VLAN_MPLS_PW:
            head[_PW_INNER_ETHERNET:_PW_INNER_ETHERNET + 6] = wire_dst.mac
            head[_PW_INNER_ETHERNET + 6:_PW_INNER_ETHERNET + 12] = wire_src.mac
        ip = 14 + self.encap.overhead_bytes
        if self.use_ipv6:
            head[ip + 8:ip + 40] = wire_src.ipv6 + wire_dst.ipv6
            address_sum = wire_src.ipv6_sum + wire_dst.ipv6_sum
            transport = ip + 40
        else:
            head[ip + 12:ip + 20] = wire_src.ipv4 + wire_dst.ipv4
            address_sum = wire_src.ipv4_sum + wire_dst.ipv4_sum
            _adjust_checksum(head, ip + 10, address_sum)
            transport = ip + 20
        if self.app.transport == "icmp":
            # Flow identity lives in the echo identifier; the ICMP
            # checksum covers no pseudo-header, so addresses leave it be.
            delta = _patch_word(head, transport + 4, self.flow_id & 0xFFFF)
            _adjust_checksum(head, transport + 2, delta)
            if not any(head[transport:transport + 2]) and not any(head[transport + 4:]):
                # An echo reply with identifier 0 and no payload is the
                # one covered message that is all zero words: it sums to
                # 0, not 0xFFFF, so a full build writes 0xFFFF.  (Bytes
                # after it are zero frame padding; a payload is 0x5A.)
                head[transport + 2:transport + 4] = b"\xff\xff"
        else:
            port = transport if forward else transport + 2
            delta = address_sum + _patch_word(head, port, self.sport)
            if self.app.transport == "tcp":
                _adjust_checksum(head, transport + 16, delta)
            else:
                _adjust_checksum(head, transport + 6, delta, udp=True)
        return Frame(
            wire_len=wire_len,
            head=bytes(head),
            created_at=self.sim.now,
            flow_id=self.flow_id,
            slice_id=src.slice_name,
            site=src.site,
        )

    def _build_template(self, forward: bool, kind: str) -> Tuple[int, bytes]:
        """Build one shape's template from placeholder addresses: its
        wire length and head bytes."""
        stack: List[object] = underlay_stack(
            self.encap, _ZERO_MAC, _ZERO_MAC, self.vlan_id, self.mpls_label,
            inner_src_mac=_ZERO_MAC, inner_dst_mac=_ZERO_MAC,
        )
        if self.use_ipv6:
            stack.append(IPv6(src=_ZERO_IPV6, dst=_ZERO_IPV6))
        else:
            stack.append(IPv4(src=_ZERO_IPV4, dst=_ZERO_IPV4))
        sport = _TEMPLATE_SPORT if forward else self.app.dport
        dport = self.app.dport if forward else _TEMPLATE_SPORT
        is_data = kind == "data"
        if self.app.transport == "tcp":
            flags = {
                "data": TCP_ACK | TCP_PSH,
                "ack": TCP_ACK,
                "syn": TCP_SYN,
                "fin": TCP_FIN | TCP_ACK,
                "rst": TCP_RST,
            }[kind]
            stack.append(TCP(sport=sport, dport=dport, flags=flags))
        elif self.app.transport == "udp":
            stack.append(UDP(sport=sport, dport=dport))
        else:
            stack.append(ICMP(icmp_type=8 if forward else 0, ident=0))
        if is_data and self.app.app_header is not None:
            # Only the first flow of a shape builds its template, so
            # building one must not consume the flow's shared RNG
            # stream: whether a flow draws would then depend on which
            # flows came before it.  The header RNG is derived from the
            # template shape instead.
            header_rng = np.random.default_rng(
                zlib.crc32(f"{self.app.name}/{kind}/{self.vlan_id}".encode()))
            app_header = self.app.app_header(header_rng)
            if app_header is not None:
                stack.append(app_header)
        if is_data or self.app.request_response:
            inner_size = self.app.inner_frame_size if is_data else max(
                MIN_FRAME_SIZE, self.app.inner_frame_size // 2
            )
        else:
            inner_size = MIN_FRAME_SIZE + 4  # payload-free ACK / control
        stack.append(Payload(0))
        target = inner_size + self.encap.overhead_bytes
        data = self.templates.builder.build(FrameSpec(stack, target_size=target))
        return len(data), bytes(data[:DEFAULT_HEAD_BYTES])
