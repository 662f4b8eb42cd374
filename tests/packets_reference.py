"""Deliberately simple references for the frame-building fast paths.

Test-only.  ``ones_complement_sum_loop`` is the RFC 1071 word loop that
:func:`repro.packets.checksum.ones_complement_sum` replaced with one
big-integer reduction, and ``reference_frame`` builds a flow's frame
from scratch with :class:`~repro.packets.builder.FrameBuilder` -- real
addresses and ports in the stack, every checksum computed over the
finished bytes -- where :class:`~repro.traffic.flows.Flow` patches a
shared, address-free template.  The differential tests drive both with
the same inputs and require identical bytes.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

import numpy as np

from repro.netsim.frame import DEFAULT_HEAD_BYTES
from repro.packets.builder import MIN_FRAME_SIZE, FrameBuilder, FrameSpec
from repro.packets.headers import (
    ICMP,
    IPv4,
    IPv6,
    Payload,
    TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    UDP,
)
from repro.traffic.encapsulation import EncapKind, underlay_stack

UNDERLAY_BYTES = {
    EncapKind.PLAIN: 0,
    EncapKind.VLAN: 4,
    EncapKind.VLAN_MPLS: 8,
    EncapKind.VLAN_MPLS_PW: 30,
}

TCP_FLAGS = {
    "data": TCP_ACK | TCP_PSH,
    "ack": TCP_ACK,
    "syn": TCP_SYN,
    "fin": TCP_FIN | TCP_ACK,
    "rst": TCP_RST,
}


def ones_complement_sum_loop(data: bytes) -> int:
    """RFC 1071: add 16-bit words, folding the carry back in each time."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return total & 0xFFFF


def reference_frame(flow, kind: str) -> Tuple[int, bytes]:
    """``flow``'s frame of ``kind`` built from scratch: (wire_len, head)."""
    app = flow.app
    forward = kind != "ack"
    src, dst = (flow.src, flow.dst) if forward else (flow.dst, flow.src)
    stack = underlay_stack(flow.encap, src.mac, dst.mac, flow.vlan_id,
                           flow.mpls_label, inner_src_mac=src.mac,
                           inner_dst_mac=dst.mac)
    if flow.use_ipv6:
        stack.append(IPv6(src=src.ipv6, dst=dst.ipv6))
    else:
        stack.append(IPv4(src=src.ipv4, dst=dst.ipv4))
    sport, dport = ((flow.sport, app.dport) if forward
                    else (app.dport, flow.sport))
    if app.transport == "tcp":
        stack.append(TCP(sport=sport, dport=dport, flags=TCP_FLAGS[kind]))
    elif app.transport == "udp":
        stack.append(UDP(sport=sport, dport=dport))
    else:
        stack.append(ICMP(icmp_type=8 if forward else 0,
                          ident=flow.flow_id & 0xFFFF))
    if kind == "data" and app.app_header is not None:
        header_rng = np.random.default_rng(
            zlib.crc32(f"{app.name}/{kind}/{flow.vlan_id}".encode()))
        header = app.app_header(header_rng)
        if header is not None:
            stack.append(header)
    if kind == "data":
        inner = app.inner_frame_size
    elif app.request_response:
        inner = max(MIN_FRAME_SIZE, app.inner_frame_size // 2)
    else:
        inner = MIN_FRAME_SIZE + 4
    stack.append(Payload(0))
    data = FrameBuilder().build(
        FrameSpec(stack, target_size=inner + UNDERLAY_BYTES[flow.encap]))
    return len(data), data[:DEFAULT_HEAD_BYTES]
