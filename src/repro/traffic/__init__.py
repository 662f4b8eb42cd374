"""Workload and traffic generation.

This package plays the role of FABRIC's *researchers*: it creates
experiment endpoints on sites, assigns each site a workload personality,
and schedules flows whose frames traverse the simulated dataplane where
Patchwork's mirrors can see them.

The generators are calibrated against the paper's published profile:

* The FABRIC underlay tags traffic with VLAN and MPLS labels, and some
  paths use Ethernet-over-MPLS pseudowires, so an inner 1514-byte frame
  leaves the site as ~1540-1560 bytes on the wire -- this is why the
  paper's dominant frame-size bin is 1519-2047 B (74.7 %).
* Payload-free TCP ACKs land in the 65-127 B bin (14.15 %).
* IPv6 is rare (1.93 % of frames).
* Sites differ: some run simple throughput experiments (few protocols,
  jumbo frames), others run protocol-diverse application experiments
  (many distinct headers) -- the paper's Fig 11/15 spread.
"""

from repro.traffic.distributions import (
    FrameSizeBins,
    PAPER_FRAME_BINS,
    flow_size_sampler,
    lognormal_sampler,
    pareto_sampler,
)
from repro.traffic.encapsulation import EncapKind, underlay_stack
from repro.traffic.endpoints import EndpointRegistry, TrafficEndpoint
from repro.traffic.flows import AppSpec, Flow, FrameTemplates, STANDARD_APPS
from repro.traffic.workloads import (
    SiteTrafficGenerator,
    WorkloadProfile,
    WORKLOAD_PROFILES,
    assign_site_profiles,
)
from repro.traffic.schedule import SliceSchedule, SliceScheduleModel

__all__ = [
    "FrameSizeBins",
    "PAPER_FRAME_BINS",
    "flow_size_sampler",
    "lognormal_sampler",
    "pareto_sampler",
    "EncapKind",
    "underlay_stack",
    "EndpointRegistry",
    "TrafficEndpoint",
    "AppSpec",
    "Flow",
    "FrameTemplates",
    "STANDARD_APPS",
    "SiteTrafficGenerator",
    "WorkloadProfile",
    "WORKLOAD_PROFILES",
    "assign_site_profiles",
    "SliceSchedule",
    "SliceScheduleModel",
]
