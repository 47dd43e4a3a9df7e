"""Bidirectional packet/flow trace substrate.

Section 5.2 of the paper measures the forward fraction ``f`` directly from
full packet-header traces collected on the two directions of an Abilene
backbone link (IPLS-CLEV and IPLS-KSCY).  Reproducing that measurement needs
a trace substrate:

* :mod:`repro.traces.applications` — application profiles (web, p2p, mail,
  bulk, interactive) with request/response volume distributions, which is
  what determines the forward fraction of the aggregate,
* :mod:`repro.traces.flows` / :mod:`repro.traces.connections` — flow records
  (per-direction, 5-tuple keyed, SYN-flagged) and the connections they form,
* :mod:`repro.traces.trace_generator` — a synthetic bidirectional trace
  generator standing in for the (unavailable) Abilene packet traces,
* :mod:`repro.traces.matching` — the paper's measurement procedure: match
  flows across the two directions by 5-tuple, identify the initiator by the
  SYN, classify unmatched/straddling traffic as unknown, and compute
  ``f = I_i / (I_i + R_j)`` per time bin.

Figure 4 (:mod:`repro.experiments.fig4_f_from_traces`) runs this
measurement.
"""

from repro.traces.applications import ApplicationProfile, DEFAULT_APPLICATION_MIX
from repro.traces.flows import FlowRecord, FiveTuple
from repro.traces.connections import Connection
from repro.traces.trace_generator import BidirectionalTraceGenerator, LinkTracePair
from repro.traces.matching import FMeasurement, measure_forward_fraction

__all__ = [
    "ApplicationProfile",
    "DEFAULT_APPLICATION_MIX",
    "FlowRecord",
    "FiveTuple",
    "Connection",
    "BidirectionalTraceGenerator",
    "LinkTracePair",
    "FMeasurement",
    "measure_forward_fraction",
]
