"""Timeline analysis: link utilization and span breakdowns.

Attach a :class:`~repro.obs.spans.SpanTracer` to a job's simulator and
this module turns its op, work-request and link-hold intervals into a
per-category count and virtual-time breakdown — which PCIe, GDR and IB
legs the bytes crossed and for how long, the anatomy the paper's Figs
6-12 and Table III argue from.  Used by tests to assert *where* time
goes (e.g. "host-pipeline pays an H2D leg enhanced-GDR does not") and
by users to understand a protocol's anatomy.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hardware.cluster import ClusterHardware
from repro.obs.spans import SpanTracer
from repro.reporting.format import format_table


#: Link-hold labels (the transfer spec's label) grouped into legs.
CATEGORIES = (
    ("rdma_write", "rdma"),
    ("rdma_read", "rdma"),
    ("ib_send", "rdma"),
    ("cudaMemcpy", "cuda-copy"),
    ("gdrP2P", "gdr-p2p"),
    ("ibWire", "wire"),
    ("hostMemcpy", "host-copy"),
    ("hcaHostDMA", "hca-dma"),
)


def categorize(name: str) -> Optional[str]:
    for prefix, cat in CATEGORIES:
        if name.startswith(prefix):
            return cat
    return None


@dataclass
class SpanCount:
    category: str
    spans: int
    seconds: float

    def row(self) -> List[str]:
        return [self.category, str(self.spans), f"{self.seconds:.6g}"]


def event_breakdown(tracer: SpanTracer, strict: bool = True) -> List[SpanCount]:
    """Span count and summed virtual seconds per category.

    Link spans group by label (:data:`CATEGORIES`; an unlisted label is
    its own category), every other span by its ``cat`` (``shmem``,
    ``ib``, ``msg``), and ``route:<protocol>`` instants by protocol
    (zero seconds each).  Each link hold records one span per hop
    direction, so link counts are direction-crossings.

    A truncated tracer (spans dropped past its limit) undercounts every
    category; by default that raises so an analysis can never silently
    report partial numbers.  Pass ``strict=False`` to get the partial
    counts anyway (as :func:`breakdown_table` does, which flags the
    truncation in its rendering instead).
    """
    if strict and tracer.truncated:
        raise ValueError(
            f"tracer is truncated ({tracer.dropped} spans dropped past its "
            "limit); breakdown would undercount — raise SpanTracer(limit=...) "
            "or pass strict=False for partial counts"
        )
    counts: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        cat = (categorize(span.name) or span.name) if span.cat == "link" else span.cat
        counts[cat] += 1
        if span.end is not None:
            seconds[cat] += span.end - span.start
    for inst in tracer.instants:
        if inst.cat == "route":
            counts[inst.name] += 1
    return [
        SpanCount(c, counts[c], seconds[c])
        for c in sorted(counts, key=lambda c: (-seconds[c], -counts[c], c))
    ]


def link_utilization(hw: ClusterHardware, elapsed: float) -> List[Tuple[str, int, int, float]]:
    """Per-direction ``(name, transfers, bytes, avg MB/s over the run)``
    from the links' own byte counters (no trace needed)."""
    rows = []

    def add(direction):
        if direction.transfers:
            mbps = direction.bytes_moved / elapsed / 1e6 if elapsed > 0 else 0.0
            rows.append((direction.name, direction.transfers, direction.bytes_moved, mbps))

    for node in hw.nodes:
        for link in node.pcie.gpu_links + node.pcie.hca_links:
            add(link.fwd)
            add(link.rev)
        add(node.pcie.qpi.fwd)
        add(node.pcie.qpi.rev)
        add(node.pcie.host_mem.fwd)
        for hca in node.hcas:
            add(hca.port.fwd)
            add(hca.port.rev)
    rows.sort(key=lambda r: -r[2])
    return rows


def utilization_table(hw: ClusterHardware, elapsed: float, top: int = 12) -> str:
    rows = [
        [name, str(n), f"{b:,}", f"{mbps:,.0f}"]
        for name, n, b, mbps in link_utilization(hw, elapsed)[:top]
    ]
    return format_table(
        ["link direction", "transfers", "bytes", "avg MB/s"],
        rows,
        title="Link utilization (busiest first)",
    )


def breakdown_table(tracer: SpanTracer) -> str:
    table = format_table(
        ["category", "spans", "virtual s"],
        [e.row() for e in event_breakdown(tracer, strict=False)],
        title="Span breakdown",
    )
    if tracer.truncated:
        table += (
            f"\nWARNING: trace truncated — {tracer.dropped} spans dropped "
            "past the tracer limit; counts above are partial"
        )
    return table


def reliability_report(job) -> str:
    """Fault/reliability summary for a job run under a
    :class:`~repro.faults.FaultPlan`: the aggregate counters, the
    per-path health outcome, and the chronological fault timeline.
    Returns an empty string when no plan was attached (nothing to say).
    """
    if getattr(job, "faults", None) is None:
        return ""
    stats = job.sim.stats
    counters = format_table(
        ["counter", "value"],
        [
            ["flap windows", str(stats.flap_windows)],
            ["rc retries", str(stats.retries)],
            ["failovers", str(stats.failovers)],
            ["hca stalls", str(stats.hca_stalls)],
            ["cq errors", str(stats.cq_errors)],
            ["degraded time (s)", f"{stats.degraded_time:.6g}"],
        ],
        title="Reliability counters",
    )
    health = format_table(
        ["path", "final state", "degraded (s)"],
        [
            [p["path"], p["state"], f"{p['degraded_time']:.6g}"]
            for p in job.runtime.health.snapshot()
        ],
        title="Path health",
    )
    rc = job.verbs.rc
    retries = format_table(
        ["path", "retries"],
        [[name, str(n)] for name, n in sorted(rc.retries_by_path.items())],
        title="RC retransmissions by path",
    )
    timeline = format_table(
        ["t (s)", "fault"],
        [[f"{t:.6f}", desc] for t, desc in job.faults.log],
        title="Fault timeline",
    )
    return "\n\n".join(part for part in (counters, health, retries, timeline) if part)
