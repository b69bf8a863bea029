#!/usr/bin/env python
"""Trace smoke: the Fig 8 inter-node D-D sweep under the span tracer.

Usage:
    PYTHONPATH=src python benchmarks/trace_smoke.py [--output trace_fig8.json]

Four checks, any failure exits non-zero:

1. **Bit-identical timestamps** — the traced run's virtual end time
   equals the untraced run's exactly (spans only read ``sim.now``).
2. **Fast-path gating** — the untraced run commits analytic flows
   (``analytic_flows > 0``); the traced run takes the event-accurate
   path (``analytic_flows == 0``), so its spans map onto real
   scheduler events.
3. **Span/event agreement** — the tracer's ``rdma_write`` span count
   equals the number of ``rdma_write`` wire-hold events an attached
   event :class:`~repro.simulator.monitor.Trace` logs: one span per
   work request, one timed hold per work request.
4. **Export schema** — the Chrome trace JSON round-trips through
   ``json`` and passes :func:`repro.obs.validate_chrome_trace`; CI
   archives it as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import repro.bench.latency as lat  # noqa: E402
from repro.obs import SpanTracer, snapshot_job, write_chrome_trace  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from repro.shmem import Domain, ShmemJob  # noqa: E402
from repro.simulator import Trace  # noqa: E402
from repro.units import KiB, MiB  # noqa: E402

SIZES = [16 * KiB << i for i in range(9)]  # 16 KiB .. 4 MiB (Fig 8)


def _job() -> ShmemJob:
    return ShmemJob(
        nodes=2, pes_per_node=1, design="enhanced-gdr",
        host_heap_size=32 * MiB, gpu_heap_size=32 * MiB,
    )


def _program():
    return lat._sweep_program("put", SIZES, Domain.GPU, Domain.GPU, "far")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="trace_fig8.json")
    args = ap.parse_args(argv)
    failures = []

    # Reference: untraced, fast paths armed.
    ref = _job()
    ref.run(_program())
    ref_end = ref.sim.now
    ref_flows = ref.sim.stats.analytic_flows
    if ref_flows <= 0:
        failures.append(f"untraced run committed no analytic flows ({ref_flows})")

    # Event-accurate reference: event Trace attached (also disarms the
    # fast paths), counting the rdma_write wire holds.
    evjob = _job()
    evtrace = Trace(filter=lambda ev: ev.name == "rdma_write").attach(evjob.sim)
    evjob.run(_program())
    if evjob.sim.now != ref_end:
        failures.append(
            f"event-traced end time diverged: {evjob.sim.now!r} != {ref_end!r}"
        )
    event_writes = len(evtrace.records)

    # Span-traced run.
    job = _job()
    tracer = SpanTracer().attach(job.sim, label="fig8 internode D-D put")
    job.run(_program())
    if job.sim.now != ref_end:
        failures.append(
            f"span-traced end time diverged: {job.sim.now!r} != {ref_end!r}"
        )
    if job.sim.stats.analytic_flows != 0:
        failures.append(
            f"span-traced run still committed {job.sim.stats.analytic_flows} analytic flows"
        )
    # The verbs layer opens one "ib" span per work request; the link
    # layer reuses the spec label for its per-hop crossings, so filter
    # by category to compare requests with requests.
    span_writes = sum(1 for s in tracer.by_name("rdma_write") if s.cat == "ib")
    if span_writes != event_writes:
        failures.append(
            f"rdma_write span count {span_writes} != event count {event_writes}"
        )
    if tracer.open_spans():
        failures.append(f"{len(tracer.open_spans())} spans never closed")
    if tracer.truncated:
        failures.append(f"tracer truncated ({tracer.dropped} dropped)")

    # Export + validate + archive.
    path = write_chrome_trace(tracer, args.output)
    doc = json.loads(path.read_text())
    problems = validate_chrome_trace(doc)
    failures.extend(f"schema: {p}" for p in problems)

    snap = snapshot_job(job)
    print(
        f"untraced: end={ref_end:.9f}s analytic_flows={ref_flows}\n"
        f"traced:   end={job.sim.now:.9f}s analytic_flows=0 "
        f"spans={len(tracer.spans)} instants={len(tracer.instants)}\n"
        f"rdma_write spans={span_writes} events={event_writes}\n"
        f"metrics keys={len(snap)} "
        f"p99(put:pipeline-gdr-write)={snap.get('probe.put:pipeline-gdr-write.p99')}\n"
        f"artifact: {path} ({len(doc['traceEvents'])} trace events)"
    )
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
