"""Tests for the observability layer: span tracing, Chrome trace
export, the unified metrics registry, and the invariants the subsystem
must keep — chiefly that attaching a tracer never moves a timestamp
(the Fig 8 goldens in ``test_fastpath.py`` pin that end to end).
"""

import json

import pytest

from repro.obs import (
    LatencyHistogram,
    MetricsSnapshot,
    SpanTracer,
    active,
    install,
    percentile,
    snapshot_job,
    snapshot_probe,
    snapshot_stats,
    to_chrome_trace,
    uninstall,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.shmem import Domain, ShmemJob
from repro.simulator import Probe, Simulator, Trace
from repro.units import KiB, MiB


# ================================================================ spans
def test_span_begin_end_nesting_depth():
    sim = Simulator()
    tr = SpanTracer().attach(sim)
    outer = tr.begin(sim, "op", "shmem", "pe0", nbytes=8)
    inner = tr.begin(sim, "write", "ib", "pe0")
    assert (outer.depth, inner.depth) == (0, 1)
    tr.end(sim, inner)
    tr.end(sim, outer, status="ok")
    assert outer.end == sim.now and outer.args["status"] == "ok"
    assert tr.open_spans() == []
    assert outer.duration == 0.0  # no time advanced


def test_span_duration_tracks_virtual_time():
    sim = Simulator()
    tr = SpanTracer().attach(sim)

    def proc(sim):
        span = tr.begin(sim, "op", "shmem", "pe0")
        yield sim.timeout(2.5)
        tr.end(sim, span)
        return span

    p = sim.process(proc(sim))
    sim.run()
    assert p.value.duration == pytest.approx(2.5)


def test_span_open_duration_raises():
    sim = Simulator()
    tr = SpanTracer().attach(sim)
    span = tr.begin(sim, "op", "shmem", "pe0")
    with pytest.raises(ValueError, match="still open"):
        span.duration


def test_tracer_limit_counts_drops():
    sim = Simulator()
    tr = SpanTracer(limit=2).attach(sim)
    a = tr.begin(sim, "a", "c", "t")
    tr.instant(sim, "i", "c", "t")
    dropped_span = tr.begin(sim, "b", "c", "t")
    tr.instant(sim, "j", "c", "t")
    tr.complete(sim, "k", "c", "t", 0.0)
    assert dropped_span is None
    tr.end(sim, dropped_span)  # no-op, must not raise
    assert a is not None
    assert (len(tr.spans), len(tr.instants)) == (1, 1)
    assert tr.dropped == 3
    assert tr.truncated
    tr.clear()
    assert not tr.truncated and tr.spans == [] and tr.instants == []


def test_tracer_attach_detach_gate():
    sim = Simulator()
    tr = SpanTracer().attach(sim)
    assert sim.tracer is tr
    tr.detach(sim)
    assert sim.tracer is None
    other = SpanTracer().attach(sim)
    tr.detach(sim)  # detaching a non-attached tracer is a no-op
    assert sim.tracer is other


def test_tracer_queries_and_scopes():
    s1, s2 = Simulator(), Simulator()
    tr = SpanTracer()
    tr.attach(s1, label="first")
    tr.attach(s2)
    tr.end(s1, tr.begin(s1, "put", "shmem", "pe0"))
    tr.end(s2, tr.begin(s2, "get", "shmem", "pe0"))
    tr.instant(s2, "route:x", "route", "pe1")
    assert tr.nscopes == 2
    assert tr.scope_label(0) == "first"
    assert tr.scope_label(1) == "job 1"
    assert [s.name for s in tr.by_cat("shmem")] == ["put", "get"]
    assert [s.scope for s in tr.by_name("get")] == [1]
    assert tr.tracks() == ["pe0", "pe1"]


# =============================================================== export
def _traced_job(op="put", sizes=(64 * KiB,)):
    import repro.bench.latency as lat

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    tracer = SpanTracer().attach(job.sim, label="test job")
    job.run(lat._sweep_program(op, list(sizes), Domain.GPU, Domain.GPU, "far"))
    return job, tracer


def test_chrome_trace_structure_and_validation():
    job, tracer = _traced_job()
    doc = to_chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    phases = {ev["ph"] for ev in events}
    assert phases == {"X", "i", "M"}
    names = {ev["name"] for ev in events if ev["ph"] == "M"}
    assert names == {"thread_name", "process_name"}
    procs = [ev for ev in events if ev["ph"] == "M" and ev["name"] == "process_name"]
    assert procs[0]["args"]["name"] == "test job"
    # ts/dur are virtual microseconds.
    xs = [ev for ev in events if ev["ph"] == "X"]
    assert xs and all(ev["ts"] >= 0 and ev["dur"] >= 0 for ev in xs)
    assert max(ev["ts"] + ev["dur"] for ev in xs) <= job.sim.now * 1e6 + 1e-9


def test_chrome_trace_args_sanitized_and_truncation_flagged():
    sim = Simulator()
    tr = SpanTracer(limit=1).attach(sim)
    span = tr.begin(sim, "op", "c", "t", obj=object(), n=3, s="x", f=1.5, b=True, none=None)
    tr.end(sim, span)
    tr.instant(sim, "extra", "c", "t")  # dropped
    doc = to_chrome_trace(tr)
    assert validate_chrome_trace(doc) == []
    args = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"][0]["args"]
    assert args["n"] == 3 and args["s"] == "x" and args["f"] == 1.5
    assert args["b"] is True and args["none"] is None
    assert isinstance(args["obj"], str)  # repr'd, JSON-safe
    assert doc["otherData"] == {"truncated": True, "dropped": 1}


def test_chrome_trace_skips_open_spans():
    sim = Simulator()
    tr = SpanTracer().attach(sim)
    tr.begin(sim, "never-closed", "c", "t")
    doc = to_chrome_trace(tr)
    assert [ev for ev in doc["traceEvents"] if ev["ph"] == "X"] == []


def test_write_chrome_trace_round_trips(tmp_path):
    _job, tracer = _traced_job()
    path = write_chrome_trace(tracer, tmp_path / "trace.json")
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []
    assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == len(
        [s for s in tracer.spans if s.end is not None]
    )


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
    bad = {
        "traceEvents": [
            "not-an-object",
            {"ph": "Q", "name": "x", "pid": 0, "tid": 0},
            {"ph": "X", "name": "", "pid": 0, "tid": 0, "ts": 1, "dur": 1},
            {"ph": "X", "name": "x", "pid": "0", "tid": 0, "ts": -1, "dur": 1},
            {"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": 1, "s": "z"},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) == 6
    assert any("unknown phase" in p for p in problems)
    assert any("instant scope" in p for p in problems)


# ======================================================= instrumentation
def test_traced_put_produces_nested_span_stack():
    job, tracer = _traced_job()
    ops = tracer.by_name("shmem:put")
    assert ops, "runtime must open a span per put"
    assert all(s.cat == "shmem" and s.track.startswith("pe") for s in ops)
    # The sweep's measured transfers carry the requested size (sync/
    # warmup puts are smaller).
    assert any(s.args.get("nbytes") == 64 * KiB for s in ops)
    # Route decision instants carry the full decision.
    routes = [i for i in tracer.instants if i.name.startswith("route:")]
    assert routes
    assert {"protocol", "op", "config", "locality", "nbytes", "reason"} <= set(
        routes[0].args
    )
    # The verbs and link layers contributed their own categories.
    assert tracer.by_cat("ib")
    link_spans = tracer.by_cat("link")
    assert link_spans and all(s.track.startswith("link:") for s in link_spans)
    # Per-hop crossings lie inside the overall run.
    assert all(0.0 <= s.start <= s.end <= job.sim.now for s in link_spans)


def test_traced_get_and_atomics_emit_spans():
    def main(ctx):
        sym = yield from ctx.shmalloc(4 * KiB, domain=Domain.GPU)
        ctr = yield from ctx.shmalloc(8, domain=Domain.HOST)
        dst = ctx.cuda.malloc(4 * KiB)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            yield from ctx.getmem(dst, sym, 4 * KiB, pe=1)
            yield from ctx.atomic_fetch_add(ctr, 1, pe=1)
        yield from ctx.barrier_all()
        return None

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    tracer = SpanTracer().attach(job.sim)
    job.run(main)
    assert tracer.by_name("shmem:get")
    assert tracer.by_name("shmem:atomic_fetch_add")
    assert tracer.by_name("ib_atomic")
    assert tracer.open_spans() == []


def test_install_hook_attaches_new_jobs():
    tracer = SpanTracer()
    install(tracer)
    try:
        assert active() is tracer
        job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
        assert job.sim.tracer is tracer
        assert tracer.scope_label(0) == "enhanced-gdr x2PE"
    finally:
        uninstall()
    assert active() is None
    job2 = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    assert job2.sim.tracer is None


# ============================================================== metrics
def test_percentile_interpolates():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == pytest.approx(2.5)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(xs, 101)


def test_latency_histogram_summary():
    hist = LatencyHistogram.from_samples([3.0, 1.0, 2.0, 10.0])
    assert hist.count == 4
    assert hist.total == pytest.approx(16.0)
    assert hist.mean == pytest.approx(4.0)
    assert hist.p50 == pytest.approx(2.5)
    assert hist.maximum == 10.0
    assert set(hist.as_dict()) == {"count", "total", "mean", "p50", "p95", "p99", "max"}
    with pytest.raises(ValueError):
        LatencyHistogram.from_samples([])


def test_metrics_snapshot_accessors():
    snap = MetricsSnapshot({"a.x": 1})
    snap.put("a.y", 2.0)
    snap.put("b.z", "s")
    assert snap.get("a.x") == 1
    assert snap.get("missing", 7) == 7
    assert "b.z" in snap and len(snap) == 3
    assert snap.keys() == ["a.x", "a.y", "b.z"]
    assert snap.section("a") == {"x": 1, "y": 2.0}
    assert snap.as_dict() == {"a.x": 1, "a.y": 2.0, "b.z": "s"}


def test_snapshot_probe_histograms_per_series():
    probe = Probe()
    for v in (1.0, 2.0, 3.0):
        probe.sample("put:direct-gdr", v)
    probe.sample("pe0.put:direct-gdr", 5.0)
    out = snapshot_probe(probe)
    assert out["probe.put:direct-gdr.count"] == 3
    assert out["probe.put:direct-gdr.mean"] == pytest.approx(2.0)
    assert out["probe.pe0.put:direct-gdr.p99"] == 5.0


def test_snapshot_job_merges_every_source():
    job, _tracer = _traced_job()
    snap = snapshot_job(job)
    assert snap.get("job.elapsed") == job.sim.now
    assert snap.get("job.npes") == 2
    assert snap.get("job.design") == "enhanced-gdr"
    assert snap.get("engine.analytic_flows") == 0  # tracer disarmed it
    assert snap.get("engine.scheduled") > 0
    # Global and per-PE probe histograms.
    put_keys = [k for k in snap.keys() if k.startswith("probe.put:")]
    pe_keys = [k for k in snap.keys() if k.startswith("probe.pe0.put:")]
    assert put_keys and pe_keys
    # Link byte counters appeared and carry real traffic.
    link_bytes = [v for k, v in snap.section("link").items() if k.endswith(".bytes")]
    assert link_bytes and max(link_bytes) >= 64 * KiB
    # Protocol counts and span totals.
    assert sum(snap.section("protocol").values()) > 0
    assert snap.get("spans.count") == len(_tracer.spans)
    assert snap.get("spans.dropped") == 0
    # No fault plan: no health/faults sections.
    assert snap.section("health") == {} and snap.section("faults") == {}


def test_snapshot_stats_prefixes_counters():
    from repro.simulator.core import SimStats

    stats = SimStats()
    stats.scheduled = 5
    out = snapshot_stats(stats)
    assert out["engine.scheduled"] == 5
    assert "engine.degraded_time" in out


# =================================================== trace mid-run attach
def test_trace_attach_converts_queued_fastpath_tuples():
    """Attaching an event Trace mid-run must convert the fast-path
    resume tuples already queued (which bypass the trace hook) into
    real events, so no queued wake-up is lost or left unobserved."""
    sim = Simulator()
    order = []

    def worker(sim):
        order.append("worker")
        yield sim.timeout(1.0)
        order.append("worker-done")

    trace = Trace()

    def attacher(sim):
        # Spawn ``worker`` mid-run: its boot resume sits in
        # ``sim._ready`` as a raw fast-path tuple at this instant.
        sim.process(worker(sim))
        assert any(item.__class__ is tuple for item in sim._ready)
        trace.attach(sim)
        assert not any(item.__class__ is tuple for item in sim._ready)
        order.append("attached")
        yield sim.timeout(0.5)

    sim.process(attacher(sim))
    sim.run()
    assert order == ["attached", "worker", "worker-done"]
    # The converted boot event was observed by the trace.
    assert any(name.endswith(":imm") for name in trace.names())


def test_trace_attach_before_run_keeps_results():
    sim = Simulator()

    def producer(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.process(producer(sim))
    Trace().attach(sim)  # p's boot tuple converted here
    sim.run()
    assert p.value == 42


# ===================================================== collect hoisting
def test_collect_still_correct_after_sync_sym_hoist():
    def main(ctx):
        nbytes = (ctx.pe + 1) * 256
        src = yield from ctx.shmalloc(4 * KiB, domain=Domain.GPU)
        dst = yield from ctx.shmalloc(16 * KiB, domain=Domain.GPU)
        src.local.fill(0x40 + ctx.pe, nbytes)
        yield from ctx.barrier_all()
        off = yield from ctx.collect(dst, src, nbytes)
        total = sum((pe + 1) * 256 for pe in range(ctx.npes))
        return off, dst.local.read(total)

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    res = job.run(main)
    expected = b"".join(bytes([0x40 + pe]) * ((pe + 1) * 256) for pe in range(2))
    offs = [off for off, _data in res.results]
    assert offs == [0, 256]
    assert all(data == expected for _off, data in res.results)


def test_latency_histogram_empty_exports_every_key():
    hist = LatencyHistogram.empty()
    d = hist.as_dict()
    assert set(d) == {"count", "total", "mean", "p50", "p95", "p99", "max"}
    assert all(v == 0 for v in d.values())


def test_snapshot_probe_handles_sample_free_series():
    # An entirely-analytic run can leave a series declared but never
    # sampled; the export must still carry every percentile key (as
    # zeros) so fast-vs-event snapshot diffs stay value-by-value.
    probe = Probe()
    probe.sample("put:direct-gdr", 2.0)
    probe._series.setdefault("get:direct-gdr", [])
    out = snapshot_probe(probe)
    assert out["probe.get:direct-gdr.count"] == 0
    assert out["probe.get:direct-gdr.p99"] == 0.0
    assert out["probe.put:direct-gdr.count"] == 1


def test_probe_snapshot_bit_identical_fast_vs_event():
    """The analytic tiers must feed the latency probes the exact values
    the event path records: every probe.* key, count, and percentile."""

    def main(ctx):
        sym = yield from ctx.shmalloc(1 * MiB, domain=Domain.GPU)
        src = ctx.cuda.malloc(1 * MiB)
        src.fill(0x5A, 1 * MiB)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            for nbytes in (2 * KiB, 64 * KiB, 1 * MiB):
                yield from ctx.putmem(sym, src, nbytes, pe=1)
                yield from ctx.quiet()
        yield from ctx.barrier_all()

    snaps = []
    for fast in (True, False):
        job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
        job.sim.fastpath = fast
        job.run(main)
        snap = snapshot_job(job)
        snaps.append(
            {k: snap.get(k) for k in snap.keys() if k.startswith("probe.")}
        )
    fast_keys, event_keys = snaps
    assert fast_keys == event_keys
    assert any(k.endswith(".p99") for k in fast_keys)
