"""Deterministic two-sided matching semantics (PR 10).

MPI-style matching is where two-sided stacks rot: tag/source ordering,
wildcards, and the unexpected-message queue all have to behave
identically whether the engine ran analytically, event by event, or
under the span tracer.  These tests pin the engine's ``match_log`` —
the exact ``(dst, src, tag, nbytes, protocol, transport, time)``
sequence — across all three modes, and check the queue disciplines
directly: a receive posted *before* the send matches from the posted
queue, one posted *after* drains the unexpected queue, and wildcards
take the earliest compatible message in post order.
"""

import pytest

from repro.errors import RetryExceeded, ShmemError
from repro.faults import FaultPlan
from repro.hardware.params import wilkes_params
from repro.shmem.job import ShmemJob
from repro.simulator import Trace
from repro.units import KiB, usec


def _job():
    return ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr")


def _run(program, *, fastpath=True, trace=False):
    """Run ``program``; return (results, match_log, counters)."""
    from repro.obs.spans import SpanTracer

    job = _job()
    job.sim.fastpath = fastpath
    tracer = None
    if trace:
        tracer = SpanTracer().attach(job.sim, label="msg matching")
    res = job.run(program)
    engine = job.msg
    counters = {
        "messages": engine.messages,
        "eager": engine.eager,
        "rendezvous": engine.rendezvous,
    }
    log = list(engine.match_log)
    if tracer is not None:
        tracer.detach(job.sim)
    return res, log, counters


def _mixed_tag_program():
    """PEs 1-3 send distinct (tag, size, transport) combos at PE 0,
    which posts one specific, one source-wildcard and one full-wildcard
    receive.  Sizes straddle the eager threshold."""

    def main(ctx):
        n = 64 * KiB
        buf = ctx.cuda.malloc_host(3 * n)
        if ctx.pe == 0:
            r_specific = ctx.irecv(buf, 32 * KiB, src=2, tag=2)
            r_anysrc = ctx.irecv(buf + n, 256, tag=1)
            r_any = ctx.irecv(buf + 2 * n, 4 * KiB)
            envs = []
            for ev in (r_specific, r_anysrc, r_any):
                envs.append(tuple((yield ev)))
            yield from ctx.barrier_all()
            return envs
        src = ctx.cuda.malloc_host(64 * KiB)
        if ctx.pe == 1:
            yield from ctx.send(src, 256, 0, tag=1)
        elif ctx.pe == 2:
            yield from ctx.send(src, 32 * KiB, 0, tag=2)  # rendezvous
        elif ctx.pe == 3:
            yield from ctx.send(src, 4 * KiB, 0, tag=3, transport="ud")
        yield from ctx.barrier_all()
        return []

    return main


def test_match_log_is_bit_identical_across_engines():
    fast, log_fast, c_fast = _run(_mixed_tag_program(), fastpath=True)
    event, log_event, c_event = _run(_mixed_tag_program(), fastpath=False)
    traced, log_traced, c_traced = _run(_mixed_tag_program(), trace=True)
    assert log_fast, "no matches recorded"
    # Exact tuple equality — protocol decisions, transports and the
    # virtual match timestamps all included.
    assert log_fast == log_event == log_traced
    assert c_fast == c_event == c_traced
    assert fast.results[0] == event.results[0] == traced.results[0]
    # The mix straddled the threshold: both protocols must appear.
    protocols = {row[4] for row in log_fast}
    assert protocols == {"eager", "rendezvous"}
    transports = {row[5] for row in log_fast}
    assert transports == {"rc", "ud"}


def test_specific_receives_match_their_envelope():
    res, log, _ = _run(_mixed_tag_program())
    envs = res.results[0]
    assert envs[0] == (2, 2)  # the specific (src=2, tag=2) receive
    assert envs[1] == (1, 1)  # ANY_SOURCE, tag=1 -> PE 1's send
    assert envs[2] == (3, 3)  # full wildcard -> the only one left


def test_wildcard_posted_before_and_after_send():
    """Same match either way: posted-queue hit vs unexpected-queue
    drain must both deliver PE 1's message with its envelope."""

    def recv_first(ctx):
        buf = ctx.cuda.malloc_host(1 * KiB)
        if ctx.pe == 0:
            ev = ctx.irecv(buf, 512)  # posted before any send exists
            env = yield ev
            yield from ctx.barrier_all()
            return tuple(env)
        if ctx.pe == 1:
            yield from ctx.send(buf, 512, 0, tag=3)
        yield from ctx.barrier_all()
        return None

    def send_first(ctx):
        buf = ctx.cuda.malloc_host(1 * KiB)
        if ctx.pe == 1:
            ev = ctx.isend(buf, 512, 0, tag=3)
            yield from ctx.barrier_all()  # send is in flight/queued
            yield ev
        elif ctx.pe == 0:
            yield from ctx.barrier_all()
            env = yield ctx.irecv(buf, 512)  # drains unexpected queue
            return tuple(env)
        else:
            yield from ctx.barrier_all()
        yield from ctx.barrier_all() if False else iter(())
        return None

    res1, _, _ = _run(recv_first)
    res2, _, _ = _run(send_first)
    assert res1.results[0] == (1, 3)
    assert res2.results[0] == (1, 3)


def test_wildcard_takes_unexpected_messages_in_post_order():
    """Two queued sends from the same source with different tags: a
    full wildcard must take them strictly in arrival order."""

    def main(ctx):
        buf = ctx.cuda.malloc_host(2 * KiB)
        if ctx.pe == 1:
            e1 = ctx.isend(buf, 128, 0, tag=7)
            e2 = ctx.isend(buf + 1024, 128, 0, tag=8)
            yield from ctx.barrier_all()
            yield ctx.sim.all_of([e1, e2])
            yield from ctx.barrier_all()
            return None
        if ctx.pe == 0:
            yield from ctx.barrier_all()
            first = tuple((yield ctx.irecv(buf, 128)))
            second = tuple((yield ctx.irecv(buf + 1024, 128)))
            yield from ctx.barrier_all()
            return [first, second]
        yield from ctx.barrier_all()
        yield from ctx.barrier_all()
        return None

    res, _, _ = _run(main)
    assert res.results[0] == [(1, 7), (1, 8)]


def test_route_default_transport_is_honoured():
    """``set_route`` flips a source->dest pair to UD without the caller
    passing a transport, and the match log records it."""

    def main(ctx):
        # PE 2 lives on node 1, so the routed UD transport actually
        # crosses the fabric (same-node pairs short-circuit to copies).
        ctx.job.msg.set_route(2, 0, "ud")
        buf = ctx.cuda.malloc_host(4 * KiB)
        if ctx.pe == 2:
            yield from ctx.send(buf, 2 * KiB, 0)
        elif ctx.pe == 0:
            yield from ctx.recv(buf, 2 * KiB, src=2)
        yield from ctx.barrier_all()

    job = _job()
    job.run(main)
    assert [row[5] for row in job.msg.match_log] == ["ud"]
    assert job.sim.stats.ud_packets > 0


def test_truncation_fails_both_sides():
    """A send larger than the posted receive is a matching error, not
    silent data loss.  A rendezvous send fails on both sides (the
    sender is still waiting on CTS); an eager send already completed
    at post time — only the receiver can observe the error."""

    def main(ctx):
        buf = ctx.cuda.malloc_host(64 * KiB)
        if ctx.pe == 1:
            rdv = ctx.isend(buf, 32 * KiB, 0, tag=0)  # rendezvous-sized
            rdv.defuse()
            eager = ctx.isend(buf, 2 * KiB, 0, tag=1)
            eager.defuse()
            yield from ctx.barrier_all()
            return [rdv.triggered and not rdv.ok, eager.ok]
        if ctx.pe == 0:
            r0 = ctx.irecv(buf, 1 * KiB, src=1, tag=0)
            r0.defuse()
            r1 = ctx.irecv(buf + 32 * KiB, 1 * KiB, src=1, tag=1)
            r1.defuse()
            yield from ctx.barrier_all()
            return [r0.triggered and not r0.ok, r1.triggered and not r1.ok]
        yield from ctx.barrier_all()
        return None

    res = _job().run(main)
    assert res.results[1] == [True, True]  # rdv send failed, eager send ok
    assert res.results[0] == [True, True]  # both receives failed


def test_negative_recv_tag_is_rejected():
    """Only ``ANY_TAG`` may be negative; any other negative tag could
    never match a (non-negative) send tag and would hang the receiver."""

    def main(ctx):
        buf = ctx.cuda.malloc_host(8)
        if ctx.pe == 0:
            yield from ctx.send(buf, 8, 1, tag=3)
        elif ctx.pe == 1:
            yield from ctx.recv(buf, 8, src=0, tag=-3)

    with pytest.raises(ShmemError, match="recv tag"):
        _job().run(main)


# ------------------------------------------------------- staged transport
_CHUNK = 256 * KiB  # params.pipeline_chunk; pipeline_depth is 4


def _device_send(nbytes, transport):
    """PE 0 (node 0) sends a device payload to PE 2 (node 1); PE 2
    reports whether every byte landed."""
    pattern = bytes(i % 251 for i in range(nbytes))

    def main(ctx):
        buf = ctx.cuda.malloc(nbytes)
        if ctx.pe == 0:
            buf.write(pattern)
            yield from ctx.send(buf, nbytes, 2, tag=5, transport=transport)
        elif ctx.pe == 2:
            yield from ctx.recv(buf, nbytes, src=0, tag=5)
            return buf.read(nbytes) == pattern
        return None

    return main


@pytest.mark.parametrize(
    "nbytes", [64 * KiB, 2 * _CHUNK + 1000, 6 * _CHUNK],
    ids=["one-chunk", "ragged-tail", "past-depth"],
)
def test_staged_transport_lands_device_payloads(nbytes):
    rc = _job()
    rc.run(_device_send(nbytes, "rc"))
    staged = _job()
    trace = Trace(filter=lambda ev: ev.name == "msg:chunk")
    trace.attach(staged.sim)
    res = staged.run(_device_send(nbytes, "staged"))
    assert res.results[2] is True
    chunk_events = sum(rec.kind == "Event" for rec in trace.records)
    assert chunk_events == -(-nbytes // _CHUNK)  # one per chunk
    # Same match, same protocol, same time; only the transport differs.
    def without_transport(log):
        return [row[:5] + row[6:] for row in log]

    assert without_transport(staged.msg.match_log) == without_transport(rc.msg.match_log)
    assert [row[5] for row in staged.msg.match_log] == ["staged"]
    assert [row[5] for row in rc.msg.match_log] == ["rc"]


def test_staged_sender_completes_before_receiver():
    """Inter-node staged: the send buffer is free after the last D2H
    stage, while the receiver still waits for the last H2D."""

    def main(ctx):
        buf = ctx.cuda.malloc(4 * _CHUNK)
        if ctx.pe == 0:
            yield ctx.isend(buf, 4 * _CHUNK, 2, transport="staged")
        elif ctx.pe == 2:
            yield ctx.irecv(buf, 4 * _CHUNK, src=0)
        return ctx.now

    res = _job().run(main)
    assert res.results[0] < res.results[2]


def test_staged_truncation_fails_both_sides():
    def main(ctx):
        buf = ctx.cuda.malloc(64 * KiB)
        if ctx.pe == 0:
            ev = ctx.isend(buf, 64 * KiB, 2, transport="staged")
        elif ctx.pe == 2:
            ev = ctx.irecv(buf, 32 * KiB, src=0)
        else:
            return None
        ev.defuse()
        yield ctx.sim.timeout(1e-3)
        return (ev.triggered and not ev.ok, "truncation" in str(ev.exception))

    res = _job().run(main)
    assert res.results[0] == (True, True)
    assert res.results[2] == (True, True)


def test_staged_chunk_failure_fails_the_receive():
    """A staged chunk whose RDMA write exhausts RC retries fails the
    message through the posted events instead of aborting the run.
    The sender already drained its buffer, so only the receiver sees
    the error."""

    def idle(ctx):
        yield ctx.sim.timeout(0)

    start = _job().run(idle).start_time
    plan = FaultPlan(seed=4).flap(
        at=start, down_for=usec(5000), node=1, kind="hca-port", direction="both"
    )
    job = ShmemJob(
        nodes=2, pes_per_node=2, design="enhanced-gdr", fault_plan=plan,
        params=wilkes_params(rc_timeout=usec(5), rc_retry_cnt=2),
    )

    def main(ctx):
        buf = ctx.cuda.malloc(2 * _CHUNK)
        ev = None
        if ctx.pe == 0:
            ev = ctx.isend(buf, 2 * _CHUNK, 2, transport="staged")
        elif ctx.pe == 2:
            ev = ctx.irecv(buf, 2 * _CHUNK, src=0)
        if ev is not None:
            ev.defuse()
        yield ctx.sim.timeout(0.05)  # outlast the flap before the closing quiet
        return None if ev is None else ev.exception

    res = job.run(main)
    assert res.results[0] is None
    assert isinstance(res.results[2], RetryExceeded)
