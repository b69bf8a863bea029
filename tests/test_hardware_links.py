"""Tests for links, transfer specs, and chunking."""

import pytest

from repro.errors import ConfigurationError, LinkDown
from repro.hardware.links import Link, TransferSpec, chunked
from repro.simulator import Simulator

from .helpers import on_both_paths


def test_transfer_spec_total_latency():
    sim = Simulator()
    link = Link(sim, "l")
    spec = TransferSpec(1000, setup=1.0)
    spec.add(link.fwd, 2.0, 500.0)  # 2 + 1000/500 = 4
    assert spec.total_latency() == pytest.approx(5.0)


@on_both_paths
def test_transfer_execute_charges_time(sim):
    link = Link(sim, "l")
    spec = TransferSpec(100, setup=0.5).add(link.fwd, 1.0, 100.0)

    def proc(sim):
        n = yield from spec.execute(sim)
        return (n, sim.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (100, pytest.approx(2.5))
    assert link.fwd.bytes_moved == 100
    assert link.fwd.transfers == 1


@on_both_paths
def test_link_direction_contention_serializes(sim):
    link = Link(sim, "l")
    done = []

    def proc(sim, name):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)  # 1s each
        yield from spec.execute(sim)
        done.append((name, sim.now))

    sim.process(proc(sim, "a"))
    sim.process(proc(sim, "b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


@on_both_paths
def test_link_directions_are_independent(sim):
    link = Link(sim, "l")
    done = []

    def proc(sim, name, forward):
        d = link.direction(forward)
        spec = TransferSpec(100).add(d, 0.0, 100.0)
        yield from spec.execute(sim)
        done.append((name, sim.now))

    sim.process(proc(sim, "fwd", True))
    sim.process(proc(sim, "rev", False))
    sim.run()
    assert done == [("fwd", 1.0), ("rev", 1.0)]


@on_both_paths
def test_link_capacity_gt_one_overlaps(sim):
    link = Link(sim, "l", capacity=2)
    done = []

    def proc(sim, name):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        yield from spec.execute(sim)
        done.append((name, sim.now))

    for name in ("a", "b"):
        sim.process(proc(sim, name))
    sim.run()
    assert done == [("a", 1.0), ("b", 1.0)]


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", capacity=0)


def test_zero_bandwidth_means_latency_only():
    sim = Simulator()
    link = Link(sim, "l")
    spec = TransferSpec(10_000).add(link.fwd, 3.0, 0.0)
    assert spec.total_latency() == pytest.approx(3.0)


@on_both_paths
def test_multi_hop_cut_through(sim):
    """Hops pipeline: latencies add, payload streams at the bottleneck."""
    a, b = Link(sim, "a"), Link(sim, "b")
    spec = TransferSpec(100).add(a.fwd, 1.0, 100.0).add(b.fwd, 1.0, 50.0)
    # 1 + 1 latency, 100 bytes at min(100, 50) B/s = 2s -> 4s total
    assert spec.bottleneck_bandwidth() == pytest.approx(50.0)
    assert spec.total_latency() == pytest.approx(4.0)

    def proc(sim):
        yield from spec.execute(sim)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(4.0)


def test_extend_merges_specs():
    sim = Simulator()
    a, b = Link(sim, "a"), Link(sim, "b")
    s1 = TransferSpec(100, setup=0.5).add(a.fwd, 1.0, 100.0)
    s2 = TransferSpec(100, setup=0.25).add(b.fwd, 1.0, 50.0)
    s1.extend(s2)
    assert s1.setup == pytest.approx(0.75)
    assert len(s1.segments) == 2
    with pytest.raises(ConfigurationError):
        s1.extend(TransferSpec(7))


@on_both_paths
def test_multi_hop_same_direction_counted_once(sim):
    """A path that crosses the same direction twice must not deadlock."""
    a = Link(sim, "a")
    spec = TransferSpec(100).add(a.fwd, 1.0, 100.0).add(a.fwd, 1.0, 100.0)

    def proc(sim):
        yield from spec.execute(sim)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(3.0)  # 2x latency + one bottleneck stream
    assert a.fwd.transfers == 1


@on_both_paths
def test_link_failure_injection(sim):
    link = Link(sim, "l")
    link.fwd.fail()
    assert link.fwd.is_down

    def proc(sim):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
        except LinkDown:
            return "down"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "down"
    link.fwd.repair()
    assert not link.fwd.is_down


@on_both_paths
def test_link_failure_mid_queue(sim):
    """A failure mid-hold kills the in-flight transfer (payload lost at
    the physical layer), and a transfer queued behind it sees the
    failure on grant."""
    link = Link(sim, "l")
    results = []

    def holder(sim):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append("holder-done")
        except LinkDown:
            results.append("holder-lost")

    def victim(sim):
        yield sim.timeout(0.1)
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append("victim-done")
        except LinkDown:
            results.append("victim-down")

    def saboteur(sim):
        yield sim.timeout(0.5)
        link.fwd.fail()

    sim.process(holder(sim))
    sim.process(victim(sim))
    sim.process(saboteur(sim))
    sim.run()
    assert results == ["holder-lost", "victim-down"]


@on_both_paths
def test_repair_does_not_resurrect_inflight_transfer(sim):
    """Repairing mid-transfer must not let a transfer that overlapped
    the down-window complete as if nothing happened: its payload was on
    the wire when the link dropped.  Transfers started after the repair
    succeed normally."""
    link = Link(sim, "l")
    results = []

    def holder(sim):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)  # 1.0 s hold
        try:
            yield from spec.execute(sim)
            results.append("holder-done")
        except LinkDown as exc:
            assert "mid-transfer" in str(exc)
            results.append(("holder-lost", sim.now))
        # A fresh attempt after the repair goes through cleanly.
        retry = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        yield from retry.execute(sim)
        results.append("retry-done")

    def flapper(sim):
        yield sim.timeout(0.3)
        link.fwd.fail()
        yield sim.timeout(0.3)
        link.fwd.repair()  # repaired at 0.6, well before the 1.0 s hold ends

    sim.process(holder(sim))
    sim.process(flapper(sim))
    sim.run()
    assert not link.fwd.is_down
    assert results == [("holder-lost", 1.0), "retry-done"]


@on_both_paths
def test_label_scoped_failure(sim):
    """A labelled failure only downs transfers whose label matches the
    prefix; other traffic on the same direction keeps flowing."""
    link = Link(sim, "l")
    link.fwd.fail("gdrP2P")
    assert link.fwd.blocks("gdrP2Pwrite")
    assert link.fwd.blocks("gdrP2Pread")
    assert not link.fwd.blocks("cudaMemcpyH2D")
    results = []

    def memcpy(sim):
        spec = TransferSpec(100, label="cudaMemcpyH2D").add(link.fwd, 0.0, 100.0)
        yield from spec.execute(sim)
        results.append("memcpy-done")

    def gdr(sim):
        spec = TransferSpec(100, label="gdrP2Pwrite").add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append("gdr-done")
        except LinkDown:
            results.append("gdr-down")

    sim.process(memcpy(sim))
    sim.process(gdr(sim))
    sim.run()
    assert sorted(results) == ["gdr-down", "memcpy-done"]
    # Overlapping windows nest: two fails need two repairs.
    link.fwd.fail("gdrP2P")
    link.fwd.repair("gdrP2P")
    assert link.fwd.blocks("gdrP2Pwrite")
    link.fwd.repair("gdrP2P")
    assert not link.fwd.blocks("gdrP2Pwrite")


# ------------------------------------------------------------------ chunked
def test_chunked_exact_division():
    assert list(chunked(1024, 256)) == [256, 256, 256, 256]


def test_chunked_remainder():
    assert list(chunked(1000, 256)) == [256, 256, 256, 232]


def test_chunked_small_message():
    assert list(chunked(8, 256)) == [8]


def test_chunked_zero_bytes():
    assert list(chunked(0, 256)) == []


def test_chunked_invalid_chunk():
    with pytest.raises(ConfigurationError):
        chunked(100, 0)
