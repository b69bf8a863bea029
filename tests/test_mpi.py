"""Tests for the MPI communicator over the msg engine's staged transport."""

import pytest

from repro.errors import ShmemError
from repro.mpi import MpiComm
from repro.shmem import Domain, ShmemJob
from repro.units import KiB, MiB, to_usec


def run_mpi(nodes, program, pes_per_node=0, design="enhanced-gdr"):
    job = ShmemJob(nodes=nodes, design=design, pes_per_node=pes_per_node)
    return job.run(program), job


def test_send_recv_host_roundtrip():
    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc_host(1024)
        if ctx.my_pe() == 0:
            buf.fill(0x11, 1024)
            yield from comm.send(buf, 1024, dst=1)
            return None
        else:
            yield from comm.recv(buf, 1024, src=0)
            return buf.read(1024) == bytes([0x11]) * 1024

    res, _ = run_mpi(2, main, pes_per_node=1)
    assert res.results[1] is True


def test_send_recv_gpu_internode():
    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc(1 * MiB)
        if ctx.my_pe() == 0:
            buf.fill(0x22, 1 * MiB)
            yield from comm.send(buf, 1 * MiB, dst=1)
            return None
        else:
            yield from comm.recv(buf, 1 * MiB, src=0)
            return buf.read(1 * MiB) == bytes([0x22]) * (1 * MiB)

    res, job = run_mpi(2, main, pes_per_node=1)
    assert res.results[1] is True
    assert job.msg.rendezvous == 1
    assert [row[5] for row in job.msg.match_log] == ["staged"]


def test_send_recv_gpu_intranode():
    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc(64 * KiB)
        if ctx.my_pe() == 0:
            buf.fill(0x33, 64 * KiB)
            yield from comm.send(buf, 64 * KiB, dst=1)
            return None
        yield from comm.recv(buf, 64 * KiB, src=0)
        return buf.read(16) == bytes([0x33]) * 16

    res, _ = run_mpi(1, main)
    assert res.results[1] is True


def test_recv_posted_before_send():
    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc_host(64)
        if ctx.my_pe() == 1:
            yield from comm.recv(buf, 64, src=0)  # posted first
            return buf.read(3)
        yield from ctx.compute(1e-4)
        buf.write(b"abc")
        yield from comm.send(buf, 64, dst=1)
        return None

    res, _ = run_mpi(2, main, pes_per_node=1)
    assert res.results[1] == b"abc"


def test_tag_matching_separates_streams():
    def main(ctx):
        comm = MpiComm(ctx)
        a = ctx.cuda.malloc_host(8)
        b = ctx.cuda.malloc_host(8)
        if ctx.my_pe() == 0:
            a.write(b"tagAAAAA")
            b.write(b"tagBBBBB")
            # send tag 2 first, then tag 1
            yield from comm.send(b, 8, dst=1, tag=2)
            yield from comm.send(a, 8, dst=1, tag=1)
            return None
        # receive tag 1 first: must match the *second* send
        yield from comm.recv(a, 8, src=0, tag=1)
        yield from comm.recv(b, 8, src=0, tag=2)
        return (a.read(8), b.read(8))

    res, _ = run_mpi(2, main, pes_per_node=1)
    assert res.results[1] == (b"tagAAAAA", b"tagBBBBB")


def test_sendrecv_exchange():
    def main(ctx):
        comm = MpiComm(ctx)
        sbuf = ctx.cuda.malloc(4 * KiB)
        rbuf = ctx.cuda.malloc(4 * KiB)
        sbuf.fill(ctx.my_pe() + 1, 4 * KiB)
        peer = 1 - ctx.my_pe()
        yield from comm.sendrecv(sbuf, 4 * KiB, peer, rbuf, 4 * KiB, peer)
        return rbuf.read(8) == bytes([peer + 1]) * 8

    res, _ = run_mpi(2, main, pes_per_node=1)
    assert all(res.results)


def test_truncation_error():
    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc_host(128)
        if ctx.my_pe() == 0:
            yield from comm.send(buf, 128, dst=1)
        else:
            yield from comm.recv(buf, 64, src=0)  # too small

    job = ShmemJob(nodes=2, pes_per_node=1)
    with pytest.raises(ShmemError, match="truncation"):
        job.run(main)


def test_bad_peer_rejected():
    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc_host(8)
        yield from comm.send(buf, 8, dst=77)

    job = ShmemJob(nodes=1, pes_per_node=1)
    with pytest.raises(ShmemError, match="out of range"):
        job.run(main)


def test_rendezvous_blocks_sender_until_receiver_arrives():
    """Two-sided semantics: a large GPU send cannot complete before the
    receiver posts — the serialization one-sided puts remove."""

    def main(ctx):
        comm = MpiComm(ctx)
        buf = ctx.cuda.malloc(1 * MiB)
        if ctx.my_pe() == 0:
            t0 = ctx.now
            yield from comm.send(buf, 1 * MiB, dst=1)
            return ctx.now - t0
        yield from ctx.compute(2e-3)  # receiver shows up 2 ms late
        yield from comm.recv(buf, 1 * MiB, src=0)
        return None

    res, _ = run_mpi(2, main, pes_per_node=1)
    assert res.results[0] >= 2e-3


def test_one_sided_put_faster_than_sendrecv_for_halos():
    """The core of the §IV redesign, at the primitive level."""

    def shmem_version(ctx):
        sym = yield from ctx.shmalloc(256 * KiB, domain=Domain.GPU)
        src = ctx.cuda.malloc(256 * KiB)
        peer = 1 - ctx.my_pe()
        yield from ctx.barrier_all()
        t0 = ctx.now
        for _ in range(4):
            yield from ctx.putmem(sym, src, 256 * KiB, peer)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return ctx.now - t0

    def mpi_version(ctx):
        comm = MpiComm(ctx)
        sbuf = ctx.cuda.malloc(256 * KiB)
        rbuf = ctx.cuda.malloc(256 * KiB)
        peer = 1 - ctx.my_pe()
        yield from ctx.barrier_all()
        t0 = ctx.now
        for _ in range(4):
            yield from comm.sendrecv(sbuf, 256 * KiB, peer, rbuf, 256 * KiB, peer)
        yield from ctx.barrier_all()
        return ctx.now - t0

    t_shmem = ShmemJob(nodes=2, pes_per_node=1).run(shmem_version).results[0]
    t_mpi = ShmemJob(nodes=2, pes_per_node=1).run(mpi_version).results[0]
    assert t_shmem < t_mpi
