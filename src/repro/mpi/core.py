"""Per-PE MPI communicator over the msg engine's staged transport."""

from __future__ import annotations

from typing import Generator

from repro.cuda.memory import Ptr
from repro.simulator import Event


class MpiComm:
    """Per-PE two-sided API (a tiny mpi4py-flavoured surface).

    Every message is a :class:`~repro.msg.MsgEngine` message on the
    ``"staged"`` transport, so matching, truncation checks, spans and
    counters are the msg engine's.  The posts bypass the context's
    runtime service gate: MPI progress is not SHMEM progress.
    """

    def __init__(self, ctx):
        self.rank = ctx.pe
        self.size = ctx.npes
        self.msg = ctx.job.msg
        self.sim = ctx.job.sim
        self.dispatch = ctx.job.params.shmem_dispatch_overhead

    def isend(self, buf: Ptr, nbytes: int, dst: int, tag: int = 0) -> Event:
        """Non-blocking send; the returned event fires when the send
        buffer is reusable.

        Small host-resident messages take the *eager* path: the payload
        is snapshotted at post time and the send completes immediately,
        matching MPI eager-protocol semantics (and making out-of-order
        tag matching deadlock-free, as in real MPI)."""
        return self.msg.isend(self.rank, buf, nbytes, dst, tag, transport="staged")

    def irecv(self, buf: Ptr, nbytes: int, src: int, tag: int = 0) -> Event:
        """Non-blocking recv; the returned event fires on delivery."""
        return self.msg.irecv(self.rank, buf, nbytes, src, tag)

    def send(self, buf: Ptr, nbytes: int, dst: int, tag: int = 0) -> Generator:
        """Blocking send (returns when the buffer is reusable)."""
        ev = self.isend(buf, nbytes, dst, tag)
        yield self.sim.timeout(self.dispatch)
        yield ev
        return None

    def recv(self, buf: Ptr, nbytes: int, src: int, tag: int = 0) -> Generator:
        """Blocking receive."""
        ev = self.irecv(buf, nbytes, src, tag)
        yield self.sim.timeout(self.dispatch)
        yield ev
        return None

    def sendrecv(
        self,
        sendbuf: Ptr,
        send_nbytes: int,
        dst: int,
        recvbuf: Ptr,
        recv_nbytes: int,
        src: int,
        tag: int = 0,
    ) -> Generator:
        """Simultaneous send+recv, the halo-exchange staple."""
        sev = self.isend(sendbuf, send_nbytes, dst, tag)
        rev = self.irecv(recvbuf, recv_nbytes, src, tag)
        yield self.sim.timeout(self.dispatch)
        yield self.sim.all_of([sev, rev])
        return None
