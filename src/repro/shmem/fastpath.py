"""Closed-form replay of single signaled RDMA writes.

The event path runs one ``rdma_write`` as a generator: a process per
put, a resume per hop request, and a ``Timeout`` per dispatch, post,
setup and hold.  :class:`AnalyticFlow` replays that timeline with a
handful of absolutely-timed wake-ups chained through resource-grant
callbacks.  It performs the same float operations in the same order as
the event path (``TransferSpec.duration()`` exists for exactly this
reason), so its schedule is bit-identical; ``tests/test_fastpath.py``
runs every scenario with ``sim.fastpath`` on and off to hold it to
that standard.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import LinkDown
from repro.hardware.links import LinkDirection, TransferSpec
from repro.simulator import Event, Simulator


class AnalyticFlow:
    """Callback-driven closed-form replay of one signaled RDMA write.

    It does *not* require idle links.  The flow acquires the very same
    FIFO ``Resource`` slots the event path would — hop directions
    requested in the same global
    order, queued grants arriving at the same FIFO hand-off instants,
    all holds released together at the end of the pipelined window — so
    a link shared by N concurrent flows prices its bandwidth-sharing
    schedule (the sorted sequence of grant/complete windows over the
    active-flow set) exactly as the event-by-event engine does, down to
    the last ulp.  What the closed form elides is the *machinery*: no
    ``Process`` wrapping a generator per put, no per-hop generator
    resumes, no dispatch/lookup/post/setup ``Timeout`` allocations —
    only a handful of absolutely-timed wake-ups on the scheduler heap,
    chained through resource-grant callbacks.

    Timeline (same float operations in the same order as
    ``Verbs.rdma_write`` + ``TransferSpec.execute``):

    * ``t_post = base + rdma_post_overhead`` — payload snapshotted,
      source HCA tx counted, ``posted`` fires (the put-return instant
      the caller yields on);
    * ``t_req = t_post + path.setup`` — hop directions requested in
      global acquisition order; a queued request suspends the
      acquisition exactly where the event-path generator would block,
      resuming in the holder's release callback;
    * ``t_end = last_grant + path.duration()`` — per-direction byte
      and transfer counters bumped, holds released (waking queued
      flows/processes URGENT, as ``execute``'s ``finally`` does),
      payload written, target HCA rx counted, delivery notified;
    * ``t_ack = t_end + rdma_ack_latency`` — ``completion`` fires with
      the byte count (what ``shmem_quiet`` waits on).

    Any exception in a timed callback (e.g. a source read racing a
    free) fails ``posted``/``completion`` at the instant the event
    path's process would have died, so error surfacing is preserved.
    The commit sites gate hard — :attr:`Simulator.analytic_ok` (fast
    paths on, no faults, no tracer), no health tracker, no RC
    transport — and decline on any
    setup-time validation error so the event path raises at the
    accurate instant.
    """

    __slots__ = (
        "sim",
        "spec",
        "dirs",
        "duration",
        "src",
        "dst_ptr",
        "nbytes",
        "ack_latency",
        "src_hca",
        "dst_hca",
        "notify",
        "ext_posted",
        "ext_delivered",
        "completion",
        "sync_complete",
        "posted",
        "payload",
        "_granted",
        "_marks",
        "_idx",
        "_dead",
        "contended",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: TransferSpec,
        src,
        dst_ptr,
        nbytes: int,
        base: float,
        post_overhead: float,
        ack_latency: float,
        src_hca,
        dst_hca,
        notify: Optional[Callable[[], None]],
        dirs: Optional[Sequence[LinkDirection]] = None,
        duration: Optional[float] = None,
        posted_ev: Optional[Event] = None,
        delivered_ev: Optional[Event] = None,
        gate: bool = False,
        sync_complete: bool = False,
    ):
        self.sim = sim
        self.spec = spec
        # The commit site may pass the spec's (topology-pure, hence
        # cacheable) acquisition order and pipelined duration to avoid
        # recomputing them per flow.
        self.dirs = spec.directions() if dirs is None else dirs
        self.duration = spec.duration() if duration is None else duration
        self.src = src
        self.dst_ptr = dst_ptr
        self.nbytes = nbytes
        self.ack_latency = ack_latency
        self.src_hca = src_hca
        self.dst_hca = dst_hca
        self.notify = notify
        # External gate events (the ``posted``/``delivered`` arguments
        # of ``Verbs.rdma_write``), succeeded at the same instants the
        # event path would succeed them.
        self.ext_posted = posted_ev
        self.ext_delivered = delivered_ev
        self.completion = Event(sim, name="an-flow:done")
        # The event path's caller resumes *synchronously* at the ack
        # instant when the write was inlined via ``yield from`` (the
        # verbs commit); it resumes one scheduler push later when the
        # completion is a spawned ``Process`` event (the putmem commit,
        # where ``_do_succeed`` pushes at NORMAL).  The flag picks the
        # matching delivery so same-instant tie order is preserved.
        self.sync_complete = sync_complete
        # ``gate`` requests a caller-facing posted event succeeded with
        # a scheduler push at t_post — the same extra hop the event
        # path's ``posted.succeed`` inserts before the caller resumes.
        self.posted: Optional[Event] = Event(sim, name="an:posted") if gate else None
        self.payload: Optional[bytes] = None
        self._granted: List[Tuple[LinkDirection, object]] = []
        self._marks: List[Tuple[LinkDirection, int]] = []
        self._idx = 0
        self._dead = False
        self.contended = False
        t_post = base + post_overhead
        w = sim.wake_at(t_post, name="an:post")
        w.callbacks.append(self._at_posted)

    def _fire(self, value=None, exc: Optional[BaseException] = None) -> None:
        """Trigger ``completion`` like the event path would reach its
        caller: synchronously inside the current pop when a waiter is
        attached (``yield from`` continues within the ack-timeout
        callback), via the scheduler otherwise."""
        c = self.completion
        if c._triggered:
            return
        if self.sync_complete and c.callbacks:
            c._triggered = True
            if exc is not None:
                c._exc = exc
            else:
                c._value = value
            c._run_callbacks()
        elif exc is not None:
            c.fail(exc)
        else:
            c.succeed(value)

    def _die(self, exc: BaseException) -> None:
        self._dead = True
        for d, req in self._granted:
            d.resource.release(req)
        self._granted = []
        self._fire(exc=exc)

    def _at_posted(self, _ev: Event) -> None:
        sim = self.sim
        try:
            self.payload = self.src.read(self.nbytes)
        except BaseException as exc:  # surfaces where the event path's would
            self._die(exc)
            gate = self.posted
            if gate is not None and not gate._triggered:
                # The caller's pending resume defuses and re-raises,
                # mirroring _bridge_failure on the event path's gate.
                gate.fail(exc)
            return
        gate = self.posted
        if gate is not None:
            gate.succeed(sim.now)
        ext = self.ext_posted
        if ext is not None and not ext._triggered:
            ext.succeed(sim.now)
        self.src_hca.count_tx()
        # Allocated here — not at commit — so its scheduler sequence
        # number is drawn at the same instant the event path allocates
        # its setup timeout (tie order among same-instant events).
        req = sim.wake_at(sim.now + self.spec.setup, name="an:req")
        req.callbacks.append(self._acquire)

    def _acquire(self, ev: Event) -> None:
        # First entry arrives from the t_req wake-up; re-entries arrive
        # from each request's own pop — granted or queued — so the flow
        # takes exactly one resource request per scheduler step, the
        # same cadence as the generator it replays (which yields after
        # *every* ``request()``, immediate grant or not).  Chaining
        # consecutive immediate grants inline here would jump ahead of
        # same-instant parties whose resumes already sat in the ready
        # queue, flipping a FIFO grant on a shared direction once three
        # or more flows contend.
        if self._dead:
            return
        dirs = self.dirs
        spec = self.spec
        granted = self._granted
        i = self._idx
        if i and granted:
            d = dirs[i - 1]
            if d.blocks(spec.leg_label(d)):
                self._die(LinkDown(f"link direction {d.name} went down", direction=d))
                return
        if i < len(dirs):
            d = dirs[i]
            if d.blocks(spec.leg_label(d)):
                self._die(LinkDown(f"link direction {d.name} is down", direction=d))
                return
            req = d.resource.request()
            granted.append((d, req))
            self._idx = i + 1
            if not req._triggered and not self.contended:
                self.contended = True
                self.sim.stats.contended_windows += 1
            req.callbacks.append(self._acquire)
            return
        self._marks = [(d, d.fail_mark) for d in dirs]
        sim = self.sim
        end = sim.wake_at(sim.now + self.duration, name="an:end")
        end.callbacks.append(self._finish)

    def _finish(self, _ev: Event) -> None:
        if self._dead:
            return
        spec = self.spec
        for d, mark in self._marks:
            if d.failed_since(mark, spec.leg_label(d)):
                self._die(
                    LinkDown(
                        f"link direction {d.name} failed mid-transfer; payload lost",
                        direction=d,
                        in_flight=True,
                    )
                )
                return
        nbytes = self.nbytes
        for d in self.dirs:
            d.bytes_moved += nbytes
            d.transfers += 1
        for d, req in self._granted:
            d.resource.release(req)
        self._granted = []
        self.dst_hca.count_rx()
        sim = self.sim
        try:
            self.dst_ptr.write(self.payload)
        except BaseException as exc:
            self._die(exc)
            return
        if self.notify is not None:
            delivered = Event(sim, name="an:delivered")
            delivered.callbacks.append(self._deliver)
            delivered.succeed(sim.now)
        ext = self.ext_delivered
        if ext is not None and not ext._triggered:
            ext.succeed(sim.now)
        ack = sim.wake_at(sim.now + self.ack_latency, name="an:ack")
        ack.callbacks.append(self._complete)

    def _deliver(self, _ev: Event) -> None:
        self.notify()

    def _complete(self, _ev: Event) -> None:
        self._fire(value=self.nbytes)
