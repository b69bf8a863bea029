"""Timed, contended point-to-point links.

A :class:`Link` has two independent directions, each serialized by a
FIFO :class:`~repro.simulator.resources.Resource`.  A transfer holds
its direction for ``latency + nbytes / bandwidth`` (store-and-forward
per modeled hop; protocols that want pipelining chunk their transfers
explicitly, exactly like the real runtimes do).

:class:`TransferSpec` is the unit the topology layers hand back: a
latency, an effective bandwidth, and the set of link directions the
transfer must occupy.  ``TransferSpec.execute`` is the single code path
through which *all* simulated data movement charges time, so failure
injection, tracing and the choice of the analytic replay
(:class:`AnalyticTransfer`) hook in here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, LinkDown
from repro.simulator import Event, Resource, Simulator


class LinkDirection:
    """One direction of a duplex link.

    Failure injection supports two scopes:

    * ``fail()`` downs the direction for *all* traffic — the physical
      wire is dead;
    * ``fail(label="gdrP2P")`` blocks only transfers whose spec label
      starts with the given prefix.  This models faults that kill one
      *access path* over a shared physical link: e.g. the HCA's PCIe
      peer-to-peer/BAR window into a GPU can wedge (blocking
      ``gdrP2Pread``/``gdrP2Pwrite``) while the GPU's own DMA engines
      keep serving ``cudaMemcpy`` traffic over the same slot — exactly
      the situation where the runtime should fail over to the
      host-staged pipeline.

    Every ``fail()`` is also appended to a per-direction *failure log*;
    an in-flight transfer records the log position when it acquires the
    wire and re-checks it when its hold ends, so a failure window that
    overlaps the transfer loses the payload even if ``repair()`` ran
    before the completion instant (a repaired link does not resurrect
    bits that were on the wire when it dropped).
    """

    __slots__ = (
        "link",
        "tag",
        "resource",
        "bytes_moved",
        "transfers",
        "_down",
        "_blocked",
        "_fail_log",
    )

    def __init__(self, link: "Link", tag: str, capacity: int):
        self.link = link
        self.tag = tag
        self.resource = Resource(link.sim, capacity=capacity, name=f"{link.name}:{tag}")
        self.bytes_moved = 0
        self.transfers = 0
        self._down = False
        #: label-prefix -> active fail count (overlapping windows nest).
        self._blocked: dict = {}
        #: Every fail() appends its label (None = whole direction); see
        #: :meth:`TransferSpec.execute` for the mid-flight check.
        self._fail_log: List[Optional[str]] = []

    @property
    def name(self) -> str:
        return f"{self.link.name}:{self.tag}"

    @property
    def is_down(self) -> bool:
        return self._down

    def fail(self, label: Optional[str] = None) -> None:
        """Failure injection: matching transfers raise :class:`LinkDown`.

        ``label`` restricts the failure to transfers whose spec label
        starts with that prefix; ``None`` downs the direction entirely.
        """
        if label is None:
            self._down = True
        else:
            self._blocked[label] = self._blocked.get(label, 0) + 1
        self._fail_log.append(label)

    def repair(self, label: Optional[str] = None) -> None:
        """Undo a :meth:`fail` of the same scope.

        Repairing only re-opens the direction for *new* transfers; a
        transfer that was in flight when the failure hit still observes
        it at the end of its hold (see the failure log above).
        """
        if label is None:
            self._down = False
            self._blocked.clear()
            return
        n = self._blocked.get(label, 0) - 1
        if n > 0:
            self._blocked[label] = n
        else:
            self._blocked.pop(label, None)

    def blocks(self, label: str) -> bool:
        """Would a transfer labelled ``label`` be refused right now?"""
        if self._down:
            return True
        if self._blocked:
            for prefix in self._blocked:
                if label.startswith(prefix):
                    return True
        return False

    def failed_since(self, mark: int, label: str) -> bool:
        """Did a failure applying to ``label`` occur after log position
        ``mark``?  (True even if the direction has been repaired.)"""
        for prefix in self._fail_log[mark:]:
            if prefix is None or label.startswith(prefix):
                return True
        return False

    @property
    def fail_mark(self) -> int:
        """Current failure-log position (pass to :meth:`failed_since`)."""
        return len(self._fail_log)


class Link:
    """A duplex link with per-direction serialization.

    ``capacity`` > 1 models links that can carry several concurrent
    transfers at full rate each (used for the abstracted IB switch
    ports, where per-flow bandwidth is enforced by the HCA, not the
    wire).
    """

    def __init__(self, sim: Simulator, name: str, capacity: int = 1):
        if capacity < 1:
            raise ConfigurationError(f"link capacity must be >= 1: {name}")
        self.sim = sim
        self.name = name
        self.fwd = LinkDirection(self, "fwd", capacity)
        self.rev = LinkDirection(self, "rev", capacity)

    def direction(self, forward: bool) -> LinkDirection:
        return self.fwd if forward else self.rev

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name}>"


@dataclass
class TransferSpec:
    """A fully-resolved timed transfer: where the time is charged.

    ``segments`` is an ordered list of ``(direction, latency, bandwidth)``
    hops.  Hops are traversed store-and-forward; most protocol steps in
    this reproduction resolve to a single hop with an *effective*
    bandwidth (see DESIGN.md §2) because the paper's own bottleneck
    numbers (Table III) are end-to-end effective rates.
    """

    nbytes: int
    segments: List[Tuple[LinkDirection, float, float]] = field(default_factory=list)
    #: Fixed software time charged before the first hop (post overheads).
    setup: float = 0.0
    #: Human-readable protocol tag, surfaced in traces and tests.
    label: str = "transfer"
    #: Per-direction labels preserved across :meth:`extend` merges, so a
    #: label-scoped failure (e.g. ``"gdrP2P"``) still matches the GDR
    #: leg of a composite path relabelled ``"rdma_write"``.
    leg_labels: Dict[int, str] = field(default_factory=dict)

    def add(self, direction: LinkDirection, latency: float, bandwidth: float) -> "TransferSpec":
        self.segments.append((direction, latency, bandwidth))
        return self

    def extend(self, other: "TransferSpec") -> "TransferSpec":
        """Concatenate another spec's hops (and setup) onto this one.

        Each side's directions remember the label they were built under
        (first label wins for a direction both sides cross)."""
        if other.nbytes != self.nbytes:
            raise ConfigurationError(
                f"cannot merge specs of different sizes ({self.nbytes} vs {other.nbytes})"
            )
        for d, _lat, _bw in self.segments:
            self.leg_labels.setdefault(id(d), self.label)
        for key, lbl in other.leg_labels.items():
            self.leg_labels.setdefault(key, lbl)
        for d, _lat, _bw in other.segments:
            self.leg_labels.setdefault(id(d), other.label)
        self.setup += other.setup
        self.segments.extend(other.segments)
        return self

    def leg_label(self, direction: LinkDirection) -> str:
        """The label failure scoping applies to ``direction``."""
        return self.leg_labels.get(id(direction), self.label) if self.leg_labels else self.label

    def bottleneck_bandwidth(self) -> float:
        """Slowest hop's bandwidth (0.0 when every hop is latency-only)."""
        rates = [bw for _d, _lat, bw in self.segments if bw > 0]
        return min(rates) if rates else 0.0

    def total_latency(self) -> float:
        """Uncontended end-to-end duration.

        Hops are *pipelined* (cut-through), as real DMA engines and HCAs
        are: latencies add, but the payload streams at the bottleneck
        hop's rate rather than paying every hop's serialization.
        """
        t = self.setup + sum(lat for _d, lat, _bw in self.segments)
        bw = self.bottleneck_bandwidth()
        if bw > 0:
            t += self.nbytes / bw
        return t

    def duration(self) -> float:
        """The held time of :meth:`execute` (everything after ``setup``).

        The analytic fast paths replay :meth:`execute` in closed form, so
        this must perform the *same float operations in the same order*
        as the event-accurate path — down to the last ulp.
        """
        duration = sum(lat for _d, lat, _bw in self.segments)
        bw = self.bottleneck_bandwidth()
        if bw > 0:
            duration += self.nbytes / bw
        return duration

    def directions(self) -> List[LinkDirection]:
        """The deduplicated hop directions, in global acquisition order."""
        out: List[LinkDirection] = []
        seen = set()
        for d, _lat, _bw in self.segments:
            if id(d) not in seen:
                seen.add(id(d))
                out.append(d)
        out.sort(key=lambda d: d.name)
        return out

    def count_transfer(self) -> None:
        """Bump per-direction byte/transfer counters for one execution."""
        for d in self.directions():
            d.bytes_moved += self.nbytes
            d.transfers += 1

    def execute(self, sim: Simulator) -> Generator:
        """Run the transfer (cut-through across hops).

        All hop directions are acquired in a global deterministic order
        (no deadlock between overlapping paths), held for the pipelined
        duration, then released together.

        Failure semantics: a transfer raises :class:`LinkDown` when a
        matching failure is active at request or grant time, **and**
        when a failure window overlapped its hold — even if the link was
        repaired before the completion instant, the bytes that were in
        flight are lost (time was charged; the payload was not
        delivered).  The retry layer re-executes the spec, re-pricing
        the wire crossing.

        When :attr:`Simulator.analytic_ok` holds, the same timeline is
        replayed by an :class:`AnalyticTransfer` instead (counted in
        ``analytic_flows``); this is the one place that choice is made
        for every spec-driven crossing.
        """
        if sim.analytic_ok:
            hold = AnalyticTransfer(sim, self)
            if hold.boot_exc is not None:
                # The event path raises before its first yield, in the
                # caller's frame; so does the replay.
                raise hold.boot_exc
            sim.stats.analytic_flows += 1
            return (yield hold.completion)
        if self.setup:
            yield sim.timeout(self.setup, name=f"{self.label}:setup")
        directions = self.directions()
        granted = []
        try:
            for d in directions:
                if d.blocks(self.leg_label(d)):
                    raise LinkDown(f"link direction {d.name} is down", direction=d)
                req = d.resource.request()
                yield req
                granted.append((d, req))
                if d.blocks(self.leg_label(d)):
                    raise LinkDown(f"link direction {d.name} went down", direction=d)
            marks = [(d, d.fail_mark) for d in directions]
            hold_start = sim.now
            yield sim.timeout(self.duration(), name=self.label)
            tracer = sim.tracer
            if tracer is not None:
                # One completed crossing per hop direction, recorded
                # post-hoc so the span costs nothing on the timed path.
                # ``leg`` numbers the directions of this one hold, so
                # ``leg == 0`` spans count holds.
                for leg, d in enumerate(directions):
                    tracer.complete(
                        sim, self.label, "link", f"link:{d.name}",
                        hold_start, nbytes=self.nbytes, leg=leg,
                    )
            for d, mark in marks:
                if d.failed_since(mark, self.leg_label(d)):
                    raise LinkDown(
                        f"link direction {d.name} failed mid-transfer; payload lost",
                        direction=d,
                        in_flight=True,
                    )
            for d in directions:
                d.bytes_moved += self.nbytes
                d.transfers += 1
        finally:
            for d, req in granted:
                d.resource.release(req)
        return self.nbytes


class AnalyticTransfer:
    """Callback-driven closed-form replay of one :meth:`TransferSpec.execute`.

    :meth:`TransferSpec.execute` commits one of these (and yields
    :attr:`completion`) whenever :attr:`Simulator.analytic_ok` holds;
    :class:`AnalyticFlow` builds one for the hold of a replayed put.
    The replay acquires the very same FIFO resources at the same
    instants as the generator would — contended windows price
    themselves bit-identically — but elides the per-hop generator
    resumes and the setup/hold ``Timeout`` allocations, scheduling its
    instants as absolute wake-ups on the scheduler heap instead.

    Failure semantics mirror ``execute`` exactly: a matching failure at
    request or grant time, or a failure window overlapping the hold,
    fails :attr:`completion` with the same :class:`LinkDown` the
    generator would raise, at the same instant (the caller's ``yield``
    re-raises it).  A failure before the first scheduler step lands in
    :attr:`boot_exc` for the caller to raise in its own frame.
    """

    __slots__ = (
        "sim",
        "spec",
        "dirs",
        "duration",
        "completion",
        "_granted",
        "_marks",
        "_idx",
        "_dead",
        "_booting",
        "boot_exc",
        "contended",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: TransferSpec,
        dirs: Optional[Sequence[LinkDirection]] = None,
        duration: Optional[float] = None,
    ):
        self.sim = sim
        self.spec = spec
        # A caller may pass the spec's (topology-pure, hence cacheable)
        # acquisition order and pipelined duration.
        self.dirs = spec.directions() if dirs is None else dirs
        self.duration = spec.duration() if duration is None else duration
        self.completion = Event(sim, name="an-x:done")
        self._granted: List[Tuple[LinkDirection, object]] = []
        self._marks: List[Tuple[LinkDirection, int]] = []
        self._idx = 0
        self._dead = False
        self.boot_exc: Optional[BaseException] = None
        self.contended = False
        if spec.setup:
            self._booting = False
            w = sim.wake_at(sim.now + spec.setup, name="an-x:setup")
            w.callbacks.append(self._acquire)
        else:
            # No setup leg: ``execute`` requests synchronously at the
            # current instant, so we do too.
            self._booting = True
            self._acquire(None)
            self._booting = False

    def _fire(self, value=None, exc: Optional[BaseException] = None) -> None:
        """Trigger ``completion`` the way the event path would resume
        its caller: synchronously, inside the current pop, when a
        waiter is already attached (the generator continues within the
        duration-timeout callback); through the scheduler otherwise."""
        c = self.completion
        if c._triggered:
            return
        if c.callbacks:
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
        if self._booting:
            self.boot_exc = exc
            return
        self._fire(exc=exc)

    def _acquire(self, ev: Optional[Event]) -> None:
        # One resource request per scheduler step: re-entries arrive
        # from each request's own pop, granted or queued, matching the
        # generator's ``yield req`` cadence.  Chaining consecutive
        # immediate grants inline here would jump ahead of same-instant
        # parties whose resumes already sat in the ready queue, flipping
        # a FIFO grant on a shared direction once three or more flows
        # contend.
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
        end = sim.wake_at(sim.now + self.duration, name="an-x:end")
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
        nbytes = spec.nbytes
        for d in self.dirs:
            d.bytes_moved += nbytes
            d.transfers += 1
        for d, req in self._granted:
            d.resource.release(req)
        self._granted = []
        # Fired synchronously: the event path's caller resumes inside
        # the hold-timeout pop (``yield from`` has no process hop), so
        # its post-copy actions run *before* the released waiters' grant
        # events — the sync fire preserves that order.
        self._fire(value=nbytes)


class AnalyticFlow:
    """Closed-form replay of one signaled RDMA write, dispatch included.

    The runtime's put commit (``Runtime._fast_rdma_put``) replays a
    whole single-RDMA put without a ``Process``: this is the envelope
    ``Verbs.rdma_write`` wraps around its hold, as absolutely-timed
    wake-ups performing the same float operations in the same order:

    * ``t_post = base + post_overhead``: payload snapshotted,
      :attr:`posted` fires (the put-return instant the caller yields
      on), source HCA tx counted, and the hold committed as an
      :class:`AnalyticTransfer` over ``spec`` (setup, FIFO acquisition,
      pipelined duration, ``LinkDown`` surfacing);
    * hold end: target HCA rx counted, payload written, delivery
      notified;
    * ``t_ack = t_end + ack_latency``: :attr:`completion` fires with the
      byte count (what ``shmem_quiet`` waits on).

    Any failure (a source read racing a free, a link lost under the
    hold) fails :attr:`completion` — and :attr:`posted`, if still
    pending — at the instant the event path's process would have died.
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
        "posted",
        "completion",
        "payload",
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
        notify: Callable[[], None],
        dirs: Sequence[LinkDirection],
        duration: float,
    ):
        self.sim = sim
        self.spec = spec
        self.dirs = dirs
        self.duration = duration
        self.src = src
        self.dst_ptr = dst_ptr
        self.nbytes = nbytes
        self.ack_latency = ack_latency
        self.src_hca = src_hca
        self.dst_hca = dst_hca
        self.notify = notify
        self.posted = Event(sim, name="an:posted")
        self.completion = Event(sim, name="an-flow:done")
        self.payload: Optional[bytes] = None
        w = sim.wake_at(base + post_overhead, name="an:post")
        w.callbacks.append(self._at_posted)

    def _at_posted(self, _ev: Event) -> None:
        sim = self.sim
        try:
            self.payload = self.src.read(self.nbytes)
        except BaseException as exc:  # surfaces where the event path's would
            self.completion.fail(exc)
            # The caller's pending resume defuses and re-raises, as
            # _bridge_failure does for the event path's gate.
            self.posted.fail(exc)
            return
        self.posted.succeed(sim.now)
        self.src_hca.count_tx()
        hold = AnalyticTransfer(sim, self.spec, self.dirs, self.duration)
        if hold.boot_exc is not None:
            self.completion.fail(hold.boot_exc)
            return
        hold.completion.callbacks.append(self._landed)

    def _landed(self, ev: Event) -> None:
        if ev._exc is not None:
            ev.defuse()
            self.completion.fail(ev._exc)
            return
        sim = self.sim
        self.dst_hca.count_rx()
        try:
            self.dst_ptr.write(self.payload)
        except BaseException as exc:
            self.completion.fail(exc)
            return
        delivered = Event(sim, name="an:delivered")
        delivered.callbacks.append(self._deliver)
        delivered.succeed(sim.now)
        ack = sim.wake_at(sim.now + self.ack_latency, name="an:ack")
        ack.callbacks.append(self._complete)

    def _deliver(self, _ev: Event) -> None:
        self.notify()

    def _complete(self, _ev: Event) -> None:
        self.completion.succeed(self.nbytes)


def chunked(nbytes: int, chunk: int) -> Sequence[int]:
    """Split a transfer into pipeline chunks (last may be short)."""
    if chunk <= 0:
        raise ConfigurationError(f"chunk must be positive, got {chunk}")
    if nbytes < 0:
        raise ConfigurationError(f"cannot chunk a negative byte count: {nbytes}")
    if nbytes == 0:
        return []
    full, rem = divmod(nbytes, chunk)
    sizes = [chunk] * full
    if rem:
        sizes.append(rem)
    return sizes
