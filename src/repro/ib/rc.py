"""IB RC reliability: per-QP retransmission with exponential backoff.

Real ConnectX HCAs retransmit a reliable-connection work request when
the remote ack does not arrive within the QP's local-ack timeout, up to
``retry_cnt`` (a 3-bit field, max 7) attempts, then complete the WR
with ``RETRY_EXC_ERR``.  :class:`RCTransport` models that loop at the
:class:`~repro.hardware.links.TransferSpec` granularity: a transfer
that observes a link failure is re-executed after a backed-off timeout,
**re-pricing the wire crossing** — each attempt charges the full
contended path time, so timing stays physical under faults.

The transport is only attached (``Verbs.rc``) when a
:class:`repro.faults.FaultPlan` is active; without it every spec runs
through the plain single-attempt path and the simulation is
bit-identical to a build without this module.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.errors import LinkDown, RetryExceeded
from repro.hardware.hca import HCA
from repro.hardware.links import TransferSpec
from repro.hardware.params import HardwareParams
from repro.simulator import Simulator


class RCTransport:
    """Reliable-connection retry engine shared by all QPs of a job."""

    def __init__(
        self,
        sim: Simulator,
        params: HardwareParams,
        health=None,
    ):
        self.sim = sim
        self.retry_cnt = params.rc_retry_cnt
        self.timeout = params.rc_timeout
        self.backoff = params.rc_backoff
        #: Optional :class:`repro.faults.health.HealthTracker` fed with
        #: per-path retry/failure/success observations.
        self.health = health
        #: Per-direction retransmission tally (diagnostics/reporting).
        self.retries_by_path: Dict[str, int] = {}

    def execute(self, spec: TransferSpec, hca: Optional[HCA] = None) -> Generator:
        """Run ``spec`` with RC retry semantics.

        ``hca`` is the adapter whose send queue carries the WR; an
        injected stall on it delays (each attempt of) the transfer, the
        queue-drain behaviour stalled firmware exhibits.
        """
        sim = self.sim
        attempt = 0
        # Span ledger: how many times this WR actually held the wire
        # (recorded its link-hold spans).  A successful attempt holds
        # once; an in-flight loss held the wire before failing; an
        # acquire-time loss never held it.  One ``rdma_write`` call
        # opens one span but holds once *per wire crossing*, so the surplus
        # (retransmitted holds) and the deficit (zero-hold aborts) are
        # tallied here — the single place both asymmetries originate —
        # for the span-parity oracle to reconcile.
        holds = 0
        is_write = spec.label == "rdma_write"
        while True:
            if hca is not None:
                wait = hca.stall_remaining(sim.now)
                if wait > 0.0:
                    sim.stats.hca_stalls += 1
                    yield sim.timeout(wait, name="rc:hca-stall")
            try:
                result = yield from spec.execute(sim)
            except LinkDown as exc:
                attempt += 1
                sim.stats.retries += 1
                if exc.in_flight:
                    holds += 1
                direction = exc.direction
                if direction is not None:
                    name = direction.name
                    self.retries_by_path[name] = self.retries_by_path.get(name, 0) + 1
                    if self.health is not None:
                        self.health.record_retry(name, sim.now)
                if attempt > self.retry_cnt:
                    if self.health is not None and direction is not None:
                        self.health.record_failure(direction.name, sim.now)
                    if is_write:
                        if holds == 0:
                            sim.stats.rc_aborted_wrs += 1
                        elif holds > 1:
                            sim.stats.rc_retx_holds += holds - 1
                    raise RetryExceeded(
                        f"{spec.label}: {attempt} attempts exhausted "
                        f"retry_cnt={self.retry_cnt} ({exc})",
                        attempts=attempt,
                        direction=direction,
                    ) from exc
                delay = self.timeout * self.backoff ** (attempt - 1)
                yield sim.timeout(delay, name="rc:backoff")
                continue
            holds += 1
            if is_write and holds > 1:
                sim.stats.rc_retx_holds += holds - 1
            if self.health is not None:
                now = sim.now
                for d in spec.directions():
                    self.health.record_success(d.name, now)
            return result
