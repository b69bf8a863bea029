"""Unified metrics registry: one queryable snapshot per run.

Before this module, a run's numbers lived in four unrelated places —
engine counters (:class:`~repro.simulator.core.SimStats`), benchmark
sample series (:class:`~repro.simulator.monitor.Probe`), per-link byte
counters (``LinkDirection.bytes_moved``), and the fault/health layer
(``HealthTracker.snapshot``, ``FaultInjector.log``).  A
:class:`MetricsSnapshot` merges all of them under dotted keys::

    snap = snapshot_job(job)
    snap.get("engine.analytic_flows")
    snap.get("probe.put:direct-gdr.p99")      # latency percentiles
    snap.get("probe.pe0.put:direct-gdr.p50")  # per-PE histograms
    snap.get("link.n0.pcie.gpu0:fwd.bytes")
    snap.get("health.n1.pcie.gpu0:fwd.state")

Every value is virtual-time/counter data — no wall clock — so two runs
of a seeded simulation produce byte-identical snapshots, which the
chaos smoke exploits for its determinism check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a
    non-empty sample list; no numpy dependency on the hot path."""
    if not samples:
        raise ValueError("percentile of an empty sample list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    rank = (q / 100.0) * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


@dataclass(frozen=True)
class LatencyHistogram:
    """Summary statistics of one sample series."""

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def empty(cls) -> "LatencyHistogram":
        """A populated all-zero histogram for a series with no samples.

        Entirely-analytic runs must still export every percentile key
        (``p50``/``p95``/``p99``) so snapshot comparisons against the
        event path diff value-by-value instead of key-by-key."""
        return cls(count=0, total=0.0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0)

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyHistogram":
        if not samples:
            raise ValueError("histogram of an empty sample list")
        xs = sorted(samples)
        total = sum(xs)
        return cls(
            count=len(xs),
            total=total,
            mean=total / len(xs),
            p50=percentile(xs, 50),
            p95=percentile(xs, 95),
            p99=percentile(xs, 99),
            maximum=xs[-1],
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


class MetricsSnapshot:
    """Flat dotted-key view over every counter a run produced."""

    def __init__(self, values: Optional[Dict[str, Any]] = None):
        self._values: Dict[str, Any] = dict(values or {})

    def put(self, key: str, value: Any) -> None:
        self._values[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def keys(self) -> List[str]:
        return sorted(self._values)

    def section(self, prefix: str) -> Dict[str, Any]:
        """Every entry under ``prefix.`` with the prefix stripped."""
        cut = len(prefix) + 1
        return {
            k[cut:]: v for k, v in self._values.items() if k.startswith(prefix + ".")
        }

    def as_dict(self) -> Dict[str, Any]:
        return {k: self._values[k] for k in sorted(self._values)}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricsSnapshot {len(self._values)} keys>"


def snapshot_stats(stats, prefix: str = "engine") -> Dict[str, Any]:
    """``SimStats`` (or any ``as_dict``-able) under dotted keys."""
    return {f"{prefix}.{k}": v for k, v in stats.as_dict().items()}


def snapshot_probe(probe, prefix: str = "probe") -> Dict[str, Any]:
    """Histogram entries for every series of a ``Probe``."""
    out: Dict[str, Any] = {}
    for name in probe.names():
        xs = probe.series(name)
        hist = LatencyHistogram.from_samples(xs) if xs else LatencyHistogram.empty()
        for stat, value in hist.as_dict().items():
            out[f"{prefix}.{name}.{stat}"] = value
    return out


def snapshot_job(job, elapsed: Optional[float] = None) -> MetricsSnapshot:
    """One merged snapshot of a finished :class:`~repro.shmem.job.ShmemJob`.

    Sections: ``job.*`` (elapsed/npes), ``engine.*`` (SimStats, incl.
    the reliability counters), ``probe.*`` (latency histograms, global
    and per-PE), ``link.*`` (per-direction bytes/transfers/MB/s),
    ``protocol.*`` (route counts), ``msg.*`` (two-sided messaging,
    only when the msg engine was used), ``health.*`` and ``faults.*``
    (only when a fault plan was attached).
    """
    from repro.reporting.timeline import link_utilization

    elapsed = job.sim.now if elapsed is None else elapsed
    snap = MetricsSnapshot()
    snap.put("job.elapsed", elapsed)
    snap.put("job.npes", job.npes)
    snap.put("job.design", job.design)
    for key, value in snapshot_stats(job.sim.stats).items():
        snap.put(key, value)
    for key, value in snapshot_probe(job.probe).items():
        snap.put(key, value)
    for name, transfers, nbytes, mbps in link_utilization(job.hw, elapsed):
        snap.put(f"link.{name}.transfers", transfers)
        snap.put(f"link.{name}.bytes", nbytes)
        snap.put(f"link.{name}.avg_mbps", mbps)
    for proto, count in job.runtime.protocol_counts.items():
        snap.put(f"protocol.{proto.value}", count)
    msg = getattr(job, "_msg", None)
    if msg is not None:
        snap.put("msg.messages", msg.messages)
        snap.put("msg.eager", msg.eager)
        snap.put("msg.rendezvous", msg.rendezvous)
        snap.put("msg.ud_packets", job.sim.stats.ud_packets)
        snap.put("msg.ud_drops", job.sim.stats.ud_drops)
        snap.put("msg.ud_resends", job.sim.stats.ud_resends)
    health = getattr(job.runtime, "health", None)
    if health is not None:
        for row in health.snapshot():
            snap.put(f"health.{row['path']}.state", row["state"])
            snap.put(f"health.{row['path']}.degraded_time", row["degraded_time"])
    if getattr(job, "faults", None) is not None:
        snap.put("faults.events", len(job.faults.log))
    tracer = job.sim.tracer
    if tracer is not None:
        snap.put("spans.count", len(tracer.spans))
        snap.put("spans.instants", len(tracer.instants))
        snap.put("spans.dropped", tracer.dropped)
    return snap
