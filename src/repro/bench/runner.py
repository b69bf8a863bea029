"""Parallel, cached benchmark sweep runner.

Regenerating every paper artifact serially repeats a lot of identical
work across development iterations.  This runner drives the
:mod:`repro.reporting.experiments` registry through a process pool and
memoizes each target on disk, keyed by everything that can change its
output:

* the experiment id and ``quick`` flag,
* a fingerprint of the ``repro`` source tree (any code change
  invalidates every entry — simulated results must never go stale).

Each record carries the target's wall-time and the engine's event
counters (:class:`repro.simulator.core.SimStats`), so a sweep doubles
as evidence that the analytic fast paths fired (``analytic_flows``)
and as a coarse regression guard on scheduler workload.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_SRC_ROOT = Path(__file__).resolve().parents[1]  # .../src/repro


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (cache invalidation key).

    Each entry is framed as ``<path> NUL <length> NUL <content>`` so the
    digest is unambiguous under concatenation (moving bytes between a
    filename and a file body, or between two adjacent files, cannot
    produce the same stream).  Files that vanish mid-walk (editor tmp
    files) are skipped rather than crashing the sweep."""
    h = hashlib.sha256()
    for path in sorted(_SRC_ROOT.rglob("*.py")):
        try:
            body = path.read_bytes()
        except OSError:
            continue
        h.update(str(path.relative_to(_SRC_ROOT)).encode())
        h.update(b"\x00")
        h.update(str(len(body)).encode())
        h.update(b"\x00")
        h.update(body)
    return h.hexdigest()


def target_cache_key(
    exp_id: str, *, quick: bool, profile: bool, fingerprint: str
) -> str:
    """The memo key one experiment target caches under.

    Same target + flags + source tree -> same key, so a repeated sweep
    is answered from disk; a ``--profile`` variant (richer record) or
    any code change -> a different key.
    """
    return hashlib.sha256(
        f"{exp_id}\x00quick={quick}\x00profile={profile}\x00{fingerprint}".encode()
    ).hexdigest()


#: Analytic-tier counter names exported by ``--profile`` (subset of
#: ``SimStats``): closed-form flows, and the subset whose link grant
#: queued behind other traffic.
PROFILE_TIER_KEYS = ("analytic_flows", "contended_windows")


def _profile_from_stats(stats: Dict[str, int]) -> Dict[str, object]:
    """The analytic-tier and scheduler-event breakdown of one run."""
    return {
        "tiers": {k: stats.get(k, 0) for k in PROFILE_TIER_KEYS},
        "events": {
            "scheduled": stats.get("scheduled", 0),
            "processed": stats.get("processed", 0),
            "resumed_fast": stats.get("resumed_fast", 0),
        },
    }


@dataclass
class TargetResult:
    """Outcome of one experiment target."""

    exp_id: str
    wall_seconds: float
    output_sha256: str
    sim_stats: Dict[str, int]
    cached: bool = False
    error: Optional[str] = None
    #: Flat dotted-key metrics snapshot (``repro.obs.snapshot_stats``).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: ``--profile`` breakdown: wall per phase, per-tier event counters.
    profile: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "exp_id": self.exp_id,
            "wall_seconds": self.wall_seconds,
            "output_sha256": self.output_sha256,
            "sim_stats": self.sim_stats,
            "cached": self.cached,
            "error": self.error,
            "metrics": self.metrics,
        }
        if self.profile:
            out["profile"] = self.profile
        return out


@dataclass
class SweepReport:
    """Everything one sweep run learned, JSON-serializable."""

    fingerprint: str
    quick: bool
    jobs: int
    targets: List[TargetResult] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.targets if t.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for t in self.targets if not t.cached)

    @property
    def total_wall(self) -> float:
        return sum(t.wall_seconds for t in self.targets)

    def totals(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for t in self.targets:
            for k, v in t.sim_stats.items():
                agg[k] = agg.get(k, 0) + v
        return agg

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "quick": self.quick,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "total_target_wall_seconds": self.total_wall,
            "engine_totals": self.totals(),
            "targets": [t.as_dict() for t in self.targets],
        }


def _run_one(exp_id: str, quick: bool, profile: bool = False) -> dict:
    """Worker: run one experiment, return a plain dict (picklable)."""
    from repro.obs import snapshot_stats
    from repro.reporting.experiments import run_experiment
    from repro.simulator.core import GLOBAL_STATS, reset_global_stats

    reset_global_stats()
    t0 = time.perf_counter()
    try:
        output = run_experiment(exp_id, quick=quick)
        t_run = time.perf_counter()
        err = None
        digest = hashlib.sha256(output.encode()).hexdigest()
    except Exception as exc:  # surface, don't kill the pool
        t_run = time.perf_counter()
        err = f"{type(exc).__name__}: {exc}"
        digest = ""
    t1 = time.perf_counter()
    stats = GLOBAL_STATS.as_dict()
    rec = {
        "exp_id": exp_id,
        "wall_seconds": t1 - t0,
        "output_sha256": digest,
        "sim_stats": stats,
        "error": err,
        "metrics": snapshot_stats(GLOBAL_STATS),
    }
    if profile:
        prof = _profile_from_stats(stats)
        prof["phases"] = {
            "run": t_run - t0,
            "digest": t1 - t_run,
        }
        rec["profile"] = prof
    return rec


class SweepRunner:
    """Run experiment targets with disk memoization and a process pool."""

    def __init__(self, cache_dir: Path, jobs: int = 0, quick: bool = False, profile: bool = False):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs if jobs > 0 else max(1, os.cpu_count() or 1)
        self.quick = quick
        self.profile = profile
        self.fingerprint = code_fingerprint()

    def cache_key(self, exp_id: str) -> str:
        # ``profile`` participates in the key: a record cached without
        # the breakdown must not satisfy a ``--profile`` sweep.
        return target_cache_key(
            exp_id, quick=self.quick, profile=self.profile, fingerprint=self.fingerprint
        )

    def _cache_path(self, exp_id: str) -> Path:
        return self.cache_dir / f"{self.cache_key(exp_id)}.json"

    def _lookup(self, exp_id: str) -> Optional[TargetResult]:
        path = self._cache_path(exp_id)
        if not path.is_file():
            return None
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return TargetResult(
            exp_id=rec["exp_id"],
            wall_seconds=rec["wall_seconds"],
            output_sha256=rec["output_sha256"],
            sim_stats=rec["sim_stats"],
            cached=True,
            error=rec.get("error"),
            metrics=rec.get("metrics", {}),
            profile=rec.get("profile", {}),
        )

    def _store(self, rec: dict) -> None:
        if rec.get("error"):
            return  # never cache failures
        # Atomic write-then-rename: an interrupted sweep must never
        # leave a torn record that a later run would half-parse.
        from repro.reporting.artifacts import write_json_artifact

        write_json_artifact(self._cache_path(rec["exp_id"]), rec, indent=1)

    def run(self, exp_ids: Sequence[str], verbose: bool = False) -> SweepReport:
        report = SweepReport(fingerprint=self.fingerprint, quick=self.quick, jobs=self.jobs)
        todo = []
        by_id: Dict[str, TargetResult] = {}
        for exp_id in exp_ids:
            hit = self._lookup(exp_id)
            if hit is not None:
                by_id[exp_id] = hit
                if verbose:
                    print(f"  cache hit  {exp_id} ({hit.wall_seconds:.2f}s recorded)")
            else:
                todo.append(exp_id)
        if verbose:
            print(
                f"pool size {self.jobs}: {len(by_id)} cache hits, "
                f"{len(todo)} targets to run"
            )
        if todo:
            if self.jobs > 1 and len(todo) > 1:
                ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
                pool = ctx.Pool(min(self.jobs, len(todo)))
                try:
                    recs = pool.starmap_async(
                        _run_one, [(e, self.quick, self.profile) for e in todo]
                    ).get()
                    pool.close()
                except KeyboardInterrupt:
                    # Ctrl-C mid-sweep: kill outstanding workers instead
                    # of waiting them out.  Nothing has been stored yet,
                    # and _store itself is atomic, so the cache holds
                    # only complete records.
                    pool.terminate()
                    raise
                finally:
                    pool.join()
            else:
                recs = [_run_one(e, self.quick, self.profile) for e in todo]
            for rec in recs:
                self._store(rec)
                by_id[rec["exp_id"]] = TargetResult(
                    exp_id=rec["exp_id"],
                    wall_seconds=rec["wall_seconds"],
                    output_sha256=rec["output_sha256"],
                    sim_stats=rec["sim_stats"],
                    cached=False,
                    error=rec["error"],
                    metrics=rec.get("metrics", {}),
                    profile=rec.get("profile", {}),
                )
                if verbose:
                    r = by_id[rec["exp_id"]]
                    flag = f"ERROR {r.error}" if r.error else f"{r.wall_seconds:.2f}s"
                    print(f"  ran        {r.exp_id} ({flag})")
        report.targets = [by_id[e] for e in exp_ids]
        return report
