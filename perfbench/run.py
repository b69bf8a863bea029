#!/usr/bin/env python3
"""The repo benchmark: one workload per run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload micro|apps|faulted-mix \\
        --seed N --seconds S --trace 0|1 [--record]

``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics (host wall time per pass, set-up time, peak memory,
share of units correct, fidelity to the paper).  ``--trace 1`` runs
untraced passes for half the time, then the same passes with every
layer wrapped by :mod:`perfbench.ledger`, and reports the per-layer
metrics.  Every pass checks every output; machine-independent counters
are compared with ``perfbench/expected.json`` and the difference is
printed.  ``--record`` (with ``--trace 1``) writes this run's counters
there instead.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# numpy advises transparent huge pages for large arrays, and then the
# resident size counts whole 2 MB pages and depends on how many the
# kernel finds free at the moment: peak_rss_mb on apps moved by 100 MB
# between runs of the same code.  Off before numpy is imported (the
# set-up probes inherit it).
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import EXPECTED_PATH, WORKLOADS, load_expected  # noqa: E402

#: End-to-end metrics, (name, unit), printed for every workload.
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"), ("fidelity_err_pct", "%"), ("fidelity_gap_pts", "pts"),
)
ROUTES = (
    "local-copy", "shm-copy", "ipc-copy", "staged-host-copy", "shm-direct-copy",
    "gdr-loopback", "direct-gdr", "rdma-host", "host-pipeline", "pipeline-gdr-write",
    "proxy", "device-p2p", "device-gdr",
)
#: Per-layer metrics, (name, unit), printed for every workload.
PER_LAYER = (
    ("simulator.self_s", "s"), ("simulator.us_per_event", "us"),
    ("simulator.events", "count"), ("simulator.tier_commits", "count"),
    ("shmem.self_s", "s"), ("shmem.ops", "count"), ("shmem.job_build_s", "s"),
    *((f"shmem.route.{r}", "count") for r in ROUTES),
    ("shmem.failovers", "count"),
    ("hardware.self_s", "s"), ("hardware.link_bytes", "B"), ("hardware.link_transfers", "count"),
    ("cuda.self_s", "s"), ("cuda.bytes_copied", "B"),
    ("ib.self_s", "s"), ("ib.wrs", "count"), ("ib.rc_retries", "count"),
    ("ib.ud_packets", "count"), ("ib.ud_drops", "count"),
    ("msg.self_s", "s"), ("msg.eager", "count"), ("msg.rendezvous", "count"),
    ("msg.ud_resends", "count"),
    ("mpi.self_s", "s"), ("apps.self_s", "s"),
    ("faults.self_s", "s"), ("faults.injected", "count"),
    ("trace.overhead_x", "x"), ("trace.coverage", "frac"), ("trace.unattributed_s", "s"),
)
#: Set-up is timed this many times in fresh interpreters, plus once here.
SETUP_PROBES = 4
PERCENTILES = (99, 95, 90, 75, 50)


def set_up(name: str, seed: int):
    """Import the program and build the workload inputs (timed by callers)."""
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")
    wl = WORKLOADS[name](load_expected())
    return wl, wl.units(seed)


def probe_setup(name: str, seed: int) -> list:
    """Set-up seconds of fresh interpreters, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


class Pass:
    """One run of every unit: summed unit wall time, failures, outputs.

    Each unit is checked right after it runs, outside its timing; with a
    ledger attached, time charged to layers during the check is dropped.
    """

    def __init__(self, wl, units, ledger=None):
        self.wall = 0.0
        self.failures = []
        self.outputs = {}
        if ledger is not None:
            ledger.reset()
        for unit in units:
            # Free the previous unit's jobs (they hold reference cycles)
            # so every unit starts from the same heap, untimed.
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = wl.run(unit)
            except Exception as exc:  # a unit that raises is a failed unit
                self.wall += time.perf_counter() - t0
                self.failures.append((wl.label(unit), f"{type(exc).__name__}: {exc}"))
                continue
            self.wall += time.perf_counter() - t0
            charged = None if ledger is None else dict(ledger.self_s)
            problem = wl.check(unit, out)
            if ledger is not None:
                ledger.self_s = charged
            if problem:
                self.failures.append((wl.label(unit), problem))
            if wl.keep_outputs:
                self.outputs[unit] = out
            # Not alive while the next unit runs: a faulted-mix result
            # holds a copy of every PE's heap.
            del out
        self.self_s = None if ledger is None else dict(ledger.self_s)
        #: Peak resident memory of the process so far, in MB.
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(wl, units, budget, harvest, ledger=None):
    """Passes while the next one, as long as the last, still ends within
    ``budget`` seconds (at least one), with the counters each produced.

    The first pass runs the units in a fixed order: ``peak_rss_mb`` is
    read after it, and what one unit leaves in the allocator moves the
    next unit's peak.  Later passes run in the seed's order."""
    passes, counts = [], []
    order = sorted(units, key=wl.label)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        harvest.reset()
        passes.append(Pass(wl, order, ledger))
        order = units
        c = harvest.counts()
        if ledger is not None:
            c.update({"shmem.ops": ledger.shmem_ops, "ib.wrs": ledger.ib_wrs,
                      "cuda.bytes_copied": ledger.bytes_copied})
        counts.append(c)
        now = time.perf_counter()
        if (now - start) + (now - began) > budget:
            return passes, counts


def percentile_note(walls) -> str:
    """The highest percentile with at least ten passes beyond it."""
    n = len(walls)
    ranked = sorted(walls)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {ranked[min(n - 1, int(n * p / 100))]:.4f} s"
    return "no percentile has 10 passes beyond it"


def counter_diff(counts: dict, recorded: dict) -> list:
    lines = []
    for key in sorted(counts):
        if key not in recorded:
            lines.append(f"  {key}: {counts[key]} (not recorded)")
        elif counts[key] != recorded[key]:
            lines.append(f"  {key}: {counts[key]} vs recorded {recorded[key]} "
                         f"({counts[key] - recorded[key]:+d})")
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool, record: bool = False,
            wl_override=None):
    """Run one benchmark invocation; returns ``(result dict, report lines)``.

    ``wl_override`` replaces the workload object built by set-up (the
    self-tests plant failures through it)."""
    t0 = time.perf_counter()
    wl, units = set_up(name, seed)
    setup_here = time.perf_counter() - t0
    if wl_override is not None:
        wl, units = wl_override, wl_override.units(seed)
    from perfbench.ledger import JobHarvest, Ledger

    lines, problems = [], []
    harvest, ledger = JobHarvest().install(), Ledger()
    try:
        if trace:
            plain, plain_counts = timed_passes(wl, units, seconds / 2, harvest)
            passes, counts = timed_passes(wl, units, seconds / 2, harvest, ledger.install())
            if {k: counts[0][k] for k in plain_counts[0]} != plain_counts[0]:
                problems.append("counters differ between traced and untraced passes")
            everything = plain + passes
        else:
            setups = [setup_here] + probe_setup(name, seed)
            passes, counts = timed_passes(wl, units, seconds, harvest)
            everything = passes
    finally:
        ledger.uninstall()
        harvest.uninstall()
    if any(c != counts[0] for c in counts):
        problems.append("counters differ between passes of the same code")
    attempted = len(units) * len(everything)
    failures = [f for p in everything for f in p.failures]
    lines += [f"FAIL {label}: {why}" for label, why in failures]
    lines.append(f"units attempted {attempted}, failed {len(failures)}, "
                 f"fail_frac {len(failures) / attempted:.4f}")

    walls = [p.wall for p in passes]
    if trace:
        self_s = {k: median(p.self_s[k] for p in passes) for k in passes[0].self_s}
        c = counts[0]
        values = {f"{k}.self_s": v for k, v in self_s.items()}
        values.update(c)
        values["simulator.us_per_event"] = (
            1e6 * self_s["simulator"] / c["simulator.events"] if c["simulator.events"] else 0.0
        )
        values["shmem.job_build_s"] = ledger.job_build_s
        values["trace.overhead_x"] = median(walls) / median(p.wall for p in plain)
        values["trace.coverage"] = median(sum(p.self_s.values()) / p.wall for p in passes)
        values["trace.unattributed_s"] = median(p.wall - sum(p.self_s.values()) for p in passes)
        metrics = {m: {"value": values.get(m, 0), "unit": u} for m, u in PER_LAYER}
    else:
        try:
            err, gap = wl.fidelity(passes[-1].outputs)
        except Exception as exc:  # noqa: BLE001 - reported, run marked incorrect
            problems.append(f"fidelity check failed: {type(exc).__name__}: {exc}")
            err = gap = float("nan")
        values = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            # After the first (fixed-order) pass: how many passes run
            # depends on the host's speed.
            "peak_rss_mb": passes[0].rss_mb,
            "ok_frac": 1 - len(failures) / attempted,
            "fidelity_err_pct": err,
            "fidelity_gap_pts": gap,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        lines.append(f"wall_s over {len(walls)} passes: median {median(walls):.4f} s, "
                     f"{percentile_note(walls)}; passes "
                     + ", ".join(f"{w:.3f}" for w in walls) + "; set-up samples "
                     + ", ".join(f"{s:.3f}" for s in setups))

    expected = load_expected()
    if record:
        expected.setdefault("counters", {})[name] = counts[0]
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        lines.append(f"recorded {len(counts[0])} counters for {name}")
    else:
        diff = counter_diff(counts[0], expected.get("counters", {}).get(name, {}))
        lines.append("counters vs recorded: " + ("identical" if not diff else "changed"))
        lines += diff
    lines += problems
    for m, u in (PER_LAYER if trace else END_TO_END):
        lines.append(f"{m} {metrics[m]['value']} {u}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this traced run's counters to expected.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.record and not args.trace:
        ap.error("--record needs --trace 1 (only traced runs read every counter)")
    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
