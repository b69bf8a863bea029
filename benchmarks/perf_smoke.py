#!/usr/bin/env python
"""CI gate over a smoke-sweep report: analytic tier fired, events capped, wall sane.

Usage:
    PYTHONPATH=src python benchmarks/run_all.py --smoke --fresh \
        --output BENCH_smoke.json
    PYTHONPATH=src python benchmarks/perf_smoke.py BENCH_smoke.json
    PYTHONPATH=src python benchmarks/perf_smoke.py BENCH_smoke.json \
        --update-baseline   # re-record the archived wall baseline

Three checks:

1. **Tier liveness** — the analytic engine must have carried real work
   in the quick sweep: ``analytic_flows > 0`` and ``contended_windows
   > 0``, each, in the report's engine totals.  A refactor that
   silently widens an eligibility gate until nothing commits
   analytically turns every sweep into a pure event-path run; wall
   time regresses quietly and bit-identity tests can't see it.  This
   check can, and the second counter proves that contended windows
   (not just idle-link flows) still take the closed form.

2. **Event ceiling** — ``engine_totals.processed`` must not exceed the
   ``engine_processed`` recorded in
   ``benchmarks/results/perf_smoke_baseline.json``.  The count is
   deterministic, so this gate fails on any host: a change that makes
   the scheduler do more work has to re-record the baseline and say so.

3. **Wall regression guard** — total target wall must stay within
   ``REGRESSION_FACTOR`` (1.2 = +20%) of the archived baseline.  Wall
   clocks vary across machines, so the guard only *fails* when both the
   event totals (same workload) and the host fingerprint (same machine)
   match the record — any mismatch downgrades to a warning, since a
   changed workload or a new runner needs ``--update-baseline``
   anyway.  Wall time is a trend line; check 2 is the hard gate.
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.reporting.artifacts import (  # noqa: E402
    artifact_doc,
    read_json_artifact,
    write_json_artifact,
)

BASELINE = REPO / "benchmarks" / "results" / "perf_smoke_baseline.json"

#: Total smoke wall may grow by at most this factor over the baseline.
REGRESSION_FACTOR = 1.2

#: Each of these SimStats counters must be positive: the analytic tier
#: committed flows, and some of them priced a contended window.
TIER_COUNTERS = ("analytic_flows", "contended_windows")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="sweep JSON from run_all.py --smoke")
    ap.add_argument("--update-baseline", action="store_true",
                    help="re-record the archived wall baseline from this report")
    args = ap.parse_args(argv)

    doc = read_json_artifact(args.report)
    totals = doc.get("engine_totals", {})
    wall = doc.get("total_target_wall_seconds", 0.0)

    fired = {k: totals.get(k, 0) for k in TIER_COUNTERS}
    print("tier counters:", fired)
    idle = [k for k, v in fired.items() if v <= 0]
    if idle:
        print(f"FAIL: the analytic tier committed no work ({', '.join(idle)} == 0)",
              file=sys.stderr)
        return 1

    if args.update_baseline:
        write_json_artifact(BASELINE, artifact_doc("perf_baseline", {
            "total_target_wall_seconds": wall,
            "engine_processed": totals.get("processed", 0),
            "host": platform.platform(),
            "python": platform.python_version(),
        }))
        print(f"baseline updated: {wall:.3f}s -> {BASELINE}")
        return 0

    if not BASELINE.is_file():
        print(f"WARN: no archived baseline at {BASELINE}; "
              "run with --update-baseline to record one")
        return 0
    # Pre-envelope baselines (no "schema" key) still load fine; the
    # kind check only applies once a baseline has been re-recorded.
    base = read_json_artifact(BASELINE)
    if "schema" in base:
        read_json_artifact(BASELINE, kind="perf_baseline")
    processed = totals.get("processed", 0)
    ceiling = base["engine_processed"]
    if processed > ceiling:
        print(f"FAIL: {processed} events processed, above the recorded ceiling "
              f"{ceiling} ({processed - ceiling:+d}); a change that adds scheduler "
              "work must re-record the baseline", file=sys.stderr)
        return 1
    print(f"ok: {processed} events processed (ceiling {ceiling})")
    limit = base["total_target_wall_seconds"] * REGRESSION_FACTOR
    same_workload = ceiling == processed
    same_host = base.get("host") == platform.platform()
    verdict = (f"wall {wall:.3f}s vs baseline "
               f"{base['total_target_wall_seconds']:.3f}s "
               f"(limit {limit:.3f}s, factor {REGRESSION_FACTOR})")
    if wall > limit:
        if same_workload and same_host:
            print(f"FAIL: {verdict}", file=sys.stderr)
            return 1
        why = ("event totals differ from the baseline (workload changed)"
               if not same_workload else
               "baseline was recorded on a different host")
        print(f"WARN: {verdict} — {why}; refresh with --update-baseline")
        return 0
    print(f"ok: {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
