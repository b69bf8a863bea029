"""The benchmark's three workloads: inputs, timed units, checks, fidelity.

A workload is a list of *units* built from the seed (the seed fixes the
order units run in; the unit set itself is fixed, so every seed does the
same work).  A pass runs every unit once; each unit is timed on its own
and checked right after, outside its timing.

* ``micro``: every registered experiment except ``fig11``/``fig12``.
* ``apps``: ``fig11`` (Stencil2D) and ``fig12`` (LBM).
* ``faulted-mix``: a fixed list of generated check workloads under
  seeded fault plans, verified against the untimed reference executor.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Optional, Sequence, Tuple

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Generated check workloads of ``faulted-mix``: these 40 seeds span all
#: four designs and 2-8 PEs.
FAULT_SEEDS = tuple(range(40))
FAULT_OPS = 40

# Paper anchors (EXPERIMENTS.md).  Latency cells are
# (experiment, bytes, design column, paper usec).
LATENCY_ANCHORS = (
    ("fig6a", 4, "host-pipeline", 6.2),
    ("fig6a", 4, "enhanced-gdr", 2.4),
    ("fig6c", 4, "enhanced-gdr", 2.02),
    ("fig6a", 8, "enhanced-gdr", 2.2),
    ("fig8a", 8, "host-pipeline", 20.9),
    ("fig8a", 8, "enhanced-gdr", 3.13),
    ("fig9a", 8, "enhanced-gdr", 2.81),
    ("fig9b", 4096, "enhanced-gdr", 3.7),
)
#: Table III, (op, placement) -> paper MB/s.
BANDWIDTH_ANCHORS = {
    ("read", "intra-socket"): 3421.0,
    ("read", "inter-socket"): 247.0,
    ("write", "intra-socket"): 6396.0,
    ("write", "inter-socket"): 1179.0,
}
#: Small-message improvement of enhanced-gdr over host-pipeline,
#: (experiment, bytes, paper baseline usec, paper proposed usec).
LATENCY_GAINS = (("fig6a", 4, 6.2, 2.4), ("fig8a", 8, 20.9, 3.13))
#: Application improvement in percent at 16/32/64 GPUs.
APP_GAINS = {
    "fig11": {16: 24.0, 32: 18.0, 64: 14.0},
    "fig12": {16: 70.0, 32: 53.0, 64: 45.0},
}
ANCHOR_TARGETS = ("table3", "fig6a", "fig6c", "fig8a", "fig9a", "fig9b")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_table(text: str) -> Tuple[List[str], List[List[str]]]:
    """Header cells and row cells of a rendered table (2+ space separated)."""
    lines = text.splitlines()
    sep = next(i for i, line in enumerate(lines) if line and set(line) == {"-"})
    split = lambda line: re.split(r"\s{2,}", line.strip())  # noqa: E731
    return split(lines[sep - 1]), [split(line) for line in lines[sep + 1:] if line.strip()]


def _cell(text: str, x: int, column: str) -> float:
    headers, rows = parse_table(text)
    row = next(r for r in rows if r[0] == str(x))
    return float(row[headers.index(column)])


def micro_fidelity(outputs: Dict[str, str]) -> Tuple[float, float]:
    """(mean abs relative error %, mean abs improvement gap in points)."""
    errors = [
        abs(_cell(outputs[exp], x, col) - paper) / paper
        for exp, x, col, paper in LATENCY_ANCHORS
    ]
    _, rows = parse_table(outputs["table3"])
    for op, placement, achieved, _pct in rows:
        paper = BANDWIDTH_ANCHORS[(op.split()[-1], placement)]
        errors.append(abs(float(achieved.split()[0].replace(",", "")) - paper) / paper)
    gaps = []
    for exp, x, base, prop in LATENCY_GAINS:
        sim = 1 - _cell(outputs[exp], x, "enhanced-gdr") / _cell(outputs[exp], x, "host-pipeline")
        gaps.append(abs(sim - (1 - prop / base)) * 100)
    return 100 * fmean(errors), fmean(gaps)


def apps_fidelity(outputs: Dict[str, str]) -> Tuple[float, float]:
    """Same pair for the Fig 11/12 improvements at 16/32/64 GPUs."""
    errors, gaps = [], []
    for exp, paper_by_gpus in APP_GAINS.items():
        if exp not in outputs:  # a partial unit list (self-tests)
            continue
        _, rows = parse_table(outputs[exp])
        for gpus, base, prop, _imp in rows:
            paper = paper_by_gpus.get(int(gpus))
            if paper is None:
                continue
            sim = 100 * (1 - float(prop) / float(base))
            gaps.append(abs(sim - paper))
            errors.append(abs(sim - paper) / paper)
    if not gaps:
        raise ValueError("no Fig 11/12 output to compare with the paper")
    return 100 * fmean(errors), fmean(gaps)


class Workload:
    """Base: a named, seed-ordered list of units."""

    name = ""
    #: Keep each pass's outputs for :meth:`fidelity`.
    keep_outputs = False

    def __init__(self, expected: dict):
        self.expected = expected

    def units(self, seed: int) -> list:
        units = self.all_units()
        random.Random(seed).shuffle(units)
        return units

    def all_units(self) -> list:
        raise NotImplementedError

    def label(self, unit) -> str:
        return str(unit)

    def run(self, unit):
        raise NotImplementedError

    def check(self, unit, output) -> Optional[str]:
        """None when ``output`` is correct, else why not."""
        raise NotImplementedError

    def fidelity(self, outputs: Dict[str, str]) -> Tuple[float, float]:
        raise NotImplementedError


class _Experiments(Workload):
    """Units are registry experiment ids; outputs are pinned by sha256."""

    keep_outputs = True

    def run(self, unit: str) -> str:
        from repro.reporting.experiments import run_experiment

        return run_experiment(unit)

    def check(self, unit: str, output: str) -> Optional[str]:
        want = self.expected["output_sha256"][unit]
        got = sha256(output)
        return None if got == want else f"output_sha256 {got[:12]} != pinned {want[:12]}"


class Micro(_Experiments):
    name = "micro"

    def all_units(self) -> list:
        from repro.reporting.experiments import EXPERIMENTS

        return [e for e in EXPERIMENTS if e not in ("fig11", "fig12")]

    def fidelity(self, outputs):
        return micro_fidelity(outputs)


class Apps(_Experiments):
    name = "apps"

    def all_units(self) -> list:
        return ["fig11", "fig12"]

    def fidelity(self, outputs):
        return apps_fidelity(outputs)


class FaultedMix(Workload):
    name = "faulted-mix"

    def __init__(self, expected: dict, seeds: Sequence[int] = FAULT_SEEDS,
                 corrupt: Optional[Dict[int, int]] = None):
        super().__init__(expected)
        self.seeds = tuple(seeds)
        #: ``seed -> op uid`` to corrupt through the runner's self-test hook.
        self.corrupt = corrupt or {}
        #: ``seed -> digest`` of a result that matched the reference.
        self._verified: Dict[int, str] = {}

    def all_units(self) -> list:
        from repro.check.workload import generate_workload

        return [generate_workload(s, ops=FAULT_OPS, faults=True, msg=True) for s in self.seeds]

    def label(self, unit) -> str:
        return f"seed {unit.seed} ({unit.design}, {unit.npes} PEs)"

    def run(self, unit):
        from repro.check.runner import run_workload

        return run_workload(unit, corrupt_uid=self.corrupt.get(unit.seed))

    def check(self, unit, output) -> Optional[str]:
        """Compare with the reference executor.  A seed's reference is
        computed once; later passes compare a digest of everything the
        oracles read with the digest of a result that matched it, so
        references need not stay in memory."""
        from repro.check.oracles import (
            CheckReport, oracle_atomic_conservation, oracle_heap_matches_reference,
        )
        from repro.check.reference import execute_reference

        h = hashlib.sha256(repr((
            sorted(output.atomics.items()), sorted(output.msgs.items()),
        )).encode())
        for key, data in sorted(output.heaps.items()) + sorted(output.gets.items()):
            h.update(repr(key).encode())
            h.update(data)
        digest = h.hexdigest()
        if self._verified.get(unit.seed) == digest:
            return None
        report = CheckReport(workload=unit)
        ref = execute_reference(unit)
        oracle_heap_matches_reference(report, ref, output)
        oracle_atomic_conservation(report, ref, output)
        if not report.passed:
            return "; ".join(map(str, report.violations[:3]))
        self._verified[unit.seed] = digest
        return None

    def fidelity(self, outputs):
        # No paper anchor is faulted: check the fault-free calibration
        # anchors (the micro set) after the timed passes instead.
        micro = Micro(self.expected)
        anchors = {}
        for exp in ANCHOR_TARGETS:
            anchors[exp] = micro.run(exp)
            problem = micro.check(exp, anchors[exp])
            if problem:
                raise ValueError(f"anchor {exp}: {problem}")
        return micro_fidelity(anchors)


WORKLOADS = {w.name: w for w in (Micro, Apps, FaultedMix)}
