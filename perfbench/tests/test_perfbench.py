"""Self-tests of the benchmark: pins, planted failures, metric names.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import END_TO_END, PER_LAYER, measure  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ANCHOR_TARGETS, Apps, FaultedMix, Micro, load_expected,
)

_COLLECTIVES = ("bcast", "reduce", "fcollect", "alltoall", "lock_inc", "msg")


class TinyMicro(Micro):
    def all_units(self):
        return ["table1", *ANCHOR_TARGETS]


class TinyApps(Apps):
    def all_units(self):
        return ["fig11"]


def _tiny(name, expected=None):
    expected = expected or load_expected()
    if name == "micro":
        return TinyMicro(expected)
    if name == "apps":
        return TinyApps(expected)
    return FaultedMix(expected, seeds=(3, 7))


def test_pins_cover_registry_and_match_bench_pr1():
    from repro.reporting.experiments import EXPERIMENTS

    pins = load_expected()["output_sha256"]
    assert sorted(pins) == sorted(EXPERIMENTS)
    bench = ROOT / "BENCH_PR1.json"
    if not bench.exists():
        pytest.skip("BENCH_PR1.json not in this checkout")
    archived = {t["exp_id"]: t["output_sha256"] for t in json.loads(bench.read_text())["targets"]}
    assert len(archived) == 22
    assert {k: pins[k] for k in archived} == archived


def test_tampered_sha_counts_as_failed_unit():
    expected = copy.deepcopy(load_expected())
    expected["output_sha256"]["table1"] = "0" * 64
    result, lines = measure("micro", 0, 0, False, wl_override=TinyMicro(expected))
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / 7)
    assert any(line.startswith("FAIL table1") for line in lines)


def test_corrupted_seed_counts_as_failed_unit():
    from repro.check.workload import generate_workload

    seed = 3
    w = generate_workload(seed, ops=40, faults=True, msg=True)
    uid = next(
        op.uid for rnd in w.rounds if rnd[0].kind not in _COLLECTIVES
        for op in rnd if op.buf
    )
    wl = FaultedMix(load_expected(), seeds=(seed, 7), corrupt={seed: uid})
    result, lines = measure("faulted-mix", 0, 0, False, wl_override=wl)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert any(line.startswith(f"FAIL seed {seed}") for line in lines)


@pytest.mark.parametrize("name", ["micro", "apps", "faulted-mix"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_prints_every_metric(name, trace):
    result, lines = measure(name, 1, 0, trace, wl_override=_tiny(name))
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m for m, _ in table]
    for metric, unit in table:
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
    if trace:
        # Every layer's self time plus the remainder is the traced wall.
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
