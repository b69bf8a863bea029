"""Unit coverage for the cached sweep runner's reporting surface:
engine-total aggregation over the analytic-tier counters, the
``--profile`` breakdown, the cache-invalidation fingerprint, the
disk-cache key/store semantics, and one end-to-end sweep through
``_run_one`` checked against a direct ``run_experiment``."""

import hashlib

import repro.bench.runner as runner_mod
from repro.bench.runner import (
    PROFILE_TIER_KEYS,
    SweepReport,
    SweepRunner,
    TargetResult,
    _profile_from_stats,
    code_fingerprint,
    target_cache_key,
)
from repro.reporting.experiments import run_experiment


def test_totals_aggregates_every_tier_counter():
    stats_a = {"processed": 10, "analytic_flows": 2, "contended_windows": 1}
    stats_b = {"processed": 5, "analytic_flows": 4}
    rep = SweepReport(
        fingerprint="f",
        quick=False,
        jobs=1,
        targets=[
            TargetResult("a", 0.1, "x", stats_a),
            TargetResult("b", 0.2, "y", stats_b),
        ],
    )
    totals = rep.totals()
    assert totals["processed"] == 15
    assert totals["analytic_flows"] == 6
    assert totals["contended_windows"] == 1
    # The serialised report carries the same aggregate.
    assert rep.as_dict()["engine_totals"] == totals


def test_profile_breakdown_covers_every_tier_key():
    prof = _profile_from_stats({"processed": 3, "contended_windows": 2})
    assert set(prof["tiers"]) == set(PROFILE_TIER_KEYS) == {"analytic_flows", "contended_windows"}
    assert prof["events"]["processed"] == 3
    assert prof["tiers"]["contended_windows"] == 2
    assert prof["tiers"]["analytic_flows"] == 0


def test_target_result_serialises_profile_only_when_present():
    bare = TargetResult("a", 0.1, "x", {})
    assert "profile" not in bare.as_dict()
    rich = TargetResult("a", 0.1, "x", {}, profile={"tiers": {}})
    assert rich.as_dict()["profile"] == {"tiers": {}}


def test_code_fingerprint_changes_with_content(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    mod = pkg / "mod.py"
    mod.write_bytes(b"x = 1\n")
    monkeypatch.setattr(runner_mod, "_SRC_ROOT", tmp_path)
    before = code_fingerprint()
    mod.write_bytes(b"x = 2\n")
    assert code_fingerprint() != before


def test_target_cache_key_varies_with_every_input():
    base = target_cache_key("fig6a", quick=True, profile=False, fingerprint="fp")
    variants = {
        base,
        target_cache_key("fig6b", quick=True, profile=False, fingerprint="fp"),
        target_cache_key("fig6a", quick=False, profile=False, fingerprint="fp"),
        target_cache_key("fig6a", quick=True, profile=True, fingerprint="fp"),
        target_cache_key("fig6a", quick=True, profile=False, fingerprint="fp2"),
    }
    assert len(variants) == 5


def test_runner_cache_key_is_the_shared_target_key(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True, profile=True)
    assert runner.cache_key("fig6a") == target_cache_key(
        "fig6a", quick=True, profile=True, fingerprint=runner.fingerprint
    )
    assert runner._cache_path("fig6a").name == f"{runner.cache_key('fig6a')}.json"


def _record(exp_id="fig6a", error=None):
    return {
        "exp_id": exp_id,
        "wall_seconds": 0.5,
        "output_sha256": "abc",
        "sim_stats": {"processed": 1},
        "error": error,
        "metrics": {},
    }


def test_store_then_lookup_roundtrip_is_atomic(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    runner._store(_record())
    hit = runner._lookup("fig6a")
    assert hit is not None and hit.cached and hit.output_sha256 == "abc"
    # Write-then-rename must leave no temp droppings beside the record.
    assert [p.name for p in tmp_path.iterdir()] == [
        runner._cache_path("fig6a").name
    ]


def test_store_never_caches_failures(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    runner._store(_record(error="ValueError: boom"))
    assert runner._lookup("fig6a") is None
    assert list(tmp_path.iterdir()) == []


def test_lookup_ignores_other_flag_variants(tmp_path):
    quick = SweepRunner(tmp_path, jobs=1, quick=True)
    quick._store(_record())
    full = SweepRunner(tmp_path, jobs=1, quick=False)
    assert quick._lookup("fig6a") is not None
    assert full._lookup("fig6a") is None


def test_code_fingerprint_framing_is_unambiguous(tmp_path, monkeypatch):
    # The same concatenated byte stream split differently across two
    # files must not collide: per-file length framing disambiguates.
    monkeypatch.setattr(runner_mod, "_SRC_ROOT", tmp_path)
    (tmp_path / "a.py").write_bytes(b"ab")
    (tmp_path / "b.py").write_bytes(b"c")
    one = code_fingerprint()
    (tmp_path / "a.py").write_bytes(b"a")
    (tmp_path / "b.py").write_bytes(b"bc")
    assert code_fingerprint() != one


def test_sweep_is_bit_identical_and_seeds_the_disk_cache(tmp_path):
    local_sha = hashlib.sha256(run_experiment("fig6a", quick=True).encode()).hexdigest()

    first = SweepRunner(tmp_path, jobs=1, quick=True).run(["fig6a"])
    (ran,) = first.targets
    assert ran.error is None and not ran.cached
    assert ran.output_sha256 == local_sha
    assert ran.sim_stats["processed"] > 0

    # A second sweep over the same cache dir runs nothing.
    again = SweepRunner(tmp_path, jobs=1, quick=True).run(["fig6a"])
    assert again.cache_hits == 1 and again.cache_misses == 0
    assert again.targets[0].output_sha256 == local_sha

    # An unknown id fails in the worker and leaves no cache record.
    before = sorted(tmp_path.iterdir())
    bad = SweepRunner(tmp_path, jobs=1, quick=True).run(["fig99"])
    assert bad.targets[0].error and "fig99" in bad.targets[0].error
    assert bad.targets[0].output_sha256 == ""
    assert sorted(tmp_path.iterdir()) == before
