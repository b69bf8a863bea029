"""Tests for table rendering, the experiment registry and the JSON
artifact helpers."""

import json
import stat

import pytest

from repro.reporting import EXPERIMENTS, format_series, format_table, run_experiment
from repro.reporting.artifacts import artifact_doc, read_json_artifact, write_json_artifact
from repro.shmem.capabilities import TABLE_I, capability_rows
from repro.shmem.constants import Config


# ------------------------------------------------------------------- format
def test_format_table_alignment():
    out = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert lines[2].startswith("a")
    # columns align: the 'bbbb' header starts where '2'/'4' cells start
    col = lines[2].index("bbbb")
    assert lines[4][col] == "2"
    assert lines[5][col] == "4"


def test_format_series_with_unsupported_curve():
    out = format_series("x", {"good": [1.0, 2.0], "missing": None}, [10, 20])
    assert "n/s" in out
    assert "1.00" in out and "2.00" in out


def test_format_table_numeric_cells_coerced():
    out = format_table(["n"], [[42]])
    assert "42" in out


# ------------------------------------------------------------- capabilities
def test_table1_rows_complete():
    rows = capability_rows()
    assert len(rows) == 3
    designs = [r[0] for r in rows]
    assert designs == ["naive", "host-pipeline", "enhanced-gdr"]


def test_capabilities_supports_queries():
    hp = TABLE_I["host-pipeline"]
    assert hp.supports(Config.DD, internode=True)
    assert not hp.supports(Config.HD, internode=True)
    assert hp.supports(Config.HD, internode=False)
    naive = TABLE_I["naive"]
    assert not naive.gpu_domain
    assert not naive.supports(Config.DD, internode=False)
    gdr = TABLE_I["enhanced-gdr"]
    assert all(gdr.supports(c, internode=True) for c in Config)


# ---------------------------------------------------------------- registry
def test_registry_covers_every_paper_artifact():
    expected = {
        "table1", "table2", "table3",
        "fig6a", "fig6b", "fig6c", "fig6d",
        "fig7a", "fig7b", "fig7c", "fig7d",
        "fig8a", "fig8b", "fig8c", "fig8d",
        "fig9a", "fig9b", "fig9c", "fig9d",
        "fig10", "fig11", "fig12",
    }
    assert expected <= set(EXPERIMENTS)


def test_registry_entries_have_claims():
    for exp in EXPERIMENTS.values():
        assert exp.title and exp.paper_claim
        assert callable(exp.run)


@pytest.mark.parametrize("exp_id", ["fig6a", "fig7b", "fig8c", "fig9b"])
def test_quick_latency_experiments_render(exp_id):
    out = run_experiment(exp_id, quick=True)
    assert "bytes" in out
    assert "enhanced-gdr" in out


def test_quick_fig9_shows_baseline_unsupported():
    out = run_experiment("fig9a", quick=True)
    assert "n/s" in out  # the baseline column renders as not-supported


def test_quick_fig10_renders_overlap():
    out = run_experiment("fig10", quick=True)
    assert "overlap" in out and "enhanced-gdr" in out


def test_quick_fig11_renders_improvement():
    out = run_experiment("fig11", quick=True)
    assert "Stencil2D" in out and "%" in out


def test_quick_fig12_renders_improvement():
    out = run_experiment("fig12", quick=True)
    assert "LBM" in out and "MPI two-sided" in out


def test_quick_table2_and_table3():
    assert "OpenSHMEM" in run_experiment("table2", quick=True)
    assert "intra-socket" in run_experiment("table3", quick=True)


# ----------------------------------------------- format robustness
def test_format_series_ragged_curve_raises_valueerror():
    with pytest.raises(ValueError, match="series 'b' has 2 values for 3"):
        format_series("size", {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]}, [1, 2, 4])


def test_format_series_all_none_curves():
    out = format_series("size", {"a": None, "b": None}, [1, 2])
    assert out.count("n/s") == 4


def test_format_series_empty_x_values():
    out = format_series("size", {"a": [], "b": None}, [])
    assert "size" in out  # headers render; no data rows


def test_format_table_empty_rows():
    out = format_table(["col1", "col2"], [])
    lines = out.splitlines()
    assert lines[0].split() == ["col1", "col2"]
    assert set(lines[1]) == {"-"}


def _timed_holds(tracer, holds):
    """Run a process recording ``holds`` 1 ms ``rdma_write`` link spans."""
    from repro.simulator import Simulator

    sim = Simulator()
    tracer.attach(sim)

    def proc(sim):
        for _ in range(holds):
            start = sim.now
            yield sim.timeout(0.001)
            tracer.complete(sim, "rdma_write", "link", "link:n0.hca0.port:fwd", start, leg=0)

    sim.process(proc(sim))
    sim.run()
    return tracer


def test_event_breakdown_raises_on_truncated_trace():
    from repro.obs import SpanTracer
    from repro.reporting.timeline import breakdown_table, event_breakdown

    tracer = _timed_holds(SpanTracer(limit=3), 10)
    assert tracer.truncated
    assert tracer.dropped > 0
    with pytest.raises(ValueError, match="truncated"):
        event_breakdown(tracer)
    partial = event_breakdown(tracer, strict=False)
    assert sum(e.spans for e in partial) <= 3
    table = breakdown_table(tracer)
    assert "WARNING: trace truncated" in table
    assert str(tracer.dropped) in table


def test_breakdown_table_clean_trace_has_no_warning():
    from repro.obs import SpanTracer
    from repro.reporting.timeline import breakdown_table

    tracer = _timed_holds(SpanTracer(), 1)
    assert not tracer.truncated
    assert "WARNING" not in breakdown_table(tracer)


# -------------------------------------------------------- artifact helpers


def test_artifact_roundtrip_and_schema_check(tmp_path):
    path = tmp_path / "x.json"
    write_json_artifact(path, artifact_doc("report", {"n": 1}))
    doc = read_json_artifact(path, kind="report")
    assert doc["schema"] == "repro/report/v1" and doc["n"] == 1
    with pytest.raises(ValueError):
        read_json_artifact(path, kind="other")
    with pytest.raises(ValueError):
        artifact_doc("bad/kind", {})
    with pytest.raises(ValueError):
        artifact_doc("k", {"schema": "clash"})
    # A document that is not an object, or a non-string schema, fails the
    # kind check with ValueError rather than an AttributeError.
    for body in ('{"schema": 5}', "[1, 2]", "7", '"report"', "null"):
        path.write_text(body)
        with pytest.raises(ValueError, match="expected a 'report' artifact"):
            read_json_artifact(path, kind="report")
    assert read_json_artifact(path) is None


def test_artifact_write_is_atomic_no_tmp_droppings(tmp_path):
    path = tmp_path / "a.json"
    for i in range(3):
        write_json_artifact(path, {"i": i})
    assert json.loads(path.read_text()) == {"i": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_artifact_write_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        fh.write("{}\n")
    written = write_json_artifact(tmp_path / "artifact.json", {})
    assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
