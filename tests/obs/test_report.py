"""Unit tests for the RunReport document."""

import json

import pytest

from repro.obs import SCHEMA_VERSION, RunReport, collect


def _session():
    with collect("full") as instr:
        with instr.span("search"):
            with instr.span("pack"):
                instr.count("engine.pack.residues", 100)
            with instr.span("sweep"):
                instr.count("engine.sweep.useful_cells", 5000)
                instr.observe("engine.sweep.group_seconds", 0.02)
                instr.observe("engine.sweep.group_seconds", 0.4)
        with instr.span("rank"):
            pass
    return instr


class TestRunReport:
    def test_schema_and_roundtrip(self, tmp_path):
        report = RunReport.from_instrumentation(
            _session(), meta={"query_id": "Q1"}
        )
        doc = report.to_dict()
        assert doc["schema"] == "repro.run_report"
        assert doc["schema_version"] == SCHEMA_VERSION == 3
        assert doc["collect"] == "full"
        assert doc["counters"]["engine.pack.residues"] == 100
        assert doc["meta"]["query_id"] == "Q1"
        assert doc["engine"] is None and doc["model"] is None
        # Schema v2 fields: process id, histograms, worker lanes.
        assert doc["pid"] > 0
        assert doc["worker_lanes"] == []
        hist = doc["histograms"]["engine.sweep.group_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.42)
        assert len(hist["bucket_counts"]) == len(hist["bounds"]) + 1

        path = report.write(tmp_path / "run.json")
        loaded = json.loads(path.read_text())
        assert loaded == doc

    def test_span_seconds_paths(self):
        report = RunReport.from_instrumentation(_session())
        seconds = report.span_seconds()
        assert set(seconds) == {
            "search",
            "search/pack",
            "search/sweep",
            "rank",
        }
        assert all(v >= 0.0 for v in seconds.values())

    def test_counters_mode_has_empty_spans(self):
        with collect("counters") as instr:
            instr.count("x", 1)
        report = RunReport.from_instrumentation(instr)
        assert report.spans == ()
        assert report.counters == {"x": 1}
        assert "counters" in report.render_profile()

    def test_render_profile_sections(self):
        report = RunReport.from_instrumentation(_session())
        text = report.render_profile()
        assert "== span tree ==" in text
        assert "== counters ==" in text
        assert "== histograms ==" in text
        assert "search" in text and "rank" in text
        assert "engine.pack.residues" in text
        assert "engine.sweep.group_seconds" in text
        assert "p95" in text

    def test_render_profile_with_engine_section(self):
        from repro.engine import EngineReport

        er = EngineReport(
            group_size=4,
            workers=1,
            group_sizes=(2,),
            group_max_lengths=(10,),
            group_efficiencies=(0.75,),
            residues=15,
            padded_cells=20,
            lane_engines=("gotoh",),
            split_threshold=7,
        )
        report = RunReport.from_instrumentation(
            _session(), engine_report=er
        )
        assert report.engine["padding_efficiency"] == pytest.approx(0.75)
        # The kernels come with the split they were planned at.
        assert report.engine["lane_engines"] == ["gotoh"]
        assert report.engine["split_threshold"] == 7
        assert "engine packing" in report.render_profile()

    def test_model_section_from_search_report(self):
        import numpy as np

        from repro.app import CudaSW
        from repro.sequence.database import Database

        db = Database.from_lengths(
            np.array([100, 200, 4000], dtype=np.int64), name="d"
        )
        app = CudaSW()
        sr = app.predict(150, db)
        report = RunReport.from_instrumentation(
            _session(), search_report=sr
        )
        m = report.model
        assert m["query_length"] == 150
        assert m["n_intra_sequences"] == 1
        assert m["total_cells"] == 150 * 4300
        assert m["intra_global_transactions"] > 0
        json.dumps(report.to_dict())  # fully serializable


class TestTraceExport:
    def test_trace_document_shape(self, tmp_path):
        report = RunReport.from_instrumentation(_session())
        doc = report.to_trace_dict()
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} >= {"search", "pack", "rank"}
        for e in complete:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        # Parent-only session: a single pid lane, named by metadata.
        assert {e["pid"] for e in complete} == {report.pid}
        meta_events = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta_events)

    def test_trace_children_nest_within_parents(self):
        report = RunReport.from_instrumentation(_session())
        events = [
            e
            for e in report.to_trace_dict()["traceEvents"]
            if e["ph"] == "X"
        ]
        search = next(e for e in events if e["name"] == "search")
        pack = next(e for e in events if e["name"] == "pack")
        assert search["ts"] <= pack["ts"]
        assert pack["ts"] + pack["dur"] <= search["ts"] + search["dur"] + 1e-3

    def test_write_trace_is_valid_json(self, tmp_path):
        report = RunReport.from_instrumentation(_session())
        path = report.write_trace(tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded == report.to_trace_dict()
        assert loaded["otherData"]["collect"] == "full"
