"""Tests for the command-line interface."""

import argparse
import io

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sequence import plant_motif, random_protein, write_fasta


@pytest.fixture(scope="module")
def fasta_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    query = random_protein(80, rng, id="Q1")
    host, _ = plant_motif(query, 300, rng, id="HIT1")
    db = [host] + [random_protein(200, rng, id=f"D{i}") for i in range(4)]
    paths = {
        "query": tmp / "query.fasta",
        "db": tmp / "db.fasta",
        "subject": tmp / "subject.fasta",
    }
    write_fasta([query], paths["query"])
    write_fasta(db, paths["db"])
    write_fasta([db[1]], paths["subject"])
    return {k: str(v) for k, v in paths.items()}


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestAlign:
    def test_local(self, fasta_files):
        code, text = run_cli(
            ["align", fasta_files["query"], fasta_files["query"]]
        )
        assert code == 0
        assert "identity=100.0%" in text
        assert "80M" in text

    def test_global_mode(self, fasta_files):
        code, text = run_cli(
            ["align", fasta_files["query"], fasta_files["subject"],
             "--mode", "global"]
        )
        assert code == 0
        assert "global alignment" in text

    def test_custom_gap_model(self, fasta_files):
        code, text = run_cli(
            ["align", fasta_files["query"], fasta_files["query"],
             "--gap-open", "5", "--gap-extend", "1"]
        )
        assert code == 0

    def test_custom_matrix_file(self, fasta_files, tmp_path):
        from repro.alphabet import BLOSUM62, format_ncbi_matrix

        path = tmp_path / "custom.txt"
        path.write_text(format_ncbi_matrix(BLOSUM62))
        code, text = run_cli(
            ["align", fasta_files["query"], fasta_files["query"],
             "--matrix", str(path)]
        )
        assert code == 0
        assert "identity=100.0%" in text


class TestSearch:
    def test_planted_hit_ranks_first(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"], "--top", "3"]
        )
        assert code == 0
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[1].startswith("HIT1")
        assert "GCUPs" in text

    def test_evalue_filter(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--max-evalue", "1e-10"]
        )
        assert code == 0
        assert "HIT1" in text
        assert "D1" not in text

    def test_device_and_kernel_options(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--device", "C2050", "--kernel", "original"]
        )
        assert code == 0
        assert "Tesla C2050" in text

    def test_batched_engine_is_default_and_reports_packing(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"]]
        )
        assert code == 0
        assert "scored by batched engine" in text
        assert "padding efficiency" in text

    def test_engine_choices_agree(self, fasta_files):
        def hits(engine):
            code, text = run_cli(
                ["search", fasta_files["query"], fasta_files["db"],
                 "--engine", engine, "--top", "3"]
            )
            assert code == 0
            return [ln for ln in text.splitlines() if not ln.startswith("#")]

        assert hits("antidiagonal") == hits("batched")

    def test_explicit_non_batched_engine_has_no_packing_line(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--engine", "antidiagonal"]
        )
        assert code == 0
        assert "padding efficiency" not in text

    def test_workers_option(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--workers", "2"]
        )
        assert code == 0
        assert "scored by batched engine" in text

    def test_unknown_engine_rejected(self, fasta_files):
        with pytest.raises(SystemExit):
            run_cli(
                ["search", fasta_files["query"], fasta_files["db"],
                 "--engine", "warp"]
            )

    def test_engine_line_printed_for_every_engine(self, fasta_files):
        for engine in ("scalar", "antidiagonal", "batched"):
            code, text = run_cli(
                ["search", fasta_files["query"], fasta_files["db"],
                 "--engine", engine, "--top", "2"]
            )
            assert code == 0
            assert f"scored by {engine} engine" in text


class TestSearchFaultFlags:
    def test_fault_flags_accepted_and_results_unchanged(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--workers", "2", "--timeout", "30", "--retries", "1",
             "--deadline", "60"]
        )
        assert code == 0
        assert text.splitlines()[2].startswith("HIT1")

    def test_deadline_exceeded_exit_code_and_message(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--deadline", "1e-9"]
        )
        assert code == 3
        assert "deadline" in text
        assert "/5 sequences scored" in text

    def test_invalid_fault_flag_values_rejected(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--timeout", "-1"]
        )
        assert code == 2
        assert "error:" in text

    def test_fault_flags_with_non_batched_engine_rejected(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--engine", "scalar", "--retries", "3"]
        )
        assert code == 2
        assert "batched" in text


class TestSearchDurabilityFlags:
    def test_scores_out_writes_full_tsv(self, fasta_files, tmp_path):
        path = tmp_path / "scores.tsv"
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--scores-out", str(path)]
        )
        assert code == 0
        assert f"# scores written to {path}" in text
        lines = path.read_text().splitlines()
        assert lines[0] == "# query\tQ1"
        assert lines[1] == "# index\tid\tlength\tscore"
        assert len(lines) == 2 + 5  # one row per database sequence
        assert lines[2].split("\t")[1] == "HIT1"

    def test_group_size_flag_changes_packing(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--group-size", "2"]
        )
        assert code == 0
        assert "groups of <= 2 lanes" in text

    def test_checkpoint_flag_writes_journal(self, fasta_files, tmp_path):
        journal = tmp_path / "run.wal"
        code, _ = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--checkpoint", str(journal)]
        )
        assert code == 0
        assert journal.read_bytes().startswith(b"RPROWAL1")

    def test_resume_replays_journal(self, fasta_files, tmp_path):
        journal = tmp_path / "run.wal"
        argv = ["search", fasta_files["query"], fasta_files["db"],
                "--checkpoint", str(journal)]
        code, first = run_cli(argv)
        assert code == 0
        code, second = run_cli(argv + ["--resume"])
        assert code == 0
        hits = lambda text: [  # noqa: E731
            ln for ln in text.splitlines() if not ln.startswith("#")
        ]
        assert hits(second) == hits(first)

    def test_resume_without_checkpoint_rejected(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"], "--resume"]
        )
        assert code == 2
        assert "--checkpoint" in text

    def test_negative_memory_budget_rejected(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--memory-budget-mb", "-4"]
        )
        assert code == 2
        assert "error:" in text

    def test_deadline_with_checkpoint_prints_resume_hint(
        self, fasta_files, tmp_path
    ):
        journal = tmp_path / "dead.wal"
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--deadline", "1e-9", "--checkpoint", str(journal)]
        )
        assert code == 3
        assert f"checkpoint journal: {journal}" in text
        assert "--resume" in text


class TestSearchObservability:
    def test_profile_prints_span_tree_and_counters(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"], "--profile"]
        )
        assert code == 0
        assert "== span tree ==" in text
        assert "== counters ==" in text
        # The phases the issue demands visible in the rendered tree.
        for phase in ("pack", "sweep", "fan_out", "rank", "search"):
            assert phase in text
        assert "engine.pack.padded_cells" in text
        # The hit table still leads the output.
        assert text.index("HIT1") < text.index("== span tree ==")

    def test_metrics_out_writes_run_report_json(self, fasta_files, tmp_path):
        import json

        path = tmp_path / "run.json"
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--metrics-out", str(path)]
        )
        assert code == 0
        assert f"# metrics written to {path}" in text
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.run_report"
        assert doc["meta"]["query_id"] == "Q1"
        assert doc["meta"]["database_sequences"] == 5
        # Counter totals agree bit-exactly with the engine section.
        assert (
            doc["counters"]["engine.pack.padded_cells"]
            == doc["engine"]["padded_cells"]
        )
        assert (
            doc["counters"]["engine.pack.residues"]
            == doc["engine"]["residues"]
        )
        assert doc["model"]["query_length"] == 80
        paths = {s["name"] for s in doc["spans"]}
        assert "search" in paths and "rank" in paths

    def test_profile_with_non_batched_engine(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--engine", "antidiagonal", "--profile"]
        )
        assert code == 0
        assert "pair_loop" in text
        assert "engine.pairs_scored" in text

    def test_no_observability_output_by_default(self, fasta_files):
        code, text = run_cli(
            ["search", fasta_files["query"], fasta_files["db"]]
        )
        assert code == 0
        assert "span tree" not in text
        assert "metrics written" not in text


class TestPredict:
    def test_profile(self):
        code, text = run_cli(
            ["predict", "--profile", "swissprot", "--scale", "0.05",
             "--query-length", "567"]
        )
        assert code == 0
        assert "modeled GCUPs" in text
        assert "inter-task" in text

    def test_fasta_database(self, fasta_files):
        code, text = run_cli(["predict", "--database", fasta_files["db"]])
        assert code == 0
        assert "modeled GCUPs" in text

    def test_explain_breakdown(self):
        code, text = run_cli(
            ["predict", "--profile", "swissprot", "--scale", "0.05",
             "--explain"]
        )
        assert code == 0
        assert "inter-task kernel breakdown" in text
        assert "intra-task kernel breakdown" in text
        assert "bound by:" in text and "roofline" in text

    def test_auto_threshold_flag(self):
        code, text = run_cli(
            ["predict", "--profile", "tair", "--scale", "0.2",
             "--threshold", "auto", "--device", "C2050"]
        )
        assert code == 0
        assert "(auto-detected)" in text

    def test_bad_threshold_string(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            run_cli(["predict", "--profile", "tair", "--threshold", "soon"])

    def test_profile_aliases_cover_all_six(self):
        from repro.cli import _PROFILE_ALIASES
        from repro.sequence.synthetic import PAPER_DATABASES

        assert set(_PROFILE_ALIASES.values()) == {
            p.name for p in PAPER_DATABASES
        }


class TestExhibit:
    def test_figure2(self):
        code, text = run_cli(["exhibit", "figure2"])
        assert code == 0
        assert "inter_gcups" in text

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["exhibit", "nonsense"])


class TestDbStore:
    @pytest.fixture(scope="class")
    def store_path(self, fasta_files, tmp_path_factory):
        path = tmp_path_factory.mktemp("clidb") / "db.rdb"
        code, text = run_cli(
            ["db", "build", fasta_files["db"], str(path),
             "--comment", "cli test"]
        )
        assert code == 0, text
        return str(path)

    def test_build_prints_summary(self, fasta_files, tmp_path):
        code, text = run_cli(
            ["db", "build", fasta_files["db"], str(tmp_path / "b.rdb")]
        )
        assert code == 0
        assert "fingerprint:" in text
        assert "sequences:    5" in text

    def test_build_missing_fasta_is_usage_error(self, tmp_path):
        code, text = run_cli(
            ["db", "build", str(tmp_path / "no.fasta"),
             str(tmp_path / "x.rdb")]
        )
        assert code == 2
        assert "error:" in text

    def test_verify_deep(self, store_path):
        code, text = run_cli(["db", "verify", store_path, "--deep"])
        assert code == 0
        assert "passed deep validation" in text

    def test_info_reads_index(self, store_path):
        code, text = run_cli(["db", "info", store_path])
        assert code == 0
        assert "cli test" in text
        assert "lengths:" in text

    def test_search_with_store_matches_fasta(self, fasta_files, store_path):
        code, base = run_cli(
            ["search", fasta_files["query"], fasta_files["db"],
             "--top", "3"]
        )
        assert code == 0
        code, from_store = run_cli(
            ["search", fasta_files["query"], "--db", store_path,
             "--top", "3"]
        )
        assert code == 0
        strip = lambda t: [
            ln for ln in t.splitlines() if not ln.startswith("#")
        ]
        assert strip(from_store) == strip(base)

    def test_search_requires_some_database(self, fasta_files):
        code, text = run_cli(["search", fasta_files["query"]])
        assert code == 2
        assert "--db" in text

    def test_fallback_needs_fasta_positional(self, fasta_files, store_path):
        code, text = run_cli(
            ["search", fasta_files["query"], "--db", store_path,
             "--db-fallback"]
        )
        assert code == 2

    def test_corrupt_store_exits_4(self, fasta_files, store_path, tmp_path):
        data = open(store_path, "rb").read()
        bad = tmp_path / "bad.rdb"
        bad.write_bytes(data[: len(data) - 9])
        code, text = run_cli(
            ["search", fasta_files["query"], "--db", str(bad)]
        )
        assert code == 4
        assert "not a trustworthy database store" in text
        code, text = run_cli(["db", "verify", str(bad)])
        assert code == 4

    def test_fallback_degrades_to_fasta(
        self, fasta_files, store_path, tmp_path
    ):
        data = open(store_path, "rb").read()
        bad = tmp_path / "bad.rdb"
        bad.write_bytes(data[:64])
        with pytest.warns(UserWarning):
            code, text = run_cli(
                ["search", fasta_files["query"], fasta_files["db"],
                 "--db", str(bad), "--db-fallback", "--top", "3"]
            )
        assert code == 0
        assert "warning" in text
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[1].startswith("HIT1")

    def test_profile_includes_db_open_span(self, fasta_files, store_path):
        code, text = run_cli(
            ["search", fasta_files["query"], "--db", store_path,
             "--profile", "--top", "3"]
        )
        assert code == 0
        assert "db_open" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_builds(self):
        parser = build_parser()
        assert "align" in parser.format_help()
        (subparsers,) = (
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == {
            "align", "search", "predict", "exhibit", "db",
        }

    def test_db_subcommands_registered(self):
        help_text = build_parser().format_help()
        assert "db" in help_text
        with pytest.raises(SystemExit):
            build_parser().parse_args(["db"])
