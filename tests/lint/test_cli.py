"""The repro-lint CLI: exit codes, output formats, rule selection, and
the integration check that the shipped tree lints clean."""

import io
import json
from pathlib import Path

from repro.lint import cli
from repro.lint.rules import rule_ids

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "def fine() -> int:\n    return 1\n"
DIRTY = (
    "import numpy as np\n"
    "\n"
    "def f(n):\n"
    "    return np.zeros(n)\n"
)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def make_tree(tmp_path, source=DIRTY):
    pkg = tmp_path / "src" / "repro" / "kernels"
    pkg.mkdir(parents=True)
    (pkg / "k.py").write_text(source)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        make_tree(tmp_path, CLEAN)
        code, out, _ = invoke("--root", str(tmp_path))
        assert code == cli.EXIT_CLEAN
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path):
        make_tree(tmp_path)
        code, out, _ = invoke("--root", str(tmp_path))
        assert code == cli.EXIT_FINDINGS
        assert "RPL102" in out

    def test_missing_path_exits_two(self, tmp_path):
        code, _, err = invoke("--root", str(tmp_path), "no-such-dir")
        assert code == cli.EXIT_USAGE
        assert "no-such-dir" in err

    def test_bad_flag_exits_two(self):
        code, _, _ = invoke("--definitely-not-a-flag")
        assert code == cli.EXIT_USAGE


class TestFormats:
    def test_json_report_schema(self, tmp_path):
        make_tree(tmp_path)
        code, out, _ = invoke("--root", str(tmp_path), "--format", "json")
        assert code == cli.EXIT_FINDINGS
        report = json.loads(out)
        assert report["schema"] == cli.REPORT_SCHEMA
        assert report["version"] == cli.REPORT_VERSION
        assert report["summary"]["total"] == 1
        assert report["summary"]["by_rule"] == {"RPL102": 1}
        (finding,) = report["findings"]
        assert finding["rule"] == "RPL102"
        assert finding["path"].endswith("kernels/k.py")
        assert {
            "line", "col", "message", "severity", "qualname", "context"
        } <= finding.keys()
        assert finding["qualname"] == "f"
        assert finding["context"] == "    return np.zeros(n)"

    def test_github_annotations(self, tmp_path):
        make_tree(tmp_path)
        code, out, _ = invoke("--root", str(tmp_path), "--format", "github")
        assert code == cli.EXIT_FINDINGS
        assert out.startswith("::")
        assert "RPL102" in out

    def test_output_file_written_for_text_format(self, tmp_path):
        make_tree(tmp_path)
        report_path = tmp_path / "report.json"
        invoke("--root", str(tmp_path), "--output", str(report_path))
        report = json.loads(report_path.read_text())
        assert report["schema"] == cli.REPORT_SCHEMA

    def test_list_rules_catalogue(self):
        code, out, _ = invoke("--list-rules")
        assert code == cli.EXIT_CLEAN
        for rule_id in rule_ids():
            assert rule_id in out


class TestRuleSelection:
    def test_select_and_ignore(self, tmp_path):
        make_tree(tmp_path)
        code, _, _ = invoke(
            "--root", str(tmp_path), "--select", "RPL103"
        )
        assert code == cli.EXIT_CLEAN
        code, _, _ = invoke(
            "--root", str(tmp_path), "--ignore", "dtype-stability"
        )
        assert code == cli.EXIT_CLEAN


class TestOnTheRealTree:
    def test_src_lints_clean(self):
        # repro-lint src/ exits 0 on the shipped tree: every finding
        # fails the run.
        code, out, _ = invoke("--root", str(REPO_ROOT), "src/")
        assert code == cli.EXIT_CLEAN, out
