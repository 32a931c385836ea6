"""Baseline round-trip: write, load, filter, ratchet semantics."""

import json

import pytest

from repro.lint.baseline import BASELINE_SCHEMA, Baseline
from repro.lint.findings import Finding


def make_finding(message="np.zeros without dtype", line=10, qualname="",
                 context=""):
    return Finding(
        path="repro/kernels/k.py",
        line=line,
        col=4,
        rule_id="RPL102",
        rule_name="dtype-stability",
        message=message,
        qualname=qualname,
        context=context,
    )


class TestRoundTrip:
    def test_write_then_load_absorbs_same_findings(self, tmp_path):
        findings = [make_finding(), make_finding(message="other", line=20)]
        path = tmp_path / "baseline.json"
        Baseline().write(path, findings)
        loaded = Baseline.load(path)
        new, absorbed = loaded.filter(findings)
        assert new == []
        assert absorbed == 2

    def test_fingerprint_is_line_insensitive(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().write(path, [make_finding(line=10)])
        moved = [make_finding(line=99)]  # same defect, file edited above it
        new, absorbed = Baseline.load(path).filter(moved)
        assert new == []
        assert absorbed == 1

    def test_second_instance_overflows_the_budget(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().write(path, [make_finding()])
        two = [make_finding(line=10), make_finding(line=30)]
        new, absorbed = Baseline.load(path).filter(two)
        assert absorbed == 1
        assert len(new) == 1  # the ratchet: duplicates are new findings

    def test_new_finding_is_not_absorbed(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().write(path, [make_finding()])
        fresh = [make_finding(message="a brand new defect")]
        new, absorbed = Baseline.load(path).filter(fresh)
        assert absorbed == 0
        assert len(new) == 1


class TestFingerprintStability:
    def test_fingerprint_survives_context_whitespace_change(self, tmp_path):
        path = tmp_path / "baseline.json"
        original = make_finding(
            qualname="sweep", context="h = np.zeros(n)"
        )
        Baseline().write(path, [original])
        reformatted = make_finding(
            line=42, qualname="sweep", context="h  =  np.zeros( n )"
        )
        new, absorbed = Baseline.load(path).filter([reformatted])
        assert new == []
        assert absorbed == 1

    def test_moved_to_other_function_is_new(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().write(
            path, [make_finding(qualname="sweep", context="h = np.zeros(n)")]
        )
        elsewhere = [
            make_finding(qualname="other", context="h = np.zeros(n)")
        ]
        new, absorbed = Baseline.load(path).filter(elsewhere)
        assert absorbed == 0
        assert len(new) == 1


class TestSchema:
    def test_document_shape(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().write(
            path, [make_finding(qualname="kernel", context="h = x + y")]
        )
        doc = json.loads(path.read_text())
        assert doc["schema"] == BASELINE_SCHEMA
        assert doc["version"] == 2
        (entry,) = doc["findings"].values()
        assert entry == {
            "rule": "RPL102",
            "path": "repro/kernels/k.py",
            "qualname": "kernel",
            "context": "h = x + y",
            "message": "np.zeros without dtype",
            "count": 1,
        }

    def test_missing_file_is_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_foreign_schema_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something.else", "findings": {}}')
        with pytest.raises(ValueError, match="not a lint baseline"):
            Baseline.load(path)

    def test_other_version_is_rejected(self, tmp_path):
        # A version-1 file (rule+path+message keys) is refused, not
        # migrated: --update-baseline regenerates it.
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "schema": BASELINE_SCHEMA,
            "version": 1,
            "findings": {"0123456789abcdef": {"count": 1}},
        }))
        with pytest.raises(ValueError, match="version=1"):
            Baseline.load(path)
