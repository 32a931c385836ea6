"""Verdict rules of ``bench/compare.py`` on synthetic result sets."""

from __future__ import annotations

import json

import compare


def test_consistent_gain_over_ten_pairs_is_improved():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    change = [p * 0.8 for p in parent]
    v = compare.judge(parent, change, better="lower", bound=0.1)
    assert (v.verdict, v.wins, v.pairs) == ("improved", 10, 10)


def test_higher_is_better_direction():
    parent = [100.0 + i for i in range(10)]
    change = [p * 1.3 for p in parent]
    assert compare.judge(
        parent, change, better="higher", bound=0.1
    ).verdict == "improved"
    assert compare.judge(
        change, parent, better="higher", bound=0.1
    ).verdict == "worse"


def test_gain_needs_ten_pairs():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02]
    change = [p * 0.8 for p in parent]
    v = compare.judge(parent, change, better="lower", bound=0.1)
    assert v.verdict == "unchanged"


def test_ties_count_for_neither_side():
    parent = [1.0 + 0.01 * i for i in range(10)]
    # Eight wins and two ties: 8/10 is below the nine-tenths rule.
    change = [p * 0.7 for p in parent[:8]] + parent[8:]
    v = compare.judge(parent, change, better="lower", bound=0.1)
    assert v.wins == 8
    assert v.verdict != "improved"


def test_gain_must_beat_parent_spread():
    # Wins every pair, but by less than the parent's own IQR.
    parent = [1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4]
    change = [p - 0.01 for p in parent]
    v = compare.judge(parent, change, better="lower", bound=0.5)
    assert v.wins == 10
    assert v.verdict == "unchanged"


def test_median_worse_than_bound_is_worse():
    parent = [2.0 + 0.001 * i for i in range(10)]
    change = [p * 1.2 for p in parent]
    assert compare.judge(
        parent, change, better="lower", bound=0.1
    ).verdict == "worse"


def test_slower_within_bound_is_unchanged():
    parent = [2.0 + 0.001 * i for i in range(10)]
    change = [p * 1.05 for p in parent]
    assert compare.judge(
        parent, change, better="lower", bound=0.1
    ).verdict == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 1.1, 1.0]
    change = list(reversed(parent))
    assert compare.judge(
        parent, change, better="lower", bound=0.1
    ).verdict == "unresolved"


def test_wide_spread_but_every_change_run_better_is_resolved():
    # Too few pairs to claim a gain, too noisy for the bound, yet every
    # change run beats every parent run: not unresolved.
    parent = [2.0, 2.6, 2.2, 2.4, 2.8]
    change = [1.0, 1.9, 1.2, 1.5, 1.1]
    v = compare.judge(parent, change, better="lower", bound=0.01)
    assert v.verdict == "unchanged"


def test_skipped_rows_have_no_verdict():
    v = compare.judge([None] * 10, [None] * 10, better="lower", bound=0.1)
    assert v.verdict == "skipped"


def _doc(values: dict[str, float]) -> dict:
    return {"workloads": {"cli_small": {"e2e": {"metrics": {
        name: {"value": value, "unit": "s"} for name, value in values.items()
    }}}}}


def _write_set(tmp_path, tag, scale):
    paths = []
    for i in range(10):
        path = tmp_path / f"{tag}{i}.json"
        base = 1.0 + 0.002 * i
        path.write_text(json.dumps(_doc({
            "search_s": base * scale, "search_rss_mb": 100.0 + i * 0.01,
            "mcups": 50.0 / scale, "setup_s": base,
        })))
        paths.append(str(path))
    return paths


def test_main_reports_regression_and_exits_nonzero(tmp_path, capsys):
    parent = _write_set(tmp_path, "p", 1.0)
    slower = _write_set(tmp_path, "c", 1.5)
    assert compare.main(["--parent", *parent, "--change", *slower]) == 1
    out = capsys.readouterr().out
    assert "worse" in out


def test_main_same_commit_agrees(tmp_path, capsys):
    first = _write_set(tmp_path, "a", 1.0)
    second = _write_set(tmp_path, "b", 1.0)
    # Workloads absent from the files come out skipped, not failing.
    assert compare.main(["--parent", *first, "--change", *second]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert any("cli_small" in r and "unchanged" in r for r in rows)


def test_any_rise_from_a_zero_parent_is_worse():
    assert compare.judge(
        [0.0] * 10, [1.0] * 10, better="lower", bound=0.1
    ).verdict == "worse"
