"""Compare a parent and a change result set, end-to-end metric by metric.

    python bench/compare.py --parent base/*.json --change new/*.json

Each file is a results document written by ``bench/run.py --out``.
Files pair up in the order given: pair ``i`` is parent file ``i`` and
change file ``i``, which should have run back to back, alternating
which side ran first.  Every (workload, end-to-end metric) row gets one
verdict:

``improved``
    at least 10 pairs, the change wins at least nine tenths of them
    (ties count for neither side), and the medians differ in the
    change's favour by more than the parent's interquartile range;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    neither, and either side's spread (IQR over median) is wider than
    the bound, unless every change run reads better than every parent
    run;
``unchanged``
    everything else.  ``skipped`` marks rows with no numbers (too few
    CPUs for the workload's workers).

The exit status is 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from measure import Summary

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    verdict: str
    pairs: int
    wins: int
    parent: Summary | None = None
    change: Summary | None = None


def _spread(s: Summary) -> float:
    return math.inf if s.median == 0 else (s.q3 - s.q1) / abs(s.median)


def judge(
    parent: list[float | None],
    change: list[float | None],
    *,
    better: str,
    bound: float,
) -> Verdict:
    """The verdict of one (workload, metric) row; see the module doc."""
    if not parent or not change or None in parent or None in change:
        return Verdict("skipped", 0, 0)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    ps, cs = Summary.of(parent), Summary.of(change)
    gain = sign * (cs.median - ps.median)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > ps.q3 - ps.q1
    ):
        verdict = "improved"
    elif -gain > bound * abs(ps.median):
        verdict = "worse"
    elif max(_spread(ps), _spread(cs)) > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Verdict(verdict, len(pairs), wins, ps, cs)


def load_values(paths: list[str]) -> dict[tuple[str, str], list]:
    """``(workload, metric) -> [value per file]`` over end-to-end metrics."""
    values: dict[tuple[str, str], list] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for workload, passes in doc["workloads"].items():
            if "e2e" not in passes:
                continue
            for metric, entry in passes["e2e"]["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    entry["value"]
                )
    return values


def compare(
    parent_paths: list[str], change_paths: list[str], spec: dict
) -> list[tuple[str, str, str, Verdict]]:
    parent = load_values(parent_paths)
    change = load_values(change_paths)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            rows.append((
                workload, m["name"], m["unit"],
                judge(
                    parent.get(key, []), change.get(key, []),
                    better=m["better"], bound=m["bound"],
                ),
            ))
    return rows


def render(rows: list[tuple[str, str, str, Verdict]]) -> str:
    lines = [
        f"{'workload':<20} {'metric':<14} {'parent median [IQR]':>30} "
        f"{'change median [IQR]':>30} {'delta':>8} {'wins':>7}  verdict"
    ]
    for workload, metric, unit, v in rows:
        if v.parent is None or v.change is None:
            lines.append(f"{workload:<20} {metric:<14} {'':>30} {'':>30} "
                         f"{'':>8} {'':>7}  {v.verdict}")
            continue
        p, c = v.parent, v.change
        delta = (c.median - p.median) / p.median if p.median else math.nan
        lines.append(
            f"{workload:<20} {metric:<14} "
            f"{f'{p.median:.4g} [{p.q1:.4g}, {p.q3:.4g}] {unit}':>30} "
            f"{f'{c.median:.4g} [{c.q1:.4g}, {c.q3:.4g}] {unit}':>30} "
            f"{delta:>+8.1%} {f'{v.wins}/{v.pairs}':>7}  {v.verdict}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--parent", nargs="+", required=True,
                        help="parent result files, in run order")
    parser.add_argument("--change", nargs="+", required=True,
                        help="change result files, in run order")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, json.loads(BENCHMARK.read_text()))
    print(render(rows))
    bad = [r for r in rows if r[3].verdict in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
