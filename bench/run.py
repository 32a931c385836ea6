"""Benchmark of ``repro`` database search: end to end, then layer by layer.

One workload, one pass (the form ``BENCHMARK.json``'s command takes)::

    python3 bench/run.py --workload cli_small --seed 7 --seconds 20 --trace 0

``--trace 0`` is the untraced end-to-end pass and ``--trace 1`` the
traced per-layer pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the pass's metrics.
The exit status is 1 when any score differed from the reference or any
operation failed.

Every workload, both passes, one results file::

    PYTHONPATH=src python bench/run.py --seed 42 --out bench-results.json

``--smoke`` shrinks every input so the whole matrix runs in seconds;
it checks wiring, not speed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from measure import Summary, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Minimum samples per timed quantity (full scale; ``--smoke`` uses 1).
MIN_SAMPLES = 3
SMOKE_SECONDS = 1.0


def declared() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads(BENCHMARK.read_text())


def host_record() -> dict:
    """What the numbers were measured on (taken at the start of a run)."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        )
        commit = head.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def host_line(host: dict) -> str:
    return (
        f"# host: {host['cpus_available']}/{host['cpu_count']} CPUs, "
        f"load {host['loadavg_before'][0]:.2f} -> "
        f"{host['loadavg_after'][0]:.2f}, python {host['python']}, "
        f"numpy {host['numpy']}, commit {host['git_commit']}"
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _entry(value, unit: str, skipped: str) -> dict:
    """One metric in the result: the median plus its spread, or why it
    was skipped."""
    if value is None:
        return {"value": None, "unit": unit, "skipped": skipped}
    if isinstance(value, Summary):
        return {
            "value": value.median, "unit": unit,
            "q1": value.q1, "q3": value.q3, "n": value.n,
        }
    return {"value": value, "unit": unit}


def check_one_search(inp, tally: Tally) -> None:
    """One untimed search of q0 with the workload's flags, checked."""
    from repro.app import CudaSW
    from repro.engine import open_database
    from workloads import GAPS, MATRIX

    target = open_database(inp.store_path) if inp.store_path else inp.db
    result, _ = CudaSW(matrix=MATRIX, gaps=GAPS).search(
        inp.queries[0], target, **inp.search_kwargs()
    )
    tally.record(
        bool((result.scores == inp.references[0]).all()),
        "scores differ from the reference",
    )


def run_pass(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """Run one pass of one workload; returns its result record."""
    import e2e
    import layers
    from workloads import SMOKE, WORKLOADS, prepare

    spec = declared()
    metrics = spec["per_layer" if trace else "end_to_end"]
    w = (SMOKE if smoke else WORKLOADS)[name]
    cpus = len(os.sched_getaffinity(0))
    min_n = 1 if smoke else MIN_SAMPLES
    tally = Tally()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    record: dict = {"pass": "layers" if trace else "e2e"}
    skipped = None
    try:
        inp = prepare(
            w, seed, work,
            reference_queries=1 if trace or w.workers > cpus else None,
        )
        if w.workers > cpus:
            # Too few CPUs for this workload's workers: no number would
            # be honest.  Still check one search so the run proves
            # correctness.
            skipped = (
                f"{cpus} CPU(s) available, fewer than the workload's "
                f"{w.workers} workers"
            )
            check_one_search(inp, tally)
            values: dict = {m["name"]: None for m in metrics}
            notes: dict = {}
        elif trace:
            values, notes = layers.run(
                inp, seconds=seconds, min_n=min_n, tally=tally,
                env=child_env(), root=ROOT, cpus=cpus,
            )
        else:
            values, notes = e2e.run(
                inp, seconds=seconds, min_n=min_n, tally=tally,
                env=child_env(), root=ROOT,
            )
    except Exception:
        traceback.print_exc()
        tally.record(False, traceback.format_exc(limit=1).strip())
        values, notes = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if values:
        names = {m["name"] for m in metrics}
        if set(values) != names:
            raise RuntimeError(
                f"pass emitted {sorted(set(values) - names)} undeclared and "
                f"missed {sorted(names - set(values))} declared metrics"
            )
    skipped = skipped or (
        f"{cpus} CPU(s) available, fewer than the 2 workers this metric "
        "needs"
    )
    record["metrics"] = {
        m["name"]: _entry(values[m["name"]], m["unit"], skipped)
        for m in metrics
        if m["name"] in values
    }
    record.update(
        notes=notes,
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        failures=tally.reasons,
    )
    return record


def render(name: str, seed: int, record: dict) -> list[str]:
    """Human-readable lines for one pass."""
    lines = [
        f"# {name} {record['pass']} seed={seed}: "
        f"{'correct' if record['correct'] else 'INCORRECT'}, "
        f"{record['attempted']} attempted, {record['failed']} failed "
        f"(failed_frac {record['failed_frac']:.3g})"
    ]
    for reason in record["failures"]:
        lines.append(f"#   failure: {reason}")
    if record["notes"]:
        lines.append("# " + ", ".join(
            f"{k} {v:.4g}" for k, v in record["notes"].items()
        ))
    for metric, e in record["metrics"].items():
        if e["value"] is None:
            lines.append(f"{metric:<30} skipped: {e['skipped']}")
        elif "n" in e:
            lines.append(
                f"{metric:<30} {e['value']:>14.6g} {e['unit']:<10} "
                f"IQR [{e['q1']:.6g}, {e['q3']:.6g}] n={e['n']}"
            )
        else:
            lines.append(f"{metric:<30} {e['value']:>14.6g} {e['unit']}")
    return lines


def document(host: dict, seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "host": host, "seed": seed, "seconds": seconds, "smoke": smoke,
        "workloads": {},
    }


def run_one(args: argparse.Namespace, seconds: float) -> int:
    host = host_record()
    record = run_pass(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke
    )
    host["loadavg_after"] = list(os.getloadavg())
    print(host_line(host))
    print("\n".join(render(args.workload, args.seed, record)))
    if args.out:
        doc = document(host, args.seed, seconds, args.smoke)
        doc["workloads"][args.workload] = {record["pass"]: record}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {
                key: e[key] for key in ("value", "unit", "skipped") if key in e
            }
            for k, e in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, seconds: float) -> int:
    from workloads import WORKLOADS

    host = host_record()
    doc = document(host, args.seed, seconds, args.smoke)
    status = 0
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in WORKLOADS:
        doc["workloads"][name] = {}
        for trace in (0, 1):
            fd, part = tempfile.mkstemp(
                suffix=".json", dir=ROOT / ".bench_work"
            )
            os.close(fd)
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", part,
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True,
                text=True, check=False,
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            print("\n".join(lines[1:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            try:
                part_doc = json.loads(Path(part).read_text())
                doc["workloads"][name].update(part_doc["workloads"][name])
            except (OSError, ValueError, KeyError):
                status = 1
            os.unlink(part)
    host["loadavg_after"] = list(os.getloadavg())
    print(host_line(host))
    print("# cold-search breakdown (share of a traced cold search):")
    for name, entry in doc["workloads"].items():
        notes = entry.get("layers", {}).get("notes", {})
        print(f"#   {name:<20} " + "  ".join(
            f"{k.removeprefix('cold_').removesuffix('_share')} {v:.3f}"
            for k, v in notes.items()
            if k.startswith("cold_") and k.endswith("_share")
        ))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"# results written to {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default=None,
        help="run one workload's pass (default: every workload, both "
        "passes)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measurement budget per pass (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 0 = end-to-end pass, 1 = per-layer pass",
    )
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one sample per quantity")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = declared()
    names = [wl["name"] for wl in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload is None:
        return run_all(args, seconds)
    return run_one(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
