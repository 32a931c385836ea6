"""The untraced end-to-end pass: what a user of ``repro`` waits for.

Runs with the program's observability collect mode ``off``.  Three
kinds of timed operation:

* ``repro db build`` children on the workload's FASTA (``setup_s``);
* cold ``repro search`` children (``search_s``, ``search_rss_mb``):
  interpreter start, imports, database load or store open, Karlin
  calibration, sweep, ranking and the ``--scores-out`` TSV;
* warm in-process ``search_batch`` campaigns over every query
  (``mcups``), after one untimed warm-up query.

Every time is corrected for host speed by a reference probe beside it
(see :class:`measure.HostClock`): the child-process probe for the
children, the NumPy probe for the warm campaigns.  Raw medians and the
host factors go to the detailed record.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.app import CudaSW, search_batch
from repro.engine import DatabaseStore, open_database

from measure import (
    CHILD_PROBE_REF_S,
    NUMPY_PROBE_REF_S,
    HostClock,
    NumpyProbe,
    Summary,
    Tally,
    child_probe,
    run_child,
)
from workloads import GAPS, MATRIX, Inputs, read_scores_tsv

#: ``repro db build`` repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of the sampling time given to cold searches.  A cold start is
#: mostly interpreter work, whose per-process spread on a shared host is
#: several times that of the warm NumPy sweeps, so it gets more samples.
COLD_SHARE = 0.8


def run(
    inp: Inputs,
    *,
    seconds: float,
    min_n: int,
    tally: Tally,
    env: dict[str, str],
    root: Path,
) -> tuple[dict[str, Summary], dict[str, float]]:
    """Returns the end-to-end metrics plus raw medians and host factors."""
    started = time.perf_counter()
    work = inp.workdir
    python = sys.executable
    children = HostClock(child_probe, CHILD_PROBE_REF_S)
    sweeps = HostClock(NumpyProbe(), NUMPY_PROBE_REF_S)

    def build() -> tuple[float, float]:
        out = work / "setup.rdb"
        sweeps.interrupt()
        raw, norm, child = children.measure(lambda: run_child(
            [python, "-m", "repro", "db", "build", str(inp.fasta), str(out)],
            env=env, cwd=root, workdir=work,
        ))
        ok = child.returncode == 0
        if ok:
            built = open_database(out)
            ok = (
                isinstance(built, DatabaseStore)
                and built.fingerprint == inp.fingerprint
            )
        tally.record(ok, f"db build exit {child.returncode}: "
                         f"{child.stderr[-200:]}")
        out.unlink(missing_ok=True)
        return raw, norm

    tsv = work / "cold.tsv"
    cold_argv = [python, "-m", "repro", *inp.search_args(tsv)]

    def cold() -> tuple[float, float, float]:
        tsv.unlink(missing_ok=True)
        sweeps.interrupt()
        raw, norm, child = children.measure(
            lambda: run_child(cold_argv, env=env, cwd=root, workdir=work)
        )
        ok = child.returncode == 0 and tsv.exists() and np.array_equal(
            read_scores_tsv(tsv), inp.references[0]
        )
        tally.record(ok, f"cold search exit {child.returncode}: "
                         f"{child.stderr[-200:]}")
        return raw, norm, child.maxrss_mib

    app = CudaSW(matrix=MATRIX, gaps=GAPS)
    target = open_database(inp.store_path) if inp.store_path else inp.db
    kwargs = inp.search_kwargs()
    search_batch(app, inp.queries[:1], target, **kwargs)

    def campaign() -> tuple[float, float]:
        children.interrupt()
        raw, norm, (results, _) = sweeps.measure(
            lambda: search_batch(app, inp.queries, target, **kwargs)
        )
        for query, result, ref in zip(inp.queries, results, inp.references):
            tally.record(
                np.array_equal(result.scores, ref),
                f"warm campaign scores differ for {query.id}",
            )
        return raw, norm

    builds: list[tuple[float, float]] = []
    colds: list[tuple[float, float, float]] = []
    warms: list[tuple[float, float]] = []
    n_builds = min(SETUP_REPEATS, min_n)

    samplers = {
        "build": (builds, build),
        "cold": (colds, cold),
        "warm": (warms, campaign),
    }

    def next_kind() -> str:
        # Builds interleave with the cold searches, so both kinds of
        # child see the same host; cold and warm alternate until both
        # have min_n samples, then the cold share stays near COLD_SHARE.
        if len(builds) < min(n_builds, len(colds)):
            return "build"
        if len(colds) < min_n or len(warms) < min_n:
            return "cold" if len(colds) <= len(warms) else "warm"
        cold_time = sum(c[0] for c in colds)
        warm_time = sum(w[0] for w in warms)
        if cold_time <= COLD_SHARE * (cold_time + warm_time):
            return "cold"
        return "warm"

    while (
        len(builds) < n_builds
        or len(colds) < min_n
        or len(warms) < min_n
        or time.perf_counter() - started < seconds
    ):
        samples, take = samplers[next_kind()]
        samples.append(take())

    mega_cells = inp.cells / 1e6
    metrics = {
        "search_s": Summary.of([c[1] for c in colds]),
        "search_rss_mb": Summary.of([c[2] for c in colds]),
        "mcups": Summary.of([w[1] for w in warms]).inverted(mega_cells),
        "setup_s": Summary.of([b[1] for b in builds]),
    }
    notes = {
        "raw_search_s": statistics.median(c[0] for c in colds),
        "raw_mcups": mega_cells / statistics.median(w[0] for w in warms),
        "raw_setup_s": statistics.median(b[0] for b in builds),
        "host_factor_child": statistics.median(children.factors),
        "host_factor_numpy": statistics.median(sweeps.factors),
    }
    return metrics, notes
