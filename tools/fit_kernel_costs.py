"""Refit the lane kernels' sweep-cost constants in ``repro.engine.kernels``.

Times every lane kernel on every 128-lane group of the bench databases
``bulk_fasta``, ``tail_store_fanned`` and ``cli_small`` (seed 1), plus
their 1, 4, 12 and 32 longest sequences, at several query lengths (best
of two), then fits each kernel's two terms — ns per swept cell and ns
per loop iteration — by non-negative least squares on relative error.
Prints the constants and how close the fitted picks come to the fastest
kernel of every timed group.

    PYTHONPATH=src python tools/fit_kernel_costs.py [m,m,...]

Takes a few minutes; run it on an otherwise idle host.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import GAPS, MATRIX, WORKLOADS, _records  # noqa: E402

from repro.engine import pack_group  # noqa: E402
from repro.engine.kernels import LANE_KERNELS  # noqa: E402
from repro.engine.pack import plan_chunks, strip_cells  # noqa: E402
from repro.sequence import random_protein  # noqa: E402
from repro.sequence.database import Database  # noqa: E402

QUERY_LENGTHS = (40, 60, 100, 150, 200, 300, 350, 500, 800)


def features(kernel: str, m: int, lanes: int, max_len: int, strips: int):
    """(swept cells, loop iterations) of one sweep."""
    if kernel == "gotoh":
        return m * lanes * max_len, m
    if kernel == "striped":
        return m * lanes * max_len, max_len
    return m * strips, m


def timings(query_lengths):
    rng = np.random.default_rng(7)
    dbs = [
        Database.from_sequences(
            _records(WORKLOADS[name], np.random.default_rng(1))
        )
        for name in ("bulk_fasta", "tail_store_fanned", "cli_small")
    ]
    for m in query_lengths:
        query = random_protein(m, rng).codes
        for db in dbs:
            order = np.argsort(db.lengths, kind="stable")
            n = order.size
            ranges = plan_chunks(db.lengths[order], 128).ranges
            ranges += [(n - k, n) for k in (1, 4, 12, 32)]
            for start, end in ranges:
                group_times = {}
                for name, kernel in LANE_KERNELS.items():
                    group = pack_group(db, order[start:end], lane_engine=name)
                    profile = kernel.profile(query, MATRIX)
                    best = np.inf
                    for _ in range(2):
                        began = time.perf_counter()
                        kernel.score(profile, group, GAPS)
                        best = min(best, time.perf_counter() - began)
                    shape = (m, group.size, group.max_length,
                             strip_cells(group.lengths))
                    group_times[name] = (features(name, *shape), best * 1e9)
                yield group_times
        print(f"# timed m={m}", file=sys.stderr)


def main() -> None:
    lengths = QUERY_LENGTHS
    if len(sys.argv) > 1:
        lengths = tuple(int(m) for m in sys.argv[1].split(","))
    groups = list(timings(lengths))
    coef = {}
    for name in LANE_KERNELS:
        x = np.array([g[name][0] for g in groups], dtype=float)
        y = np.array([g[name][1] for g in groups])
        coef[name], _ = nnls(x / y[:, None], np.ones_like(y))
        error = np.median(np.abs(x @ coef[name] / y - 1))
        print(f"{name:8s} {coef[name][0]:6.2f} ns/cell "
              f"{coef[name][1]:9.0f} ns/iteration  median error {error:.0%}")
    best = picked = 0.0
    for g in groups:
        pick = min(g, key=lambda k: np.dot(g[k][0], coef[k]))
        best += min(t for _, t in g.values())
        picked += g[pick][1]
    print(f"picked kernels sweep in {picked / best:.3f}x the fastest "
          f"per-group time over {len(groups)} groups")


if __name__ == "__main__":
    main()
