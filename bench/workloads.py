"""Workload definitions, seeded input generation and the score oracle.

Every workload draws its inputs from ``--seed`` alone.  Database lengths
come from the stratified Swiss-Prot profile (fixed quantiles, shuffled),
tail lengths are evenly spaced and query lengths are fixed, so the
number of DP cells is the same for every seed; only residues and order
change.  That keeps run-to-run spread a property of the program and the
host, not of the draw.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import DEFAULT_GROUP_SIZE, BatchedEngine, build_store
from repro.engine.dbstore import database_fingerprint
from repro.sequence import SWISSPROT_PROFILE, random_protein, write_fasta
from repro.sequence.database import Database
from repro.sequence.sequence import Sequence
from repro.sw.antidiagonal import sw_score_antidiagonal
from repro.sw.utils import as_codes

#: The CLI's default scoring (``--gap-open 10 --gap-extend 2``, BLOSUM62);
#: the in-process passes must score exactly like the cold CLI search.
MATRIX = BLOSUM62
GAPS = GapPenalty.from_open_extend(10, 2)
GROUP_SIZE = DEFAULT_GROUP_SIZE

#: Length range of the appended long-tail sequences (titin-class
#: outliers that the hetero split routes to the strips kernel).
TAIL_RANGE = (3_600, 4_140)

#: Sequences per query checked against the antidiagonal aligner.
ORACLE_SAMPLE = 64
ORACLE_LONGEST = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the search flags it runs with.

    ``engine`` is the CLI ``--engine`` value; the benchmark uses only
    ``batched`` (the default) and ``hetero``.  ``store`` searches a
    pre-built ``.rdb`` instead of the FASTA; ``checkpoint`` journals
    every query (one fsync'd journal per query).
    """

    name: str
    sequences: int
    tail: int
    query_lengths: tuple[int, ...]
    engine: str = "batched"
    workers: int = 1
    store: bool = False
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ("batched", "hetero"):
            raise ValueError(f"unsupported engine {self.engine!r}")
        lengths = list(self.query_lengths)
        if lengths != sorted(lengths, reverse=True):
            # q0, the query of the cold CLI search and of the traced
            # pass, is the longest, so it clears the pool fan-out floor.
            raise ValueError("query lengths must be in descending order")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_small", sequences=200, tail=0, query_lengths=(100,)),
        Workload("bulk_fasta", sequences=1_000, tail=0, query_lengths=(300,)),
        Workload(
            "tail_store_fanned", sequences=500, tail=12,
            query_lengths=(350, 283, 217, 150),
            engine="hetero", workers=2, store=True,
        ),
        Workload(
            "campaign_checkpoint", sequences=500, tail=12,
            query_lengths=(200, 180, 160, 140, 120, 100, 80, 60),
            engine="hetero", store=True, checkpoint=True,
        ),
    )
}

#: Inputs small enough that a full pass over every workload takes
#: seconds: same flags and layers, fewer residues.
SMOKE = {
    "cli_small": replace(
        WORKLOADS["cli_small"], sequences=40, query_lengths=(40,)
    ),
    "bulk_fasta": replace(
        WORKLOADS["bulk_fasta"], sequences=80, query_lengths=(60,)
    ),
    "tail_store_fanned": replace(
        WORKLOADS["tail_store_fanned"], sequences=60, tail=2,
        query_lengths=(40, 30),
    ),
    "campaign_checkpoint": replace(
        WORKLOADS["campaign_checkpoint"], sequences=60, tail=2,
        query_lengths=(40, 30, 20),
    ),
}


class OracleError(RuntimeError):
    """The reference disagrees with the antidiagonal aligner, so no
    score of this run can be judged."""


@dataclass
class Inputs:
    """Everything a pass needs: files on disk, in-memory copies and the
    reference score vector of each query."""

    workload: Workload
    workdir: Path
    db: Database
    queries: list[Sequence]
    fasta: Path
    query_fasta: Path
    store_path: Path | None
    fingerprint: str
    references: list[np.ndarray]

    @property
    def cells(self) -> int:
        """Useful DP cells of one campaign: sum of |q| x residues."""
        return sum(len(q) for q in self.queries) * self.db.total_residues

    def search_args(self, scores_out: Path) -> list[str]:
        """``repro`` arguments of the cold CLI search of q0."""
        w = self.workload
        args = ["search", str(self.query_fasta)]
        args += (
            ["--db", str(self.store_path)] if w.store else [str(self.fasta)]
        )
        if w.engine != "batched":
            args += ["--engine", w.engine]
        if w.workers != 1:
            args += ["--workers", str(w.workers)]
        if w.checkpoint:
            args += ["--checkpoint", str(self.workdir / "cli.journal")]
        return args + ["--scores-out", str(scores_out)]

    def search_kwargs(self) -> dict:
        """Keyword flags of ``CudaSW.search``/``search_batch``."""
        w = self.workload
        kwargs: dict = {"engine": w.engine, "workers": w.workers}
        if w.checkpoint:
            kwargs["checkpoint"] = str(self.workdir / "warm.journal")
        return kwargs


def read_scores_tsv(path: Path) -> np.ndarray:
    """Scores column of a ``--scores-out`` TSV, in database order."""
    rows = [
        line.split("\t")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return np.array([int(r[3]) for r in rows], dtype=np.int64)


def _records(w: Workload, rng: np.random.Generator) -> list[Sequence]:
    body = SWISSPROT_PROFILE.build(
        rng, scale=w.sequences / SWISSPROT_PROFILE.n_sequences,
        materialize=True,
    )
    lengths = np.linspace(*TAIL_RANGE, w.tail, endpoint=False).astype(int)
    codes = [body.codes_of(i) for i in range(len(body))]
    codes += [random_protein(int(n), rng).codes for n in lengths]
    return [Sequence(f"db{i:05d}", c) for i, c in enumerate(codes)]


def prepare(
    w: Workload, seed: int, workdir: Path, *, reference_queries: int | None
) -> Inputs:
    """Generate ``w``'s inputs for ``seed`` and their reference scores.

    ``reference_queries`` limits the (untimed) oracle to the first
    queries; ``None`` computes a reference for every query.
    """
    rng = np.random.default_rng(seed)
    records = _records(w, rng)
    queries = [
        random_protein(n, rng, id=f"q{i}")
        for i, n in enumerate(w.query_lengths)
    ]
    db = Database.from_sequences(records, name=w.name)
    fasta = workdir / "db.fa"
    query_fasta = workdir / "q0.fa"
    write_fasta(records, fasta)
    write_fasta(queries[:1], query_fasta)
    store_path = None
    if w.store:
        store_path = workdir / "db.rdb"
        build_store(db, store_path, group_size=GROUP_SIZE)
    n_ref = len(queries) if reference_queries is None else reference_queries
    references = reference_scores(db, queries[:n_ref])
    return Inputs(
        workload=w, workdir=workdir, db=db, queries=queries, fasta=fasta,
        query_fasta=query_fasta, store_path=store_path,
        fingerprint=database_fingerprint(db), references=references,
    )


def oracle_sample(lengths: np.ndarray) -> np.ndarray:
    """Database indices the reference is checked on: evenly spaced
    length ranks, always including the :data:`ORACLE_LONGEST` longest."""
    order = np.argsort(lengths, kind="stable")
    n = order.size
    if n <= ORACLE_SAMPLE:
        return order
    ranks = np.linspace(
        0, n - ORACLE_LONGEST - 1, ORACLE_SAMPLE - ORACLE_LONGEST
    ).astype(int)
    return np.concatenate([order[ranks], order[n - ORACLE_LONGEST :]])


_ORACLE_DB: list[Database] = []


def _oracle_init(db: Database) -> None:
    _ORACLE_DB[:] = [db]


def _oracle_task(query: Sequence) -> tuple[np.ndarray, list[int]]:
    """Serial gotoh reference of one query, plus the sampled indices
    where it disagrees with the antidiagonal aligner."""
    db = _ORACLE_DB[0]
    scores, _ = BatchedEngine(MATRIX, GAPS).search(query, db)
    q = as_codes(query, MATRIX)
    bad = [
        int(i)
        for i in oracle_sample(db.lengths)
        if sw_score_antidiagonal(q, db.codes_of(int(i)), MATRIX, GAPS)
        != scores[i]
    ]
    return scores, bad


def reference_scores(
    db: Database, queries: list[Sequence]
) -> list[np.ndarray]:
    """One reference score vector per query (untimed set-up).

    Several queries are shared over at most two forked processes, the
    same load limit the timed passes keep to.  The pool forks, like the
    program's own executor: a spawn context would start a
    ``multiprocessing`` resource tracker that outlives this process.
    """
    workers = min(2, len(queries), len(os.sched_getaffinity(0)))
    if workers <= 1:
        _oracle_init(db)
        outcomes = [_oracle_task(q) for q in queries]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_oracle_init,
            initargs=(db,),
        ) as pool:
            outcomes = list(pool.map(_oracle_task, queries))
    for query, (_, bad) in zip(queries, outcomes):
        if bad:
            raise OracleError(
                f"serial gotoh reference of {query.id} disagrees with "
                f"sw_score_antidiagonal on database indices {bad[:8]}"
            )
    return [scores for scores, _ in outcomes]
