"""Striped (Farrar) lane kernel: equivalence, saturation tiers, wiring.

The kernel's contract is *bit-identity* with the scalar reference on
every lane — including lanes that saturate the ``uint8`` tier at its
cap, lanes that blow through the ``int16`` tier into the exact int64
fallback, and the boundaries one unit either side of each cap.  The
tests here pin those boundaries explicitly, plus the profile geometry,
the executor/pool parity of the ``engine.striped.*`` counters, and the
fan-out demotion gate.  No engine forces the kernel: search-level cases
use a query long enough that the cost model plans striped groups, and
pin the split past the longest subject so no group goes to strips.
"""

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty, build_blosum
from repro.app import CudaSW
from repro.engine import (
    BatchedEngine,
    FaultPolicy,
    SearchConfig,
    build_store,
    open_database,
    score_packed_group_striped,
)
from repro.engine.pack import pack_database, pack_group
from repro.sequence import Database, Sequence, StripedProfile, random_protein
from repro.sw import sw_score_scalar

GAP_CONFIGS = (
    GapPenalty.cudasw_default(),            # open 10 extend 2 (rho 12)
    GapPenalty.from_open_extend(10, 1),     # rho 11, sigma 1
    GapPenalty(rho=5, sigma=5),             # linear gaps (rho == sigma)
    GapPenalty(rho=2**20, sigma=2**20),     # validation-cap penalties
)


def _reference(query, db, matrix, gaps):
    return np.array(
        [
            sw_score_scalar(query.codes, db.codes_of(i), matrix, gaps)
            for i in range(len(db))
        ],
        dtype=np.int64,
    )


def _match_matrix(match: int, mismatch: int = -1, name: str = "match"):
    """A match/mismatch matrix over the protein alphabet — score ranges
    chosen per-test to park true scores exactly on tier caps."""
    n = BLOSUM62.alphabet.size
    w = np.full((n, n), mismatch, dtype=np.int32)
    np.fill_diagonal(w, match)
    return type(BLOSUM62)(name, BLOSUM62.alphabet, w)


#: A split past every subject of these tests: the whole database is bulk.
NO_TAIL = 100_000


def _self_db(query, lengths):
    """Database of the query's own prefixes: with a match/mismatch
    matrix an ungapped self-alignment of length ``n`` scores exactly
    ``n * match``."""
    return Database.from_sequences(
        [
            Sequence(f"d{i}", query.codes[:n].copy(), query.alphabet)
            for i, n in enumerate(lengths)
        ]
    )


@pytest.fixture(scope="module")
def ragged_db():
    rng = np.random.default_rng(3)
    lengths = [1, 1, 2, 3, 60, 5, 44, 1, 17, 9, 31, 58, 4, 23]
    seqs = [Sequence.random(f"s{i}", n, rng) for i, n in enumerate(lengths)]
    return Database.from_sequences(seqs)


class TestStripedProfile:
    def test_geometry_and_stripe_mapping(self):
        rng = np.random.default_rng(21)
        q = random_protein(150, rng, id="q")
        p = StripedProfile(q.codes, BLOSUM62, target_lanes=64)
        assert p.seg_len == 3                      # ceil(150 / 64)
        assert p.n_lanes == 50                     # ceil(150 / 3)
        assert p.padded_length == 150
        # out[c, i, k] == natural profile at query position k*seg_len+i.
        nat = p.base.scores + p.bias
        for c in (0, 7):
            for qpos in (0, 1, 3, 149):
                k, i = divmod(qpos, p.seg_len)
                assert p.profile8[c, i, k] == nat[c, qpos]

    def test_padding_rows_never_raise_a_score(self):
        rng = np.random.default_rng(22)
        q = random_protein(5, rng, id="q")
        p = StripedProfile(q.codes, BLOSUM62, target_lanes=3)
        assert p.seg_len == 2 and p.n_lanes == 3 and p.padded_length == 6
        # The padded position and the pad-sentinel symbol hold byte 0,
        # a true similarity of -bias <= 0.
        assert int(p.profile8[:, 1, 2].max()) == 0
        assert int(p.profile8[BLOSUM62.alphabet.size].max()) == 0

    def test_tier_caps_follow_matrix_range(self):
        rng = np.random.default_rng(23)
        q = random_protein(12, rng, id="q")
        p = StripedProfile(q.codes, BLOSUM62)
        assert p.bias == -int(BLOSUM62.scores.min())
        assert p.cap8 == 255 - (p.bias + int(BLOSUM62.scores.max()))
        assert p.tier8_supported and p.profile8 is not None
        # A huge-score matrix leaves the byte tier no headroom.
        wide = StripedProfile(q.codes, _match_matrix(255))
        assert not wide.tier8_supported and wide.profile8 is None
        assert wide.tier16_supported and wide.cap16 == 32767 - 255

    def test_target_lanes_validated(self):
        rng = np.random.default_rng(24)
        q = random_protein(4, rng, id="q")
        with pytest.raises(ValueError):
            StripedProfile(q.codes, BLOSUM62, target_lanes=0)


class TestStripedEquivalence:
    @pytest.mark.parametrize(
        "gaps", GAP_CONFIGS, ids=lambda g: f"{g.rho}-{g.sigma}"
    )
    def test_matches_scalar_on_ragged_db(self, ragged_db, gaps):
        rng = np.random.default_rng(gaps.rho % 97)
        engine = BatchedEngine(
            BLOSUM62, gaps,
            SearchConfig(group_size=5, split_threshold=NO_TAIL),
        )
        # A 1-aa query plans all gotoh, a 23-aa one mixes the two bulk
        # kernels, and a 130-aa one plans every group striped.
        for m, planned in (
            (1, {"gotoh"}), (23, {"gotoh", "striped"}), (130, {"striped"}),
        ):
            query = random_protein(m, rng, id="q")
            scores, report = engine.search(query, ragged_db)
            assert np.array_equal(
                scores, _reference(query, ragged_db, BLOSUM62, gaps)
            )
            assert set(report.lane_engines) == planned

    def test_matches_scalar_on_derived_matrix(self, ragged_db):
        # A Henikoff-built matrix with a different score range than
        # BLOSUM62 (the offline build ships no other matrix constants).
        rng = np.random.default_rng(62)
        from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES

        p = SWISSPROT_AA_FREQUENCIES.copy()
        target = np.outer(p, p) * np.exp(
            0.3466 * BLOSUM62.scores.astype(float)
        )
        target /= target.sum()
        size = BLOSUM62.alphabet.size
        pairs = rng.choice(size * size, p=target.ravel(), size=(150, 30))
        blocks = []
        for bi in range(150):
            a, b = np.divmod(pairs[bi], size)
            block = np.empty((6, 30), dtype=np.uint8)
            block[:3, :] = a
            block[3:, :] = b
            blocks.append(block)
        matrix = build_blosum(blocks, threshold=0.45, name="b45-style")
        gaps = GapPenalty.cudasw_default()
        engine = BatchedEngine(
            matrix, gaps,
            SearchConfig(group_size=4, split_threshold=NO_TAIL),
        )
        query = random_protein(150, rng, id="q")
        scores, report = engine.search(query, ragged_db)
        assert np.array_equal(
            scores, _reference(query, ragged_db, matrix, gaps)
        )
        assert set(report.lane_engines) == {"striped"}

    def test_small_target_lanes_exercise_many_wraps(self, ragged_db):
        # Tiny stripes force the inter-lane wrap machinery constantly;
        # scores must not move.
        rng = np.random.default_rng(31)
        query = random_protein(40, rng, id="q")
        gaps = GapPenalty.from_open_extend(4, 1)
        profile = StripedProfile(query.codes, BLOSUM62, target_lanes=40)
        assert profile.seg_len == 1 and profile.n_lanes == 40
        groups = pack_database(ragged_db, 5)
        got = np.empty(len(ragged_db), dtype=np.int64)
        for g in groups:
            got[g.indices] = score_packed_group_striped(profile, g, gaps)
        assert np.array_equal(
            got, _reference(query, ragged_db, BLOSUM62, gaps)
        )


class TestSaturationBoundaries:
    """Scores parked exactly on / either side of each tier cap.

    With ``match=1, mismatch=-1`` the byte tier has ``bias == 1`` and
    ``cap8 == 255 - 2 == 253``; a prefix self-alignment of length ``n``
    scores exactly ``n``, so the database lane lengths *are* the true
    scores.
    """

    @pytest.mark.parametrize(
        "length,saturates",
        [
            (127, False),   # int8 boundary — irrelevant to biased uint8
            (128, False),
            (252, False),   # cap8 - 1: exact in the byte tier
            (253, True),    # == cap8: clipped, must re-run in int16
            (255, True),
            (256, True),
        ],
    )
    def test_uint8_cap_boundary(self, length, saturates):
        rng = np.random.default_rng(40)
        matrix = _match_matrix(1)
        gaps = GapPenalty.cudasw_default()
        query = random_protein(300, rng, id="q")
        db = _self_db(query, [length])
        profile = StripedProfile(query.codes, matrix)
        assert profile.cap8 == 253
        (group,) = pack_database(db, 4)
        with obs.collect("counters") as instr:
            scores = score_packed_group_striped(profile, group, gaps)
        assert scores[group.indices[0]] == length  # bit-exact
        c = instr.counters.as_dict()
        if saturates:
            assert c["engine.striped.saturated_lanes"] == 1
            assert c["engine.striped.overflow_reruns"] == 1
        else:
            assert c.get("engine.striped.saturated_lanes", 0) == 0
            assert "engine.striped.overflow_reruns" not in c

    @pytest.mark.parametrize(
        "length,past16",
        [
            (127, False),   # 127 * 255 == 32385 < cap16 == 32512
            (128, True),    # 128 * 255 == 32640 >= cap16: exact rerun
        ],
    )
    def test_int16_cap_boundary(self, length, past16):
        rng = np.random.default_rng(41)
        matrix = _match_matrix(255)  # byte tier unsupported
        gaps = GapPenalty.cudasw_default()
        query = random_protein(200, rng, id="q")
        db = _self_db(query, [length])
        profile = StripedProfile(query.codes, matrix)
        assert profile.profile8 is None and profile.cap16 == 32512
        (group,) = pack_database(db, 4)
        with obs.collect("counters") as instr:
            scores = score_packed_group_striped(profile, group, gaps)
        assert scores[group.indices[0]] == length * 255
        c = instr.counters.as_dict()
        if past16:
            assert c["engine.striped.exact_rerun_lanes"] == 1
        else:
            assert "engine.striped.exact_rerun_lanes" not in c

    def test_mixed_group_reruns_only_saturated_lanes(self):
        # One monster lane among small ones: the rerun subsets the
        # group, and every lane stays exact.
        rng = np.random.default_rng(42)
        matrix = _match_matrix(1)
        gaps = GapPenalty.from_open_extend(2, 1)
        query = random_protein(400, rng, id="q")
        lengths = [3, 253, 17, 400, 1]
        db = _self_db(query, lengths)
        profile = StripedProfile(query.codes, matrix)
        # Pack the ragged mix as ONE group on purpose: pack_database
        # would now gap-split a rectangle this degenerate (the tail-
        # efficiency floor), but the rerun-subsetting under test needs
        # saturated and exact lanes side by side in a single group.
        group = pack_group(db, np.argsort(db.lengths, kind="stable"))
        with obs.collect("counters") as instr:
            scores = score_packed_group_striped(profile, group, gaps)
        got = np.empty(len(db), dtype=np.int64)
        got[group.indices] = scores
        assert np.array_equal(got, np.asarray(lengths, dtype=np.int64))
        c = instr.counters.as_dict()
        assert c["engine.striped.saturated_lanes"] == 2  # 253 and 400
        assert c["engine.striped.overflow_reruns"] == 1

    def test_forced_rerun_matches_full_search_path(self):
        # End-to-end: a search whose plan is all striped stays bit-exact
        # when lanes saturate and re-run.  The 1,000-aa query makes the
        # cost model pick striped for these 2-300 aa subjects.
        rng = np.random.default_rng(43)
        matrix = _match_matrix(1)
        gaps = GapPenalty.cudasw_default()
        query = random_protein(1000, rng, id="q")
        db = _self_db(query, [50, 253, 260, 300, 2])
        engine = BatchedEngine(
            matrix, gaps,
            SearchConfig(group_size=3, split_threshold=NO_TAIL),
        )
        with obs.collect("counters") as instr:
            scores, report = engine.search(query, db)
        assert np.array_equal(scores, _reference(query, db, matrix, gaps))
        assert set(report.lane_engines) == {"striped"}
        assert instr.counters.get("engine.striped.overflow_reruns") >= 1


class TestExecutorParity:
    def test_pool_counters_match_serial(self, ragged_db):
        # At 200 aa the cost model plans all four groups striped.
        rng = np.random.default_rng(50)
        query = random_protein(200, rng, id="q")
        gaps = GapPenalty.cudasw_default()

        def counters(workers):
            engine = BatchedEngine(
                BLOSUM62, gaps,
                # An explicit fault policy forces the pool despite the
                # size.
                SearchConfig(
                    group_size=4, workers=workers, split_threshold=NO_TAIL,
                    fault_policy=FaultPolicy(),
                ),
            )
            with obs.collect("counters") as instr:
                scores, _ = engine.search(query, ragged_db)
            return scores, instr.counters.as_dict()

        serial_scores, serial = counters(1)
        fanned_scores, fanned = counters(2)
        assert np.array_equal(serial_scores, fanned_scores)
        # Fan-out bookkeeping differs; the sweep-local data-dependent
        # counts live in worker-process registries and are not
        # re-derivable parent-side.  Everything else must agree.
        for extra in (
            "engine.executor.worker_round_trips",
            "engine.executor.pool_fallbacks",
            "engine.executor.serial_groups",
            "engine.executor.pool_completed_groups",
            "engine.executor.tasks_submitted",
            "engine.striped.lazy_f_iterations",
            "engine.striped.f_columns_skipped",
        ):
            serial.pop(extra, None)
            fanned.pop(extra, None)
        assert serial == fanned
        assert serial["engine.striped.groups"] == 4


class TestFanoutDemotion:
    def test_small_search_demotes_to_serial(self, ragged_db):
        rng = np.random.default_rng(60)
        query = random_protein(30, rng, id="q")
        engine = BatchedEngine(
            BLOSUM62, GapPenalty.cudasw_default(),
            SearchConfig(group_size=4, workers=2),
        )
        with obs.collect("counters") as instr:
            _, report = engine.search(query, ragged_db)
        c = instr.counters.as_dict()
        assert c["engine.executor.fanout_demotions"] == 1
        assert c.get("engine.executor.worker_round_trips", 0) == 0
        # The report records the *requested* configuration.
        assert report.workers == 2

    def test_zero_threshold_disables_demotion(
        self, ragged_db, tmp_path, monkeypatch
    ):
        """The fan-out floor comes from the input: a store-backed search
        reads DEFAULT_DB_FANOUT_MIN_CELLS, a FASTA search
        DEFAULT_FANOUT_MIN_CELLS, and a zero floor never demotes."""
        import repro.engine

        monkeypatch.setattr(repro.engine, "DEFAULT_DB_FANOUT_MIN_CELLS", 0)
        store = open_database(
            build_store(ragged_db, tmp_path / "ragged.rdb", group_size=4).path
        )
        rng = np.random.default_rng(61)
        query = random_protein(30, rng, id="q")
        engine = BatchedEngine(
            BLOSUM62, GapPenalty.cudasw_default(),
            SearchConfig(group_size=4, workers=2),
        )
        for target, demoted in ((ragged_db, True), (store, False)):
            with obs.collect("counters") as instr:
                engine.search(query, target)
            c = instr.counters.as_dict()
            assert ("engine.executor.fanout_demotions" in c) == demoted
        assert c["engine.executor.worker_round_trips"] >= 1

    def test_explicit_fault_policy_is_never_demoted(self, ragged_db):
        # A caller that configured fault handling asked for the pool's
        # isolation semantics; the heuristic must not override that.
        rng = np.random.default_rng(62)
        query = random_protein(30, rng, id="q")
        engine = BatchedEngine(
            BLOSUM62, GapPenalty.cudasw_default(),
            SearchConfig(group_size=4, workers=2, fault_policy=FaultPolicy()),
        )
        with obs.collect("counters") as instr:
            engine.search(query, ragged_db)
        c = instr.counters.as_dict()
        assert "engine.executor.fanout_demotions" not in c
        assert c["engine.executor.worker_round_trips"] >= 1


class TestAppIntegration:
    def test_striped_engine_end_to_end(self, ragged_db):
        # A query much longer than every subject: the default engine's
        # plan sweeps striped groups.
        rng = np.random.default_rng(70)
        query = random_protein(300, rng, id="q")
        app = CudaSW()
        base, _ = app.search(query, ragged_db, engine="antidiagonal")
        got, report = app.search(query, ragged_db, collect="counters")
        assert np.array_equal(got.scores, base.scores)
        run = app.last_run_report
        assert run.meta["engine"] == "batched"
        assert "striped" in run.engine["lane_engines"]
        assert run.counters["engine.striped.groups"] >= 1

    def test_striped_checkpoint_resume(self, ragged_db, tmp_path):
        rng = np.random.default_rng(71)
        query = random_protein(300, rng, id="q")
        app = CudaSW()
        journal = tmp_path / "striped.journal"
        first, _ = app.search(query, ragged_db, checkpoint=journal)
        assert "striped" in app.last_engine_report.lane_engines
        # Resume replays the completed journal rather than recomputing.
        resumed, _ = app.search(
            query, ragged_db, checkpoint=journal, resume=True,
        )
        assert np.array_equal(first.scores, resumed.scores)
        assert np.array_equal(
            first.scores,
            _reference(query, ragged_db, BLOSUM62,
                       GapPenalty.cudasw_default()),
        )
