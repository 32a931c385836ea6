"""Tests for the multi-query batch API."""

import numpy as np
import pytest

from repro.app import CudaSW, predict_batch, search_batch
from repro.app.batch import BatchReport
from repro.cuda import TESLA_C1060
from repro.sequence import Database, SWISSPROT_PROFILE, Sequence, random_protein


@pytest.fixture(scope="module")
def db_small():
    rng = np.random.default_rng(0)
    seqs = [Sequence.random(f"s{i}", int(n), rng)
            for i, n in enumerate([60, 120, 240, 400])]
    return Database.from_sequences(seqs)


@pytest.fixture(scope="module")
def db_large():
    rng = np.random.default_rng(1)
    return SWISSPROT_PROFILE.build(rng, scale=0.2)


class TestPredictBatch:
    def test_campaign_gcups(self, db_large):
        app = CudaSW(TESLA_C1060)
        batch = predict_batch(app, [144, 567, 2005], db_large)
        assert len(batch.reports) == 3
        assert batch.total_cells == sum(r.total_cells for r in batch.reports)
        # Campaign GCUPs sits within the per-query range.
        per = batch.per_query_gcups
        assert min(per) <= batch.gcups <= max(per) * 1.01

    def test_transfer_counted_once(self, db_large):
        app = CudaSW(TESLA_C1060)
        single = app.predict(567, db_large)
        batch = predict_batch(app, [567, 567], db_large)
        assert batch.total_time == pytest.approx(
            2 * single.compute_time + single.transfer_time
        )

    def test_worst_query(self, db_large):
        app = CudaSW(TESLA_C1060)
        batch = predict_batch(app, [144, 5478], db_large)
        assert batch.worst_query().query_length in (144, 5478)
        assert batch.worst_query().gcups == min(batch.per_query_gcups)

    def test_empty_batch_rejected(self, db_large):
        app = CudaSW(TESLA_C1060)
        with pytest.raises(ValueError):
            predict_batch(app, [], db_large)
        with pytest.raises(ValueError):
            BatchReport(reports=())


class TestSearchBatch:
    def test_per_query_results(self, db_small):
        rng = np.random.default_rng(2)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(50, rng, id=f"q{i}") for i in range(3)]
        results, batch = search_batch(app, queries, db_small)
        assert len(results) == 3
        for query, result in zip(queries, results):
            assert result.query_id == query.id
            assert len(result) == len(db_small)

    def test_scores_match_individual_searches(self, db_small):
        rng = np.random.default_rng(3)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(40, rng, id=f"q{i}") for i in range(2)]
        results, _ = search_batch(app, queries, db_small)
        for query, result in zip(queries, results):
            solo, _ = app.search(query, db_small)
            assert np.array_equal(result.scores, solo.scores)

    def test_empty_rejected(self, db_small):
        app = CudaSW(TESLA_C1060)
        with pytest.raises(ValueError):
            search_batch(app, [], db_small)

    def test_engine_selection_threads_through(self, db_small):
        rng = np.random.default_rng(4)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(30, rng, id=f"q{i}") for i in range(2)]
        batched, _ = search_batch(app, queries, db_small, engine="batched")
        wavefront, _ = search_batch(
            app, queries, db_small, engine="antidiagonal"
        )
        for a, b in zip(batched, wavefront):
            assert np.array_equal(a.scores, b.scores)

    def test_group_size_threads_through(self, db_small):
        rng = np.random.default_rng(5)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(30, rng, id=f"q{i}") for i in range(2)]
        results, _ = search_batch(app, queries, db_small, group_size=4)
        assert app.last_engine_report.group_size == 4
        for query, result in zip(queries, results):
            solo, _ = app.search(query, db_small, group_size=4)
            assert np.array_equal(result.scores, solo.scores)

    def test_unknown_option_rejected(self, db_small):
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(30, np.random.default_rng(6), id="q0")]
        with pytest.raises(TypeError):
            search_batch(app, queries, db_small, lane_width=4)
