"""Edge-case tests for the batched engine's packing report."""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import BatchedEngine, EngineReport, SearchConfig
from repro.sequence import Database, Sequence, random_protein


class TestPaddingEfficiency:
    def test_empty_report_is_perfectly_efficient(self):
        report = EngineReport(
            group_size=8,
            workers=1,
            group_sizes=(),
            group_max_lengths=(),
            group_efficiencies=(),
            residues=0,
            padded_cells=0,
            lane_engines=(),
        )
        assert report.n_groups == 0
        assert report.padding_efficiency == 1.0  # no ZeroDivisionError

    def test_single_sequence_database(self):
        rng = np.random.default_rng(3)
        db = Database.from_sequences([Sequence.random("only", 37, rng)])
        query = random_protein(20, rng, id="q")
        engine = BatchedEngine(BLOSUM62, GapPenalty.cudasw_default())
        scores, report = engine.search(query, db)
        assert scores.shape == (1,)
        # One lane, no padding partner: the rectangle is exactly full.
        assert report.residues == 37
        assert report.padded_cells == 37
        assert report.padding_efficiency == 1.0
        assert report.group_sizes == (1,)

    def test_mixed_lengths_efficiency_below_one(self):
        rng = np.random.default_rng(4)
        db = Database.from_sequences(
            [
                Sequence.random("a", 10, rng),
                Sequence.random("b", 50, rng),
            ]
        )
        query = random_protein(20, rng, id="q")
        engine = BatchedEngine(
            BLOSUM62, GapPenalty.cudasw_default(),
            SearchConfig(group_size=2),
        )
        _, report = engine.search(query, db)
        assert report.residues == 60
        assert report.padded_cells == 100  # 2 lanes x max length 50
        assert report.padding_efficiency == pytest.approx(0.6)
