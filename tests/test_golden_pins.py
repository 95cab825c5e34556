"""Bit-identity pins of the best-``v0`` search, ``evaluate`` and cache keys.

``golden/best_placement_daxlist_grid8.json`` was recorded with the
per-quorum-loop implementation of the placed quorum structure; every value
is compared with ``==``, so any change in a float's last bit fails here.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.cache import system_fingerprint

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "best_placement_daxlist_grid8.json")
    .read_text()
)


@pytest.fixture(scope="module")
def grid8_search(daxlist):
    return best_placement(daxlist, GridQuorumSystem(8))


class TestBestPlacementGolden:
    def test_winner(self, grid8_search):
        assert grid8_search.v0 == GOLDEN["v0"]
        assert grid8_search.avg_network_delay == GOLDEN["avg_network_delay"]
        assignment = grid8_search.placed.placement.assignment.tolist()
        assert assignment == GOLDEN["assignment"]

    def test_every_candidate_delay(self, grid8_search):
        got = [[v0, d] for v0, d in grid8_search.delays_by_candidate.items()]
        assert len(got) == 161
        assert got == GOLDEN["delays_by_candidate"]


class TestEvaluateAtZeroAlpha:
    @pytest.mark.parametrize("factory", ["closest", "uniform"])
    def test_response_is_network_delay(self, grid8_search, factory):
        placed = grid8_search.placed
        strategy = getattr(ExplicitStrategy, factory)(placed)
        result = evaluate(placed, strategy, alpha=0.0)
        assert (
            result.per_client_response.tobytes()
            == result.per_client_network_delay.tobytes()
        )


class TestCacheKeyPins:
    def test_fingerprint_ignores_member_index(self):
        system = GridQuorumSystem(5)
        before = system_fingerprint(system)
        system.member_index  # materialize the cached index
        assert before == GOLDEN["grid5_fingerprint"]
        assert system_fingerprint(system) == before

    def test_fingerprint_of_unpickled_system(self):
        system = GridQuorumSystem(5)
        system.member_index
        clone = pickle.loads(pickle.dumps(system))
        assert np.array_equal(
            clone.member_index.matrix, system.member_index.matrix
        )
        assert system_fingerprint(clone) == GOLDEN["grid5_fingerprint"]
