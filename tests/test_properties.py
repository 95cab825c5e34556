"""Property-based tests (hypothesis) for core invariants.

These target the load-bearing mathematical properties:

* quorum intersection across system families and parameters,
* order-statistics formulas vs brute force,
* metric axioms of generated topologies,
* load conservation and linearity,
* response-time model monotonicity,
* filtering/rounding invariants of the placement pipeline,
* Q/U state: the cached latest candidate vs a full rescan, timestamp
  order vs a tuple oracle, and pickle/copy of the slotted classes,
* the quorum structure of a placement (delay matrices, incidence, element
  loads) vs brute-force per-quorum loops, on uneven quorums placed
  many-to-one.
"""

import copy
import itertools
import pickle
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load import node_loads
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy
from repro.network.generators import ClusterSpec, generate_cluster_topology
from repro.network.graph import Topology
from repro.placement.filtering import lin_vitter_filter
from repro.placement.fractional import element_loads_of_strategy
from repro.placement.gap import round_fractional_placement
from repro.qu.messages import QUReply, QURequest
from repro.qu.objects import Candidate, ReplicaHistory
from repro.qu.timestamps import QUTimestamp
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import load_of_strategy
from repro.quorums.order_stats import (
    expected_max_of_random_subset,
    max_order_statistic_pmf,
)
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.quorums.weighted import WeightedMajorityQuorumSystem
from quorum_oracles import (
    element_loads_loop,
    incidence_counts_loop,
    incidence_indicator_loop,
    max_over_quorums_loop,
)


# ---------------------------------------------------------------------------
# Quorum systems
# ---------------------------------------------------------------------------
@st.composite
def threshold_params(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    q = draw(st.integers(min_value=n // 2 + 1, max_value=n))
    return n, q


@given(threshold_params())
@settings(max_examples=60, deadline=None)
def test_threshold_quorums_pairwise_intersect(params):
    n, q = params
    qs = ThresholdQuorumSystem(n, q)
    if qs.num_quorums > 500:
        return
    quorums = qs.quorums
    for a, b in itertools.combinations(quorums, 2):
        assert a & b


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=7, deadline=None)
def test_grid_quorums_pairwise_intersect(k):
    g = GridQuorumSystem(k)
    for a, b in itertools.combinations(g.quorums, 2):
        assert a & b


@given(
    st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=8
    )
)
@settings(max_examples=50, deadline=None)
def test_weighted_majority_intersection_and_minimality(weights):
    w = WeightedMajorityQuorumSystem(weights)
    quorums = w.quorums
    for a, b in itertools.combinations(quorums, 2):
        assert a & b
    for a, b in itertools.permutations(quorums, 2):
        assert not a < b


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------
@given(threshold_params())
@settings(max_examples=40, deadline=None)
def test_order_stat_pmf_is_distribution(params):
    n, q = params
    pmf = max_order_statistic_pmf(n, q)
    assert pmf.sum() == pytest.approx(1.0)
    assert np.all(pmf >= 0)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0),
        min_size=2,
        max_size=8,
    ),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_expected_max_matches_bruteforce(values, data):
    q = data.draw(
        st.integers(min_value=1, max_value=len(values)), label="q"
    )
    arr = np.asarray(values)
    exact = expected_max_of_random_subset(arr, q)
    subsets = list(itertools.combinations(values, q))
    brute = sum(max(s) for s in subsets) / len(subsets)
    assert exact == pytest.approx(brute, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Topology generation
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=25),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_generated_topologies_are_metric(n_sites, seed):
    topo = generate_cluster_topology(
        n_sites,
        [
            ClusterSpec("a", 40.0, -74.0, 2.0, 0.6),
            ClusterSpec("b", 48.0, 10.0, 2.0, 0.4),
        ],
        seed=seed,
    )
    topo.validate_metric()
    assert topo.n_nodes == n_sites


# ---------------------------------------------------------------------------
# Loads and response time
# ---------------------------------------------------------------------------
@st.composite
def grid_profile(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    n_nodes = draw(st.integers(min_value=k * k, max_value=k * k + 4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(n_nodes, 2))
    diff = points[:, None, :] - points[None, :, :]
    metric = np.sqrt((diff**2).sum(axis=2))
    topo = Topology(metric, metric_closure=False)
    assignment = rng.permutation(n_nodes)[: k * k]
    placed = PlacedQuorumSystem(
        GridQuorumSystem(k), Placement(assignment), topo
    )
    profile = rng.dirichlet(np.ones(k * k), size=n_nodes)
    return placed, profile


@given(grid_profile())
@settings(max_examples=30, deadline=None)
def test_load_conservation(case):
    """Sum of node loads == expected accessed quorum size under the
    average strategy (load is neither created nor destroyed)."""
    placed, profile = case
    loads = node_loads(placed, profile)
    sizes = np.array([len(q) for q in placed.system.quorums])
    expected = float((profile.mean(axis=0) * sizes).sum())
    assert loads.sum() == pytest.approx(expected)


@given(grid_profile())
@settings(max_examples=30, deadline=None)
def test_response_time_monotone_in_alpha(case):
    placed, profile = case
    strategy = ExplicitStrategy(profile)
    r0 = evaluate(placed, strategy, alpha=0.0)
    r1 = evaluate(placed, strategy, alpha=13.0)
    assert r1.avg_response_time >= r0.avg_response_time - 1e-9
    assert r0.avg_response_time == pytest.approx(r0.avg_network_delay)


@given(grid_profile())
@settings(max_examples=30, deadline=None)
def test_response_dominated_by_delay_plus_max_load(case):
    placed, profile = case
    strategy = ExplicitStrategy(profile)
    alpha = 29.0
    result = evaluate(placed, strategy, alpha=alpha)
    upper = result.avg_network_delay + alpha * result.max_node_load
    assert result.avg_response_time <= upper + 1e-9


# ---------------------------------------------------------------------------
# Placement pipeline invariants
# ---------------------------------------------------------------------------
@st.composite
def fractional_case(draw):
    n_elements = draw(st.integers(min_value=1, max_value=6))
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(n_nodes), size=n_elements)
    dist = rng.uniform(0.0, 50.0, size=n_nodes)
    loads = rng.uniform(0.05, 1.0, size=n_elements)
    return x, dist, loads


@given(fractional_case(), st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_filter_keeps_rows_normalized_within_radius(case, eps):
    x, dist, _ = case
    filtered = lin_vitter_filter(x, dist, eps=eps)
    assert np.allclose(filtered.sum(axis=1), 1.0, atol=1e-9)
    frac_dist = x @ dist
    radius = (1.0 + eps) * frac_dist
    for u in range(x.shape[0]):
        support = np.flatnonzero(filtered[u] > 0)
        assert np.all(dist[support] <= radius[u] + 1e-9)


@given(fractional_case())
@settings(max_examples=60, deadline=None)
def test_rounding_assigns_within_support(case):
    x, dist, loads = case
    placement = round_fractional_placement(x, dist, loads)
    for u in range(x.shape[0]):
        w = placement.node_of(u)
        assert x[u, w] > 0


@given(fractional_case())
@settings(max_examples=60, deadline=None)
def test_rounding_respects_slot_counts(case):
    """No node receives more elements than ceil(its fractional mass)."""
    x, dist, loads = case
    placement = round_fractional_placement(x, dist, loads)
    mass = x.sum(axis=0)
    counts = placement.multiplicities(x.shape[1])
    for w in range(x.shape[1]):
        # Slot construction creates max(1, ceil(mass)) slots per node.
        assert counts[w] <= max(1, int(np.ceil(mass[w] + 1e-9)))


# ---------------------------------------------------------------------------
# Strategy matrix hygiene
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_explicit_strategy_normalizes(n_clients, m, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.ones(m), size=n_clients)
    s = ExplicitStrategy(matrix)
    assert np.allclose(s.matrix.sum(axis=1), 1.0)
    assert np.all(s.matrix >= 0.0)


# ---------------------------------------------------------------------------
# Q/U protocol state
# ---------------------------------------------------------------------------
timestamps = st.builds(
    QUTimestamp,
    time=st.integers(min_value=0, max_value=4),
    barrier=st.booleans(),
    client_id=st.integers(min_value=-1, max_value=2),
    op_seq=st.integers(min_value=-1, max_value=2),
)
candidates = st.builds(
    Candidate, timestamp=timestamps, value=st.integers(-3, 3)
)
history_ops = st.one_of(
    st.tuples(st.just("accept"), candidates),
    st.tuples(st.just("prune"), st.integers(min_value=1, max_value=6)),
)


def _oracle_key(ts):
    return (ts.time, int(ts.barrier), ts.client_id, ts.op_seq)


@given(st.lists(candidates, max_size=8), st.lists(history_ops, max_size=30))
@settings(max_examples=150, deadline=None)
def test_replica_history_latest_is_max(initial, ops):
    """The incrementally kept ``latest`` is what a full ``max`` rescan
    returns, through any mix of accepts and prunes, duplicate and
    out-of-order timestamps included."""
    history = ReplicaHistory(candidates=list(initial))
    for op, arg in ops:
        if op == "accept":
            history.accept(arg)
        else:
            before = len(history.candidates)
            history.prune(keep_last=arg)
            assert len(history.candidates) == min(before, arg)
        assert history.latest == max(
            history.candidates, key=lambda c: c.timestamp
        )
    assert history.copy_latest().latest == history.latest


@given(timestamps, timestamps)
@settings(max_examples=300, deadline=None)
def test_timestamp_order_matches_tuple_oracle(a, b):
    ka, kb = _oracle_key(a), _oracle_key(b)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a == b) == (ka == kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    if a == b:
        assert hash(a) == hash(b)


@given(candidates)
@settings(max_examples=30, deadline=None)
def test_qu_state_survives_pickle_and_copy(candidate):
    """The slotted Q/U classes round-trip through pickle and ``copy``."""
    ts = candidate.timestamp
    request = QURequest(
        client_id=1, op_seq=2, object_id=3, condition_on=ts,
        is_write=True, sent_at_ms=1.5,
    )
    reply = QUReply(
        server_id=0, client_id=1, op_seq=2, accepted=False,
        history=ReplicaHistory(candidates=[candidate]),
        request_arrived_at_ms=2.0, sent_at_ms=3.0,
    )
    for obj in (ts, candidate, request, reply):
        for clone in (
            pickle.loads(pickle.dumps(obj)),
            copy.copy(obj),
            copy.deepcopy(obj),
        ):
            assert clone == obj
    restored = pickle.loads(pickle.dumps(reply))
    assert restored.history.latest == candidate


# ---------------------------------------------------------------------------
# Quorum structure of a placement vs per-quorum loops
# ---------------------------------------------------------------------------
@st.composite
def uneven_placed_systems(draw):
    """An enumerated system with unequal quorum sizes, placed many-to-one.

    Every quorum contains one shared ``core`` element, so any subsets
    intersect; the assignment draws nodes with repetition.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    core = draw(st.integers(min_value=0, max_value=n - 1))
    quorums = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n),
            min_size=1,
            max_size=8,
        )
    )
    system = EnumeratedQuorumSystem(
        [frozenset(q | {core}) for q in quorums], universe_size=n
    )
    n_nodes = draw(st.integers(min_value=1, max_value=7))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_nodes - 1),
            min_size=n,
            max_size=n,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    rtt = np.triu(rng.integers(1, 200, (n_nodes, n_nodes)).astype(float), 1)
    topology = Topology(rtt + rtt.T, metric_closure=False)
    placed = PlacedQuorumSystem(system, Placement(assignment), topology)
    return placed, rng


@given(uneven_placed_systems())
@settings(max_examples=80, deadline=None)
def test_placed_structure_matches_loop_oracle(case):
    placed, rng = case
    system, n_nodes = placed.system, placed.n_nodes
    assignment = placed.placement.assignment
    rtt = placed.topology.rtt
    costs = rng.uniform(0.0, 50.0, n_nodes)
    drifted = rtt * rng.uniform(0.5, 1.5, (n_nodes, n_nodes))

    assert np.array_equal(
        placed.delay_matrix, max_over_quorums_loop(system, assignment, rtt)
    )
    assert np.array_equal(
        placed.augmented_delay_matrix(costs),
        max_over_quorums_loop(system, assignment, rtt + costs[None, :]),
    )
    assert np.array_equal(
        placed.delay_matrix_for(drifted, costs),
        max_over_quorums_loop(system, assignment, drifted + costs[None, :]),
    )
    assert np.array_equal(
        placed.incidence_counts,
        incidence_counts_loop(system, assignment, n_nodes),
    )
    assert np.array_equal(
        placed.incidence_indicator,
        incidence_indicator_loop(system, assignment, n_nodes),
    )


@given(uneven_placed_systems())
@settings(max_examples=80, deadline=None)
def test_element_loads_match_loop_oracle(case):
    """Bit-identical, not approximately equal: the bincount adds each
    element's terms in the loop's order."""
    placed, rng = case
    system = placed.system
    p = rng.dirichlet(np.ones(system.num_quorums))
    oracle = element_loads_loop(system, p)
    assert np.array_equal(element_loads_of_strategy(system, p), oracle)
    assert load_of_strategy(system, p) == float(oracle.max())
