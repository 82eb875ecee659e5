import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcons import graph as gr


# ---------------------------------------------------------------------------
# construction


def test_empty_edge_list_gives_exactly_the_self_loops():
    g = gr.make_graph(3, [])
    assert g.edges == frozenset({(0, 0), (1, 1), (2, 2)})


def test_ring_plus_loops_has_six_edges():
    g = gr.make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert len(g.edges) == 6
    assert (0, 1) in g.edges and (0, 0) in g.edges


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        gr.make_graph(2, [(0, 5)])


# ---------------------------------------------------------------------------
# product


def brute_force_product(g, h):
    """Independent oracle: double loop over intermediate nodes."""
    edges = set()
    for u in range(g.n):
        for w in range(g.n):
            if any((u, v) in g.edges and (v, w) in h.edges for v in range(g.n)):
                edges.add((u, w))
    return gr.make_graph(g.n, edges)


def test_loops_only_is_identity_element():
    h = gr.make_graph(3, [(0, 1), (1, 2)])
    assert gr.product(gr.loops_only(3), h) == h
    assert gr.product(h, gr.loops_only(3)) == h


def test_ring_squared_on_three_nodes_is_complete():
    ring = gr.ring_graph(3)
    assert gr.product(ring, ring) == gr.complete_graph(3)
    assert gr.product(ring, ring) == brute_force_product(ring, ring)


def test_product_matches_brute_force_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        g = gr.random_c_in_connected(4, 1, rng)
        h = gr.random_c_in_connected(4, 1, rng)
        assert gr.product(g, h) == brute_force_product(g, h)


def test_product_rejects_node_count_mismatch():
    with pytest.raises(ValueError):
        gr.product(gr.loops_only(2), gr.loops_only(3))


# ---------------------------------------------------------------------------
# connectivity predicates


def warshall_closure(g):
    reach = [[(u, v) in g.edges for v in range(g.n)] for u in range(g.n)]
    for k in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                reach[u][v] = reach[u][v] or (reach[u][k] and reach[k][v])
    return reach


def test_ring_is_strongly_connected():
    assert gr.is_strongly_connected(gr.ring_graph(5))


def test_loops_only_is_not_strongly_connected():
    assert not gr.is_strongly_connected(gr.loops_only(2))


def test_strong_connectivity_agrees_with_warshall_on_random_digraphs():
    rng = random.Random(13)
    for _ in range(100):
        edges = [
            (rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(0, 12))
        ]
        g = gr.make_graph(5, edges)
        reach = warshall_closure(g)
        expected = all(reach[u][v] for u in range(5) for v in range(5))
        assert gr.is_strongly_connected(g) == expected


def test_complete_predicate_trivials():
    assert gr.is_complete(gr.complete_graph(3))
    assert not gr.is_complete(gr.ring_graph(3))


def test_product_of_n_minus_1_random_sc_graphs_is_complete():
    rng = random.Random(99)
    for _ in range(25):
        g = gr.random_c_in_connected(5, 1, rng)
        for _ in range(3):
            g = gr.product(g, gr.random_c_in_connected(5, 1, rng))
        assert gr.is_complete(g)


def c_in_connected_oracle(g, c):
    """Subset enumeration written independently of the library path."""
    nodes = set(range(g.n))
    for mask in range(1, 1 << g.n):
        s = {v for v in nodes if mask >> v & 1}
        feeders = {
            u for (u, v) in g.edges if v in s and u not in s
        }
        if len(feeders) < min(c, len(nodes - s)):
            return False
    return True


def test_complete_graph_is_c_in_connected_up_to_n_minus_1():
    for n in (2, 3, 5):
        assert gr.is_c_in_connected(gr.complete_graph(n), n - 1)


def test_ring_n4_is_1_but_not_2_in_connected():
    ring = gr.ring_graph(4)
    assert gr.is_c_in_connected(ring, 1)
    assert not gr.is_c_in_connected(ring, 2)
    assert c_in_connected_oracle(ring, 1)
    assert not c_in_connected_oracle(ring, 2)


def test_loops_only_is_never_c_in_connected():
    for n in (2, 4):
        assert not gr.is_c_in_connected(gr.loops_only(n), 1)


def test_c_in_connected_agrees_with_oracle_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        edges = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 10))]
        g = gr.make_graph(4, edges)
        for c in (1, 2, 3):
            assert gr.is_c_in_connected(g, c) == c_in_connected_oracle(g, c)


def test_c_in_connected_rejects_large_n():
    with pytest.raises(ValueError):
        gr.is_c_in_connected(gr.loops_only(21), 1)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_random_c_in_connected_generator_output_passes_checker(data, n, seed):
    c = data.draw(st.integers(1, n + 1))
    g = gr.random_c_in_connected(n, c, random.Random(seed))
    assert gr.is_c_in_connected(g, c)
    assert all((u, u) in g.edges for u in range(n))


# ---------------------------------------------------------------------------
# schedules


def test_fixed_schedule_returns_the_graph_at_every_round():
    ring = gr.ring_graph(4)
    sched = gr.DynamicSchedule("fixed", 4, graph=ring)
    assert sched.graph_at(1) == ring
    assert sched.graph_at(10**6) == ring
    assert sched.kind == "fixed"


def test_fixed_schedule_rejects_a_graph_of_another_size():
    with pytest.raises(ValueError, match="on n=5 given graph 3"):
        gr.DynamicSchedule(kind="fixed", n=5, graph=gr.ring_graph(3))
    with pytest.raises(ValueError, match="on n=5 given graph None"):
        gr.DynamicSchedule(kind="fixed", n=5)


def test_csc_schedule_graphs_are_strongly_connected():
    sched = gr.DynamicSchedule("csc", 6, seed=11)
    for t in range(1, 101):
        assert gr.is_strongly_connected(sched.graph_at(t))


def test_in_adjacency_rejects_a_bad_window():
    sched = gr.DynamicSchedule("csc", 4, seed=1)
    for t0, t1 in ((0, 3), (5, 4)):
        with pytest.raises(ValueError, match="need 1 <= t0 <= t1"):
            sched.in_adjacency(t0, t1)


def test_csc_schedule_is_deterministic_per_round():
    sched = gr.DynamicSchedule("csc", 6, seed=11)
    assert sched.graph_at(7) == sched.graph_at(7)


def test_round_key_matches_plain_derivation():
    from avgcons.seeds import stable_seed

    sched = gr.DynamicSchedule("csc", 6, seed=11)
    for t in (1, 7, 10**6):
        assert sched.round_key(t) == stable_seed("csc", 6, 11, t)


def test_csc_schedule_graphs_vary_with_round_and_seed():
    sched = gr.DynamicSchedule("csc", 6, seed=11)
    assert any(sched.graph_at(t) != sched.graph_at(t + 1) for t in range(1, 20))
    differing = sum(
        gr.DynamicSchedule("csc", 6, seed=2 * i).graph_at(1)
        != gr.DynamicSchedule("csc", 6, seed=2 * i + 1).graph_at(1)
        for i in range(20)
    )
    assert differing >= 1


def test_delayed_schedule_with_t1_is_continuously_strongly_connected():
    sched = gr.DynamicSchedule("delayed", 5, seed=4, delay=1)
    for t in range(1, 31):
        assert gr.is_strongly_connected(sched.graph_at(t))


def test_delayed_schedule_window_products_strongly_connected():
    sched = gr.DynamicSchedule("delayed", 5, seed=4, delay=3)
    for t in range(1, 31):
        window = sched.graph_at(t)
        for k in (1, 2):
            window = gr.product(window, sched.graph_at(t + k))
        assert gr.is_strongly_connected(window)


def test_delayed_schedule_single_rounds_are_not_strongly_connected():
    sched = gr.DynamicSchedule("delayed", 5, seed=4, delay=3)
    assert any(not gr.is_strongly_connected(sched.graph_at(t)) for t in range(1, 31))


def test_delayed_schedule_reuses_its_period_graphs():
    sched = gr.DynamicSchedule("delayed", 5, seed=4, delay=3)
    for t in range(1, 7):
        assert sched.graph_at(t) is sched.graph_at(t + 3)


def test_c_connected_schedule_rounds_pass_checker():
    sched = gr.DynamicSchedule("c_connected", 5, seed=8, c=2)
    for t in range(1, 21):
        assert gr.is_c_in_connected(sched.graph_at(t), 2)


def test_c_connected_schedule_works_past_the_subset_check_cap():
    # n=32 is beyond is_c_in_connected's reach; check what c=4 implies:
    # strong connectivity and at least 4 in-neighbors besides the self-loop.
    sched = gr.DynamicSchedule("c_connected", 32, seed=8, c=4)
    for t in range(1, 21):
        g = sched.graph_at(t)
        assert gr.is_strongly_connected(g)
        assert all(len(set(ins) - {v}) >= 4 for v, ins in enumerate(g.in_neighbor_lists))


def test_blocking_schedule_two_round_products_are_complete():
    sched = gr.DynamicSchedule("blocking", 3, ell=4)
    assert gr.is_complete(gr.product(sched.graph_at(1), sched.graph_at(2)))
    assert gr.is_complete(gr.product(sched.graph_at(2), sched.graph_at(3)))


def test_blocking_schedule_odd_rounds_are_loops_only():
    sched = gr.DynamicSchedule("blocking", 3, ell=4)
    assert not gr.is_strongly_connected(sched.graph_at(3))
    assert sched.graph_at(3) == gr.loops_only(3)
    assert sched.graph_at(4) == gr.complete_graph(3)


def test_blocking_schedule_rejects_odd_ell():
    with pytest.raises(ValueError):
        gr.DynamicSchedule("blocking", 3, ell=5)


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(kind="bogus", n=3), "unknown schedule kind 'bogus'"),
        (dict(kind="csc", n=0), "node count must be >= 1"),
        (dict(kind="delayed", n=3), "delayed schedule requires delay"),
        (dict(kind="c_connected", n=3), "c_connected schedule requires c"),
        (dict(kind="blocking", n=3), "blocking schedule requires ell"),
        (dict(kind="fixed", n=3), "given graph None"),
        (dict(kind="csc", n=3, delay=2), "csc schedule takes no delay"),
        (dict(kind="csc", n=3, graph=gr.ring_graph(3)), "csc schedule takes no graph"),
        (dict(kind="delayed", n=3, delay=2, c=2), "delayed schedule takes no c"),
        (dict(kind="fixed", n=3, graph=gr.ring_graph(3), ell=4), "fixed schedule takes no ell"),
        (dict(kind="delayed", n=3, delay=0), "delay must be >= 1"),
        (dict(kind="c_connected", n=3, c=0), "c must be >= 1"),
        (dict(kind="blocking", n=3, ell=3), "even ell"),
        (dict(kind="blocking", n=3, ell=0), "even ell"),
        (dict(kind="blocking", n=1, ell=4), "n >= 2"),
        (dict(kind="fixed", n=5, graph=gr.ring_graph(3)), "given graph 3"),
    ],
    ids=["unknown-kind", "no-nodes", "delayed-without-delay", "c_connected-without-c",
         "blocking-without-ell", "fixed-without-graph", "csc-with-delay", "csc-with-graph",
         "delayed-with-c", "fixed-with-ell", "zero-delay", "zero-c", "odd-ell", "zero-ell",
         "blocking-on-one-node", "fixed-graph-of-another-size"],
)
def test_malformed_schedules_are_rejected_at_construction(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        gr.DynamicSchedule(**kwargs)


# ---------------------------------------------------------------------------
# serialization


def test_graph_json_roundtrip_restores_self_loops():
    g = gr.make_graph(4, [(0, 1), (1, 2), (2, 0)])
    obj = g.to_json()
    assert [0, 0] not in obj["edges"]
    restored = json.loads(json.dumps(obj))
    assert gr.make_graph(restored["n"], restored["edges"]) == g


# ---------------------------------------------------------------------------
# properties


@st.composite
def graph_triples(draw):
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return tuple(
        gr.make_graph(n, draw(st.lists(pair, max_size=n * n))) for _ in range(3)
    )


@settings(max_examples=100, deadline=None)
@given(graph_triples())
def test_product_is_associative(triple):
    g, h, k = triple
    assert gr.product(gr.product(g, h), k) == gr.product(g, gr.product(h, k))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 50))
def test_every_schedule_output_contains_all_self_loops(n, seed, t):
    for sched in (
        gr.DynamicSchedule("csc", n, seed=seed),
        gr.DynamicSchedule("delayed", n, seed=seed, delay=3),
        gr.DynamicSchedule("blocking", n, ell=4),
    ):
        g = sched.graph_at(t)
        assert all((u, u) in g.edges for u in range(n))
