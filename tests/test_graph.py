import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcons import graph as gr
from avgcons.seeds import MAX_MT_WORDS, mt_words, seed_of


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
    outcomes = set()
    for n in range(1, 10):
        for _ in range(8):
            density = rng.random()
            g = gr.make_graph(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < density])
            for c in range(1, n + 2):
                got = gr.is_c_in_connected(g, c)
                assert got == c_in_connected_oracle(g, c), (g.to_json(), c)
                outcomes.add((c > 1, got))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_c_in_connected_rejects_over_2_20_removal_sets_before_walking(monkeypatch):
    walks = []
    monkeypatch.setattr(gr, "_reaches_all", lambda adj, removed: walks.append(removed) or False)
    for n, c in ((64, 32), (21, 21), (21, 100)):
        with pytest.raises(ValueError, match="removal sets, over 2\\*\\*20"):
            gr.is_c_in_connected(gr.loops_only(n), c)
    assert walks == []
    # The old n <= 20 cap's largest case: 2**20 - 1 removal sets, so it walks.
    assert not gr.is_c_in_connected(gr.loops_only(20), 21)
    assert walks == [()]


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
    for rounds in ((0, 1, 2), (3, -1, 5)):
        with pytest.raises(ValueError, match=f"^t must be >= 1, got {min(rounds)}$"):
            sched.in_edges(rounds)


# ---------------------------------------------------------------------------
# batched schedule generation, with random.Random as the oracle


@pytest.mark.parametrize("count", [1, 44, MAX_MT_WORDS])
def test_mt_words_match_random_getrandbits(count):
    rng = random.Random(count)
    keys = [rng.randrange(2**32, 2**64) for _ in range(50)] + [2**32, 2**32 + 1, 2**64 - 1]
    words = mt_words(np.array(keys, dtype=np.uint64), count)
    assert words.shape == (count, len(keys)) and words.dtype == np.uint32
    for k, key in enumerate(keys):
        oracle = random.Random(key)
        assert words[:, k].tolist() == [oracle.getrandbits(32) for _ in range(count)], key


def in_adjacency(sched, rounds):
    """in_edges scattered into a bool (len(rounds), n, n) array, A[k, v, u]
    true when v hears u in round rounds[k], the loops added."""
    k, u, v = sched.in_edges(rounds)
    assert len(k) == len(u) == len(v) and (u != v).all()
    assert k.dtype == np.min_scalar_type(max(len(rounds) - 1, 0))
    assert u.dtype == v.dtype == np.min_scalar_type(sched.n - 1)
    adj = np.zeros((len(rounds), sched.n, sched.n), dtype=bool)
    adj[:, np.arange(sched.n), np.arange(sched.n)] = True
    adj[k, v, u] = True
    return adj


def assert_in_adjacency_matches_graph_at(sched, rounds):
    adj = in_adjacency(sched, rounds)
    for k, t in enumerate(rounds):
        rows = tuple(tuple(np.flatnonzero(row).tolist()) for row in adj[k])
        assert rows == sched.graph_at(t).in_neighbor_lists, t


def spy_on_the_fallback(monkeypatch):
    """The states of the random.Random generators that in_edges draws
    rounds from, one per round not drawn in a batch."""
    states, draws = [], gr._c_in_connected_draws
    in_edges = gr.DynamicSchedule.in_edges

    def spy(sched, rounds):
        monkeypatch.setattr(gr, "_c_in_connected_draws",
                            lambda n, c, rng: states.append(rng.getstate()) or draws(n, c, rng))
        try:
            return in_edges(sched, rounds)
        finally:
            monkeypatch.setattr(gr, "_c_in_connected_draws", draws)

    monkeypatch.setattr(gr.DynamicSchedule, "in_edges", spy)
    return states


BATCHED_SCHEDULES = {
    "csc-n1": dict(kind="csc", n=1),
    "csc-n2": dict(kind="csc", n=2),
    "csc-n6": dict(kind="csc", n=6),
    "c_connected-n2-c1": dict(kind="c_connected", n=2, c=1),
    "c_connected-n5-c-equal-to-n": dict(kind="c_connected", n=5, c=5),
    "c_connected-n4-c-above-n": dict(kind="c_connected", n=4, c=9),
    "c_connected-n12-c3": dict(kind="c_connected", n=12, c=3),
}


@pytest.mark.parametrize("name", sorted(BATCHED_SCHEDULES))
def test_batched_in_adjacency_matches_graph_at(name, monkeypatch):
    # Every call of one round or more is batched, in batches of 40 keys, so
    # a call spans several batches, one of them short; () is empty.
    sched = gr.DynamicSchedule(seed=3, **BATCHED_SCHEDULES[name])
    monkeypatch.setattr(gr, "_MIN_BATCH", 1)
    monkeypatch.setattr(gr, "_BATCH_BYTES", 40 * (8 * gr._word_budget(sched.n) + 4))
    fallback = spy_on_the_fallback(monkeypatch)
    for rounds in ((), (5,), range(1, 201), range(40, 400, 7)):
        assert_in_adjacency_matches_graph_at(sched, list(rounds))
    assert len(fallback) < 5  # a round rarely needs more than its budget


def test_in_adjacency_batches_a_large_call_by_default(monkeypatch):
    sched = gr.DynamicSchedule("csc", 6, seed=8)
    fallback = spy_on_the_fallback(monkeypatch)
    assert_in_adjacency_matches_graph_at(sched, list(range(1, gr._MIN_BATCH + 1)))
    assert len(fallback) < 5
    fallback.clear()
    assert_in_adjacency_matches_graph_at(sched, list(range(1, gr._MIN_BATCH)))
    assert len(fallback) == gr._MIN_BATCH - 1


def test_in_adjacency_draws_every_round_with_random_past_one_twist(monkeypatch):
    monkeypatch.setattr(gr, "_MIN_BATCH", 1)
    sched = gr.DynamicSchedule("csc", 52, seed=2)
    assert gr._word_budget(sched.n) > MAX_MT_WORDS
    fallback = spy_on_the_fallback(monkeypatch)
    assert_in_adjacency_matches_graph_at(sched, list(range(1, 41)))
    assert len(fallback) == 40


def test_in_adjacency_falls_back_to_random_for_short_budgets_and_small_keys(monkeypatch):
    # Fourteen words are too few for most rounds at n=6, and every third
    # round's key is below 2**32, so it seeds random.Random from one word,
    # not two.
    monkeypatch.setattr(gr, "_MIN_BATCH", 1)
    monkeypatch.setattr(gr, "_word_budget", lambda n: 14)
    round_keys = gr.DynamicSchedule.round_keys
    monkeypatch.setattr(gr.DynamicSchedule, "round_keys", lambda sched, rounds: [
        k % (2**32 if t % 3 == 0 else 2**64) for t, k in zip(rounds, round_keys(sched, rounds))])
    sched = gr.DynamicSchedule("csc", 6, seed=4)
    fallback = spy_on_the_fallback(monkeypatch)
    rounds = list(range(1, 301))
    assert_in_adjacency_matches_graph_at(sched, rounds)
    assert all(random.Random(sched.round_key(t)).getstate() in fallback for t in rounds[2::3])
    assert 100 < len(fallback) < 300


@st.composite
def schedules(draw):
    """A schedule of any kind at n up to 160, across n=51/52, where the
    batched draws give way to random.Random."""
    n = draw(st.integers(1, 160))
    kind = draw(st.sampled_from(["csc", "c_connected", "delayed", "blocking", "ring", "complete"]
                                if n > 1 else ["csc", "c_connected", "ring"]))
    build = gr.SCHEDULE_KINDS[kind][1]
    param = {"c_connected": draw(st.integers(1, 6)), "delayed": draw(st.integers(1, 4)),
             "blocking": 2 * draw(st.integers(1, 3))}.get(kind)
    return build(n, draw(st.integers(0, 2**32)), param)


@settings(max_examples=60, deadline=None)
@given(sched=schedules(), rounds=st.lists(st.integers(1, 10**9), max_size=8), batched=st.booleans())
def test_in_edges_on_random_round_sets_matches_graph_at(sched, rounds, batched):
    with pytest.MonkeyPatch.context() as mp:
        if batched:  # any call, where the word budget fits one twist
            mp.setattr(gr, "_MIN_BATCH", 1)
        assert_in_adjacency_matches_graph_at(sched, rounds)
    k = sched.in_edges(rounds)[0]
    assert np.bincount(k, minlength=1).max() <= sched.edges_per_round


def test_csc_schedule_is_deterministic_per_round():
    sched = gr.DynamicSchedule("csc", 6, seed=11)
    assert sched.graph_at(7) == sched.graph_at(7)


def test_round_key_matches_plain_derivation():
    from avgcons.seeds import stable_seed

    sched = gr.DynamicSchedule("csc", 6, seed=11)
    for t in (1, 7, 10**6):
        assert sched.round_key(t) == stable_seed("csc", 6, 11, t)
    rounds = (1, 9, 10, 99, 100, 8_089, 10**6, 2**40)
    assert sched.round_keys(rounds) == [stable_seed("csc", 6, 11, t) for t in rounds]


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


def delayed_slot_graph(sched, slot):
    """Slot `slot` of a delayed schedule as first built, one graph per slot
    of all `delay`: the fixed random cycle's edges slot, slot + delay, ..."""
    perm = list(range(sched.n))
    random.Random(seed_of(sched._key_prefix)).shuffle(perm)
    cycle = [(perm[i], perm[(i + 1) % sched.n]) for i in range(sched.n)]
    return gr.make_graph(sched.n, cycle[slot :: sched.delay])


def assert_delayed_schedule_matches_its_slot_graphs(sched, rounds, graphs):
    """graph_at, in_edges (values and dtypes) and edges_per_round of sched
    against graphs[k], the oracle's graph of rounds[k], and every slot's."""
    assert [sched.graph_at(t) for t in rounds] == graphs
    edges = [[e for e in sorted(g.edges) if e[0] != e[1]] for g in graphs]
    k, u, v = sched.in_edges(rounds)
    assert k.tolist() == [i for i, es in enumerate(edges) for _ in es]
    assert u.tolist() == [a for es in edges for a, _ in es]
    assert v.tolist() == [b for es in edges for _, b in es]
    assert k.dtype == np.min_scalar_type(max(len(rounds) - 1, 0))
    assert u.dtype == v.dtype == np.min_scalar_type(sched.n - 1)


@pytest.mark.parametrize("seed", [0, 4, 11])
def test_delayed_schedule_keeps_only_the_slots_that_hold_cycle_edges(seed):
    for n in range(1, 9):
        for delay in range(1, 2 * n + 3):
            sched = gr.DynamicSchedule("delayed", n, seed=seed, delay=delay)
            slots = [delayed_slot_graph(sched, s) for s in range(delay)]
            rounds = list(range(1, 2 * delay + 2)) + [10**9]
            assert_delayed_schedule_matches_its_slot_graphs(
                sched, rounds, [slots[(t - 1) % delay] for t in rounds])
            assert sched.edges_per_round == max(1, *(len(g.edges) - n for g in slots))


def test_delayed_schedule_at_delay_1e9_builds_n_plus_1_slots():
    sched = gr.DynamicSchedule("delayed", 4, seed=3, delay=10**9)
    rounds = [1, 2, 3, 4, 5, 6, 10**9 - 1, 10**9, 10**9 + 1, 10**9 + 4, 3 * 10**9]
    assert_delayed_schedule_matches_its_slot_graphs(
        sched, rounds, [delayed_slot_graph(sched, (t - 1) % 10**9) for t in rounds])
    assert len(sched._period_graphs) == 5 and sched.edges_per_round == 1


def test_c_connected_schedule_rounds_pass_checker():
    sched = gr.DynamicSchedule("c_connected", 5, seed=8, c=2)
    for t in range(1, 21):
        assert gr.is_c_in_connected(sched.graph_at(t), 2)


def test_c_connected_schedule_works_past_the_subset_check_cap():
    # Past the old n=20 cap: the full check on a few rounds (43,745 removal
    # sets each), and what c=4 implies on more: strong connectivity and at
    # least 4 in-neighbors besides the self-loop.
    sched = gr.DynamicSchedule("c_connected", 32, seed=8, c=4)
    for t in range(1, 21):
        g = sched.graph_at(t)
        assert gr.is_strongly_connected(g)
        assert all(len(set(ins) - {v}) >= 4 for v, ins in enumerate(g.in_neighbor_lists))
        assert t > 3 or gr.is_c_in_connected(g, 4)


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
        (dict(kind="csc", n=0), "n must be >= 1, got 0"),
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
