"""Directed graphs and per-round communication schedules.

Edge convention, used throughout the package: the pair ``(u, v)`` means
that v receives what u sends.  Every graph carries a self-loop at each
node (an agent always hears itself); constructors add the loops
implicitly rather than requiring callers to list them.

A :class:`DynamicSchedule` assigns one graph to every round t >= 1.  The
assignment is a pure function of (schedule seed, t): the sequence is
fixed before any protocol randomness is drawn, i.e. the adversary
choosing the topology is oblivious to the agents' coin flips.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from typing import Iterable, Optional

import numpy as np

from .seeds import extend_key, key_hash, seed_of

# Exhaustive subset checks (c-in-connectivity) are capped at this size.
MAX_SUBSET_CHECK_N = 20


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph on nodes 0..n-1 with mandatory self-loops,
    stored as what each node hears: in_neighbor_lists[v] is the sorted
    tuple of every u with (u, v) an edge, v itself included."""

    in_neighbor_lists: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.in_neighbor_lists)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every pair (u, v) with u in in_neighbor_lists[v], derived on first use."""
        return frozenset((u, v) for v, us in enumerate(self.in_neighbor_lists) for u in us)

    def to_json(self) -> dict:
        """JSON form; self-loops are omitted and restored on read."""
        plain = sorted((u, v) for u, v in self.edges if u != v)
        return {"n": self.n, "edges": [[u, v] for u, v in plain]}


def _from_in_sets(ins: list[set[int]]) -> DirectedGraph:
    """The graph whose node v hears exactly ins[v], which holds v itself."""
    return DirectedGraph(tuple(map(tuple, map(sorted, ins))))


def make_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> DirectedGraph:
    """Build a graph from an edge list, adding all self-loops.

    Raises ValueError if any endpoint falls outside [0, n).
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    ins = [{v} for v in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        ins[v].add(u)
    return _from_in_sets(ins)


def loops_only(n: int) -> DirectedGraph:
    return make_graph(n, ())


def ring_graph(n: int) -> DirectedGraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0, plus loops."""
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> DirectedGraph:
    return make_graph(n, iproduct(range(n), range(n)))


def product(g: DirectedGraph, h: DirectedGraph) -> DirectedGraph:
    """Graph product: (u, w) present iff some v has (u, v) in g and (v, w) in h.

    Composes one-round reachability: a two-round relay through any
    intermediate node.  Both factors carrying self-loops guarantees the
    result does too.
    """
    if g.n != h.n:
        raise ValueError(f"node count mismatch: {g.n} != {h.n}")
    g_ins = g.in_neighbor_lists
    return _from_in_sets([set().union(*(g_ins[v] for v in vs)) for vs in h.in_neighbor_lists])


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    ins = g.in_neighbor_lists
    outs = [[v for v, us in enumerate(ins) if u in us] for u in range(g.n)]
    return _reaches_all(ins, 0) and _reaches_all(outs, 0)


def _reaches_all(adj, start: int) -> bool:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def is_complete(g: DirectedGraph) -> bool:
    return all(len(us) == g.n for us in g.in_neighbor_lists)


def is_c_in_connected(g: DirectedGraph, c: int) -> bool:
    """True iff every non-empty S has >= min(c, |V\\S|) in-neighbors outside S.

    An in-neighbor of S is a node w outside S with an edge into S.
    Checked by exhaustive subset enumeration, so n is capped at
    MAX_SUBSET_CHECK_N.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if g.n > MAX_SUBSET_CHECK_N:
        raise ValueError(f"subset enumeration capped at n={MAX_SUBSET_CHECK_N}, got {g.n}")
    ins = g.in_neighbor_lists
    for mask in range(1, 1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        outside = g.n - len(members)
        need = min(c, outside)
        if need == 0:
            continue
        feeders = {u for v in members for u in ins[v] if not (mask >> u & 1)}
        if len(feeders) < need:
            return False
    return True


def _c_in_connected_draws(n: int, c: int, rng: random.Random) -> tuple[list[int], list[int], list[int]]:
    """The random draws of random_c_in_connected, in their one order: the
    relabelling perm, then the extra edges as parallel lists (us[j], vs[j])."""
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    perm = list(range(n))
    rng.shuffle(perm)
    ends = [rng.randrange(n) for _ in range(2 * rng.randint(0, n))]  # u0, v0, u1, v1, ...
    return perm, ends[0::2], ends[1::2]


def random_c_in_connected(n: int, c: int, rng: random.Random) -> DirectedGraph:
    """Random self-looped graph that is c-in-connected by construction.

    A random relabelling of the circulant with offsets 1..min(c, n-1),
    plus k extra random edges, k drawn uniformly from [0, n].  Removing up
    to c-1 nodes from the circulant leaves every survivor an edge to the
    next survivor around the circle, so the rest stays strongly connected.
    Hence a non-empty S with fewer than min(c, |V\\S|) in-neighbors outside
    it cannot exist: removing them would cut S off from the survivors
    outside it.  Extra edges never remove an in-neighbor.  With c = 1
    this is a random Hamiltonian cycle plus extra edges, the csc graph.
    """
    perm, us, vs = _c_in_connected_draws(n, c, rng)
    # perm[i] hears perm[i-m..i], its loop included: window[i : i+m+1].
    m = min(c, n - 1)
    window = perm[n - m :] + perm
    ins: list = [None] * n
    for i, v in enumerate(perm):
        ins[v] = set(window[i : i + m + 1])
    for u, v in zip(us, vs):
        ins[v].add(u)
    return _from_in_sets(ins)


# The field holding each schedule kind's one parameter, None if it takes none.
_KIND_PARAM = {"fixed": "graph", "csc": None, "delayed": "delay", "c_connected": "c", "blocking": "ell"}


@dataclass(frozen=True)
class DynamicSchedule:
    """Round -> graph mapping, fixed ahead of time and lazily evaluated.

    Re-querying any round returns an identical graph; nothing about the
    mapping depends on protocol randomness.  Kinds (parameter): fixed
    (graph) repeats one graph, csc draws a random strongly connected one
    each round, delayed (delay) connects only each delay-round window's
    product, c_connected (c) is c-in-connected every round, and blocking
    (even ell) alternates loops-only and complete graphs, so the entries a
    protocol rotating through ell of them hits on odd rounds never mix.
    """

    kind: str
    n: int
    seed: int = 0
    delay: Optional[int] = None
    c: Optional[int] = None
    ell: Optional[int] = None
    graph: Optional[DirectedGraph] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_PARAM:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        if self.kind == "fixed" and (self.graph is None or self.graph.n != self.n):
            raise ValueError(f"fixed schedule on n={self.n} given graph {self.graph and self.graph.n}")
        takes = _KIND_PARAM[self.kind]
        for name in ("graph", "delay", "c", "ell"):
            if (getattr(self, name) is None) == (name == takes):
                raise ValueError(f"{self.kind} schedule {'requires' if name == takes else 'takes no'} {name}")
        if self.kind in ("delayed", "c_connected") and getattr(self, takes) < 1:
            raise ValueError(f"{takes} must be >= 1, got {getattr(self, takes)}")
        if self.kind == "blocking" and (self.ell < 2 or self.ell % 2 != 0 or self.n < 2):
            raise ValueError(f"blocking needs an even ell >= 2 and n >= 2, got ell={self.ell}, n={self.n}")

    @cached_property
    def _key_prefix(self):
        # (kind, n, seed) absorbed once, so each round key only adds t.
        return key_hash(self.kind, self.n, self.seed)

    @property
    def sweep(self) -> int:
        """Flooding length: rounds after which a value has reached every
        agent, n-1 for per-round strong connectivity, delay times that when
        only delay-round windows are, and ceil(n/c) for c-in-connectivity."""
        if self.kind == "delayed":
            return self.delay * max(1, self.n - 1)
        if self.kind == "c_connected":
            return -(-self.n // self.c)
        return max(1, self.n - 1)

    def round_key(self, t: int) -> int:
        """stable_seed(kind, n, seed, t), the seed of round t's graph."""
        return seed_of(extend_key(self._key_prefix, t))

    @cached_property
    def _period_graphs(self) -> tuple[DirectedGraph, ...]:
        """The repeating graphs of a deterministic kind; round t uses entry
        (t-1) mod period."""
        if self.kind == "fixed":
            return (self.graph,)
        if self.kind == "delayed":
            # One fixed random Hamiltonian cycle, its edges dealt out with
            # period T.  Any T consecutive rounds then cover the whole cycle,
            # and since all graphs have self-loops the window product
            # contains the union of the window's graphs: strongly connected.
            rng = random.Random(seed_of(self._key_prefix))
            perm = list(range(self.n))
            rng.shuffle(perm)
            cycle = [(perm[i], perm[(i + 1) % self.n]) for i in range(self.n)]
            return tuple(make_graph(self.n, cycle[slot :: self.delay]) for slot in range(self.delay))
        return loops_only(self.n), complete_graph(self.n)  # blocking

    @cached_property
    def _period_adjacency(self) -> np.ndarray:
        """_period_graphs as a bool (period, n, n) in-adjacency array."""
        return np.array([[np.isin(np.arange(self.n), us) for us in g.in_neighbor_lists]
                         for g in self._period_graphs])

    def in_adjacency(self, t0: int, t1: int) -> np.ndarray:
        """Rounds t0..t1-1 as a bool (t1-t0, n, n) array, A[k, v, u] true when
        v hears u in round t0+k: the graphs graph_at returns, from the same
        draws, with no DirectedGraph built."""
        if not 1 <= t0 <= t1:
            raise ValueError(f"need 1 <= t0 <= t1, got t0={t0}, t1={t1}")
        if self.kind not in ("csc", "c_connected"):
            period = self._period_adjacency
            return period[np.arange(t0 - 1, t1 - 1) % len(period)]
        n, c, rounds = self.n, self.c or 1, t1 - t0
        perms, extras, us, vs = [], [], [], []
        for t in range(t0, t1):
            perm, eu, ev = _c_in_connected_draws(n, c, random.Random(self.round_key(t)))
            perms.append(perm)
            extras.append(len(eu))
            us += eu
            vs += ev
        # perm[i] hears perm[i-j] for j in 0..m, as in random_c_in_connected.
        perm = np.array(perms, dtype=np.intp).reshape(rounds, n)
        back = (np.arange(n)[:, None] - np.arange(min(c, n - 1) + 1)) % n
        adj = np.zeros((rounds, n, n), dtype=bool)
        adj[np.arange(rounds)[:, None, None], perm[:, :, None], perm[:, back]] = True
        adj[np.repeat(np.arange(rounds), extras), vs, us] = True
        return adj

    def graph_at(self, t: int) -> DirectedGraph:
        if t < 1:
            raise ValueError(f"rounds start at 1, got {t}")
        if self.kind in ("csc", "c_connected"):
            # csc is the c = 1 case; round_key hashes the kind, so its stream is its own.
            return random_c_in_connected(self.n, self.c or 1, random.Random(self.round_key(t)))
        graphs = self._period_graphs
        return graphs[(t - 1) % len(graphs)]

    def to_json(self) -> dict:
        params = {k: getattr(self, k) for k in ("delay", "c", "ell") if getattr(self, k) is not None}
        if self.graph is not None:
            params["graph"] = self.graph.to_json()
        return {"kind": self.kind, "n": self.n, "seed": self.seed, "params": params}


# Schedule kinds by the names users type: the ExperimentConfig field that
# ``kind:P`` sets (None when the kind takes no parameter) and the builder,
# called as build(n, seed, P).  ring and complete are both kind "fixed".
SCHEDULE_KINDS = {
    "csc": (None, lambda n, seed, _: DynamicSchedule("csc", n, seed)),
    "ring": (None, lambda n, seed, _: DynamicSchedule("fixed", n, graph=ring_graph(n))),
    "complete": (None, lambda n, seed, _: DynamicSchedule("fixed", n, graph=complete_graph(n))),
    "delayed": ("delay", lambda n, seed, delay: DynamicSchedule("delayed", n, seed, delay=delay)),
    "c_connected": ("c", lambda n, seed, c: DynamicSchedule("c_connected", n, seed, c=c)),
    "blocking": ("ell", lambda n, seed, ell: DynamicSchedule("blocking", n, ell=ell)),
}
