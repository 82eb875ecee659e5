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

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iproduct
from typing import Iterable, Optional, Sequence

import numpy as np

from .sampling import check_ranges
from .seeds import MAX_MT_WORDS, key_hash, mt_words, seed_of


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

    Raises ValueError if n < 1 or any endpoint falls outside [0, n).
    """
    check_ranges(n=n)
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
    return is_c_in_connected(g, 1)


def is_complete(g: DirectedGraph) -> bool:
    return all(len(us) == g.n for us in g.in_neighbor_lists)


def is_c_in_connected(g: DirectedGraph, c: int) -> bool:
    """True iff every non-empty S has >= min(c, |V\\S|) in-neighbors outside S.

    An in-neighbor of S is a node w outside S with an edge into S.  This
    holds exactly when removing any set X of fewer than min(c, n) nodes
    leaves the rest strongly connected: the in-neighbors of a violating S
    form such an X, and a part of G - X that no edge enters is such an S.
    So it takes two reachability walks per X, and raises ValueError before
    any walk when there are more than 2**20 sets X.
    """
    check_ranges(c=c)
    n, ins = g.n, g.in_neighbor_lists
    sizes = range(min(c, n))
    if (count := sum(math.comb(n, k) for k in sizes)) > 1 << 20:
        raise ValueError(f"c-in-connectivity at n={n}, c={c} needs {count} removal sets, over 2**20")
    outs = [[v for v, us in enumerate(ins) if u in us] for u in range(n)]
    return all(_reaches_all(ins, x) and _reaches_all(outs, x)
               for k in sizes for x in combinations(range(n), k))


def _reaches_all(adj, removed: tuple[int, ...]) -> bool:
    """True iff the least node not removed reaches every node not removed, avoiding them."""
    seen = set(removed)
    start = next(v for v in range(len(adj)) if v not in seen)
    seen.add(start)
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _c_in_connected_draws(n: int, c: int, rng: random.Random) -> tuple[list[int], list[int], list[int]]:
    """The random draws of random_c_in_connected, in their one order: the
    relabelling perm, then the extra edges as parallel lists (us[j], vs[j])."""
    perm = list(range(n))
    rng.shuffle(perm)
    ends = [rng.randrange(n) for _ in range(2 * rng.randint(0, n))]  # u0, v0, u1, v1, ...
    return perm, ends[0::2], ends[1::2]


# Bytes of generator state in one batch of _c_in_connected_batch, and the
# fewest rounds worth one (its seeding makes ~10^4 numpy calls at any size).
# Of _word_budget(6) = 44 words, 20,000 csc rounds used 17.4 on average, 42 at most.
_BATCH_BYTES, _MIN_BATCH = 1 << 22, 800


def _word_budget(n: int) -> int:
    return 4 * n + 20


def _batched_draws(n: int, keys: np.ndarray, words: int) -> tuple[np.ndarray, ...]:
    """_c_in_connected_draws for every key at once, from its first `words`
    outputs (seeds.mt_words), each _randbelow(m) drawn as CPython draws it:
    the top m.bit_length() bits of the next word, again while >= m.  Gives
    perm (B, n), the (B, 2n) ends in draw order, 0 past a round's extra-edge
    count, and which rounds ran out of words."""
    size, every = len(keys), np.arange(len(keys))
    # Past its words a round reads zeros, which every draw accepts.
    flat = np.concatenate([mt_words(keys, words).ravel(), np.zeros(size, dtype=np.uint32)])
    pos = np.zeros(size, dtype=np.intp)

    def below(m: int, rows: np.ndarray) -> np.ndarray:
        got, shift = np.zeros(size, dtype=np.intp), 32 - m.bit_length()
        while rows.size:
            at = np.minimum(pos[rows], words)
            r = (flat[at * size + rows] >> shift).astype(np.intp)
            pos[rows] = at + 1
            got[rows[r < m]] = r[r < m]
            rows = rows[r >= m]
        return got

    perm = np.tile(np.arange(n), (size, 1))
    for i in range(n - 1, 0, -1):  # shuffle
        j = below(i + 1, every)
        perm[every, i], perm[every, j] = perm[every, j], perm[every, i]
    counts = below(n + 1, every)  # randint(0, n)
    ends = np.stack([below(n, np.flatnonzero(d < 2 * counts)) for d in range(2 * n)], axis=1)
    return perm, ends, pos > words


def _c_in_connected_batch(n: int, c: int, keys: list[int]) -> tuple[np.ndarray, ...]:
    """_c_in_connected_draws(n, c, random.Random(key)) for each key: perm
    (len(keys), n) and the extra edges' ends us, vs (len(keys), n), padded
    with (0, 0) loops.  random.Random draws every round of a call under
    _MIN_BATCH keys or of an n whose word budget exceeds one twist, and each
    batched round that ran out of words or has a key < 2**32."""
    count, words = len(keys), _word_budget(n)
    perm, redo = np.empty((count, n), dtype=np.intp), np.ones(count, dtype=bool)
    ends = np.zeros((count, 2 * n), dtype=np.intp)
    room = _BATCH_BYTES // (8 * words + 4)  # keys whose 2*words+1 state words fit
    parts = -(-count // room) if words <= MAX_MT_WORDS and count >= _MIN_BATCH else 0
    for part in range(parts):  # batches of even size
        lo, hi = count * part // parts, count * (part + 1) // parts
        key = np.array(keys[lo:hi], dtype=np.uint64)
        perm[lo:hi], ends[lo:hi], short = _batched_draws(n, key, words)
        redo[lo:hi] = short | (key < 1 << 32)
    for r in np.flatnonzero(redo):
        p, us, vs = _c_in_connected_draws(n, c, random.Random(keys[r]))
        perm[r], ends[r] = p, [e for uv in zip(us, vs) for e in uv] + [0] * (2 * (n - len(us)))
    return perm, ends[:, 0::2], ends[:, 1::2]


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
    n, c >= 1 are the caller's to check, as DynamicSchedule does once, not every round.
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


def flooding_length(n: int, delay: Optional[int] = None, c: Optional[int] = None) -> int:
    """A schedule's flooding length, from n and its delay or c alone: rounds
    after which a value has reached every agent, n-1 for per-round strong
    connectivity, delay times that when only delay-round windows are, and
    ceil(n/c) for c-in-connectivity.  An n, delay or c below 1 is a ValueError."""
    check_ranges(n=n, delay=delay, c=c)
    return -(-n // c) if c is not None else (delay or 1) * max(1, n - 1)


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
        flooding_length(self.n, self.delay, self.c)  # n, delay and c must be >= 1
        if self.kind == "fixed" and (self.graph is None or self.graph.n != self.n):
            raise ValueError(f"fixed schedule on n={self.n} given graph {self.graph and self.graph.n}")
        takes = _KIND_PARAM[self.kind]
        for name in ("graph", "delay", "c", "ell"):
            if (getattr(self, name) is None) == (name == takes):
                raise ValueError(f"{self.kind} schedule {'requires' if name == takes else 'takes no'} {name}")
        if self.kind == "blocking" and (self.ell < 2 or self.ell % 2 != 0 or self.n < 2):
            raise ValueError(f"blocking needs an even ell >= 2 and n >= 2, got ell={self.ell}, n={self.n}")

    @cached_property
    def _key_prefix(self):
        # (kind, n, seed) absorbed once, so each round key only adds t.
        return key_hash(self.kind, self.n, self.seed)

    @property
    def sweep(self) -> int:
        """This schedule's flooding_length."""
        return flooding_length(self.n, self.delay, self.c)

    def round_key(self, t: int) -> int:
        """stable_seed(kind, n, seed, t), the seed of round t's graph."""
        return self.round_keys((t,))[0]

    def round_keys(self, rounds: Iterable[int]) -> list[int]:
        """round_key of each round, extend_key and seed_of inlined: repr of
        an int t is b"%d" % t."""
        copy, from_bytes, keys = self._key_prefix.copy, int.from_bytes, []
        for t in rounds:
            h = copy()
            h.update(b"%d\x1f" % t)
            keys.append(from_bytes(h.digest()[:8], "little"))
        return keys

    @cached_property
    def _period_graphs(self) -> tuple[DirectedGraph, ...]:
        """The repeating graphs of a deterministic kind; round t uses entry
        (t-1) mod period, or the last, loops-only one of a delayed kind for
        the slots from n on, which hold no cycle edge, whatever the delay."""
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
            return tuple(make_graph(self.n, cycle[slot :: self.delay])
                         for slot in range(min(self.delay, self.n + 1)))
        return loops_only(self.n), complete_graph(self.n)  # blocking

    @property
    def edges_per_round(self) -> int:
        """The most edges in_edges gives one round."""
        drawn = self.n * min(self.c or 1, self.n - 1) + self.n  # the circulant's and n extra
        return drawn if self.kind in ("csc", "c_connected") else self._period_edges[0].shape[1]

    @cached_property
    def _period_edges(self) -> tuple[np.ndarray, ...]:
        """_period_graphs' non-loop edges as narrow (period, most) arrays u, v, padded with loops."""
        edges = [[e for e in sorted(g.edges) if e[0] != e[1]] for g in self._period_graphs]
        most, ends = max(1, *map(len, edges)), np.min_scalar_type(self.n - 1)
        return tuple(np.array([e + [(0, 0)] * (most - len(e)) for e in edges], ends).transpose(2, 0, 1))

    def in_edges(self, rounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given rounds' non-loop edges as flat arrays (k, u, v), by
        round: v hears u in round rounds[k].  They are graph_at's graphs,
        from the same draws, with no DirectedGraph built; an edge may repeat."""
        check_ranges(t=min(rounds, default=1))
        n, m = self.n, min(self.c or 1, self.n - 1)
        if self.kind in ("csc", "c_connected"):
            draws = _c_in_connected_batch(n, self.c or 1, self.round_keys(rounds))
            perm, us, vs = (a.astype(np.min_scalar_type(n - 1)) for a in draws)
            # perm[i] hears perm[i-j] for j in 1..m, as in random_c_in_connected.
            back = (np.arange(n) - np.arange(1, m + 1)[:, None]).ravel() % n
            us = np.concatenate([perm[:, back], us], axis=1)
            vs = np.concatenate([np.tile(perm, m), vs], axis=1)
        else:
            us, vs = self._period_edges
            period = min(self.delay or len(us), np.iinfo(np.intp).max)  # rounds are intp: t-1 < period
            slots = np.minimum((np.asarray(rounds, dtype=np.intp) - 1) % period, len(us) - 1)
            us, vs = us[slots], vs[slots]
        real, rows = us != vs, np.arange(len(rounds), dtype=np.min_scalar_type(max(len(rounds) - 1, 0)))
        return np.repeat(rows, np.count_nonzero(real, axis=1)), us[real], vs[real]

    def graph_at(self, t: int) -> DirectedGraph:
        check_ranges(t=t)
        if self.kind in ("csc", "c_connected"):
            # csc is the c = 1 case; round_key hashes the kind, so its stream is its own.
            return random_c_in_connected(self.n, self.c or 1, random.Random(self.round_key(t)))
        graphs = self._period_graphs
        return graphs[min((t - 1) % (self.delay or len(graphs)), len(graphs) - 1)]

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
