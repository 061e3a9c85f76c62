"""The incremental swap state against a from-scratch recount after every swap.

Every swap that balance, spectrum_align, class-pair routing, unbalancing and
replay make goes through one state; after each one its spectra, per-class
imbalance and per-component deviation tallies must equal what all_spectra
and the Fraction class averages give on the materialized graph.
"""

import hashlib
import itertools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from jdmkit import core
from jdmkit.balance import balance, class_averages
from jdmkit.core import Jdm, LabeledGraph, NotRealizationError, _SwapState, all_spectra, extract_jdm
from jdmkit.oracle import enumerate_realizations
from jdmkit.transform import SwapSequence, rso_path, spectrum_align

PENDANT_OTHER = [(0, 3), (1, 3), (2, 7), (3, 4), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)]


def recount(state):
    g = state.graph()
    spectra = all_spectra(g)
    assert {v: tuple(s) for v, s in state.spec.items()} == spectra
    avgs = class_averages(extract_jdm(g))
    for j, members in g.partition().items():
        tallies = {
            i: sum(math.floor(abs(avgs.get(j, i) - spectra[v][i - 1])) for v in members)
            for i in range(1, g.delta + 1)
        }
        assert {i: state.dev[(j, i)] for i in tallies} == tallies
        assert state.imbalance(j) == sum(tallies.values())


@pytest.fixture
def checked(monkeypatch):
    """Recount after every state swap; yields the swap counter."""
    swaps = [0]
    plain = _SwapState.swap

    def swap(self, r):
        plain(self, r)
        recount(self)
        swaps[0] += 1

    monkeypatch.setattr(_SwapState, "swap", swap)
    return swaps


def path_and_replay(g, h):
    seq = rso_path(g, h)
    assert seq.replay(g) == h
    return seq


def gnp_walk_pair(n, rng):
    """G(n, 8/n) without isolated vertices, and a random restricted-swap walk of it."""
    adj = {v: set() for v in range(n)}
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 8 / n:
            adj[u].add(v)
            adj[v].add(u)
    adj = {v: ns for v, ns in adj.items() if ns}
    g = LabeledGraph.from_edges((u, v) for u in adj for v in adj[u] if u < v)
    stubs = [v for v in sorted(adj) for _ in adj[v]]
    part = g.partition()
    for _ in range(20 * g.m):
        a = rng.choice(stubs)
        b = rng.choice(part[len(adj[a])])
        c, d = rng.choice(sorted(adj[a])), rng.choice(sorted(adj[b]))
        if len({a, b, c, d}) != 4 or c in adj[b] or d in adj[a]:
            continue
        adj[a].remove(c), adj[c].remove(a), adj[b].remove(d), adj[d].remove(b)
        adj[b].add(c), adj[c].add(b), adj[a].add(d), adj[d].add(a)
    h = LabeledGraph.from_edges((u, v) for u in adj for v in adj[u] if u < v)
    return g, h


def test_fresh_state_matches_recount(pendant):
    recount(_SwapState(pendant))
    recount(_SwapState(LabeledGraph.from_edges(PENDANT_OTHER)))


def test_wrappers_return_the_state_graph_even_with_no_swap(pendant):
    # balance, spectrum_align and replay each return their state's graph:
    # equal to their input, but a new object, when no swap is made.
    bal, _ = balance(pendant)
    fp = bal.fingerprint()
    for out, swaps in (balance(bal), spectrum_align(bal, bal), (SwapSequence((), fp, fp).replay(bal), [])):
        assert swaps == [] and out == bal and out is not bal
    # Replay's one state takes realizations only, with or without swaps.
    odd = LabeledGraph([(0, 1)], {0: 1, 1: 2})
    fp = odd.fingerprint()
    with pytest.raises(NotRealizationError):
        SwapSequence((), fp, fp).replay(odd)


def test_pendant_every_phase(checked, pendant):
    h = LabeledGraph.from_edges(PENDANT_OTHER)
    bal, swaps = balance(pendant)
    assert checked[0] == len(swaps) > 0
    hb, _ = balance(h)
    before = checked[0]
    _, align = spectrum_align(bal, hb)
    assert checked[0] - before == len(align) > 0
    for g, t in ((pendant, h), (h, pendant)):
        before = checked[0]
        seq = path_and_replay(g, t)
        # The path's swaps, the balancing of its target and the replay.
        assert checked[0] - before > 2 * len(seq)


def test_relabelled_pendant(checked, pendant):
    def flip(edges):
        return LabeledGraph.from_edges((7 - u, 7 - v) for u, v in edges)

    g, h = flip(pendant.edges()), flip(PENDANT_OTHER)
    path_and_replay(g, h)
    path_and_replay(h, g)
    assert checked[0] > 0


def pool_pairs(rng, count):
    """count pairs of distinct realizations of random matrices on at most 7 vertices."""
    pairs = []
    while len(pairs) < count:
        edges = [e for e in itertools.combinations(range(7), 2) if rng.random() < 0.5]
        if not edges:
            continue
        pool = enumerate_realizations(extract_jdm(LabeledGraph.from_edges(edges)), max_vertices=7)
        if len(pool) >= 2:
            pairs.append(rng.sample(pool, 2))
    return pairs


def test_random_pool_pairs(checked):
    for g, h in pool_pairs(random.Random(2026), 20):
        path_and_replay(g, h)
    assert checked[0] > 0


def test_one_state_per_side_per_path(monkeypatch):
    # rso_path builds one swap state per side, counting each side's matrix
    # once and comparing the two to check the problem, then balances, aligns,
    # routes and unbalances on them; only the landing check builds a graph.
    # With replay after it, each input graph is hashed at most once: the
    # third hash is of the graph replay lands on.
    pairs = pool_pairs(random.Random(2027), 24)
    calls = Counter()

    def count(owner, attr, name):
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(_SwapState, "__init__", "state")
    count(core, "_pair_matrix", "matrix")
    count(LabeledGraph, "_derive", "graph")
    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=hashlib.sha256))
    count(core.hashlib, "sha256", "hash")
    for g, h in pairs:
        calls.clear()
        seq = rso_path(g, h)
        assert calls["state"] == 2, calls
        assert calls["matrix"] == 2, calls
        assert calls["graph"] <= 1, calls
        assert seq.replay(g) == h
        assert calls["hash"] <= 3, calls


def test_ladder_pair(checked):
    g, h = gnp_walk_pair(32, random.Random(32))
    assert g.edge_set() != h.edge_set()
    seq = path_and_replay(g, h)
    assert checked[0] > 2 * len(seq)
