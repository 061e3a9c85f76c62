"""Exhaustive ground-truth searches: realizations, swap reachability, census."""

import itertools
import random

import pytest

from jdmkit.core import GraphError, Jdm, LabeledGraph, Rso, SwapError, apply_rso, extract_jdm
from jdmkit.graphic import check_graphical
from jdmkit.oracle import (
    _swap_neighbors,
    enumerate_configurations,
    enumerate_realizations,
    metagraph_connected,
)

# The 7-vertex matrix with the most realizations (810): one degree-2 vertex
# joined to two of six degree-3 vertices.
WIDEST_7 = Jdm([[0, 0, 0], [0, 0, 2], [0, 2, 8]])


class TestEnumerateRealizations:
    def test_triangle_matrix_has_one_realization(self):
        space = enumerate_realizations(Jdm([[0, 0], [0, 3]]))
        assert len(space) == 1
        assert space[0].edge_set() == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_two_regular_on_six(self):
        space = enumerate_realizations(Jdm([[0, 0], [0, 6]]))
        assert len(space) == 70
        assert all(g.is_realization() for g in space)
        assert len({g.edge_set() for g in space}) == 70

    def test_pendant_family_size(self, pendant):
        space = enumerate_realizations(extract_jdm(pendant), max_vertices=8)
        assert len(space) == 605

    def test_non_integral_matrix_has_no_realizations(self):
        assert enumerate_realizations(Jdm([[0, 1], [1, 0]])) == []

    def test_first_only_stops_early(self):
        j = Jdm([[0, 0], [0, 6]])
        first = enumerate_realizations(j, first_only=True)
        assert len(first) == 1
        empty = enumerate_realizations(Jdm([[0, 0], [0, 2]]), first_only=True)
        assert empty == []

    def test_vertex_limit(self):
        j = Jdm([[0, 0], [0, 6]])
        with pytest.raises(GraphError, match="exceeds the limit"):
            enumerate_realizations(j, max_vertices=5)
        assert len(enumerate_realizations(j, max_vertices=None)) == 70

    def test_labels_are_assigned_smallest_class_first(self, pendant):
        j = extract_jdm(pendant)  # three class-1, five class-3 vertices
        space = enumerate_realizations(j, first_only=True, max_vertices=8)
        g = space[0]
        assert [g.class_of(v) for v in g.vertices] == [1, 1, 1, 3, 3, 3, 3, 3]


class TestMetagraph:
    def test_two_regular_metagraph(self):
        report = metagraph_connected(Jdm([[0, 0], [0, 6]]))
        assert report.node_count == 70
        assert report.component_count == 1
        assert report.connected

    def test_empty_space_counts_as_connected(self):
        report = metagraph_connected(Jdm([[0, 1], [1, 0]]))
        assert report.node_count == 0
        assert report.connected

    def test_single_realization_is_trivially_connected(self):
        report = metagraph_connected(Jdm([[0, 0], [0, 3]]))
        assert report.node_count == 1
        assert report.connected


def swap_results(g):
    """Edge sets of apply_rso over every swap Rso.validate accepts on g."""
    out = set()
    for a, b, c, d in itertools.permutations(g.vertices, 4):
        r = Rso(a, b, c, d, pivot_class=g.class_of(a))
        try:
            r.validate(g)
        except SwapError:
            continue
        out.add(apply_rso(g, r).edge_set())
    return out


def test_swap_neighbors_are_the_validated_swaps():
    # The search's neighbor relation, built on edge sets alone, must be the
    # one that Rso.validate and apply_rso define on graphs.
    widest = enumerate_realizations(WIDEST_7, max_vertices=7)
    assert len(widest) == 810
    cases = (
        enumerate_realizations(Jdm([[0, 0], [0, 6]]))
        + enumerate_realizations(Jdm([[0, 2], [2, 2]]))
        + random.Random(13).sample(widest, 30)
    )
    for g in cases:
        assert set(_swap_neighbors(g.edge_set(), g.partition())) == swap_results(g)


class TestEnumerateConfigurations:
    def test_triangle_matrix_census(self):
        census = enumerate_configurations(Jdm([[0, 0], [0, 3]]))
        assert census.total == 720
        assert census.fiber_sizes() == (48, 96, 96, 96, 384)
        assert len(census.simple_keys) == 1
        assert census.fibers[census.simple_keys[0]] == 384
        tri = (((0, 1), 1), ((0, 2), 1), ((1, 2), 1))
        assert census.simple_keys[0] == tri

    def test_mixed_matrix_census_matches_oracle(self):
        j = Jdm([[0, 2], [2, 2]])
        census = enumerate_configurations(j)
        assert census.total == 1440
        space = enumerate_realizations(j)
        keys = {
            tuple(sorted(((u, v), 1) for (u, v) in g.edges())) for g in space
        }
        assert set(census.simple_keys) == keys
        for key in census.simple_keys:
            assert census.fibers[key] == 128

    def test_configuration_limit(self):
        with pytest.raises(GraphError, match="exceeds the limit"):
            enumerate_configurations(Jdm([[0, 0], [0, 6]]), max_configurations=100)


def test_mask_enumeration_agrees_with_the_oracle():
    # Brute force over every labeled graph on up to five vertices: group the
    # canonically labeled ones by their matrix and compare with the oracle.
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        by_jdm = {}
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if 0 in deg or deg != sorted(deg):
                continue
            g = LabeledGraph.from_edges(edges)
            by_jdm.setdefault(extract_jdm(g), set()).add(g.edge_set())
        assert by_jdm
        for j, graphs in by_jdm.items():
            assert check_graphical(j).verdict
            space = enumerate_realizations(j)
            assert {g.edge_set() for g in space} == graphs
