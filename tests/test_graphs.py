import itertools
import re

import numpy as np
import pytest

from hdxcover.errors import EmptyGraph, NotBipartite
from hdxcover.graphs import WGraph, complete_graph
from hdxcover.spectral import bipartite_lambda

from helpers import random_bipartite_wgraph, random_wgraph


def _arrays(G):
    return G.vertices, G.ends, G.weights


class TestFromArraysSides:
    # the path 0 - 1 - 2 - 3, sides {0, 2} and {1, 3}
    ENDS = np.array([[0, 1, 2], [1, 2, 3]])

    def _build(self, left, right):
        return WGraph.from_arrays(
            (0, 1, 2, 3), self.ENDS, np.ones(3),
            sides=(np.array(left, bool), np.array(right, bool)),
        )

    def test_valid_sides_match_constructor(self):
        g = self._build([1, 0, 1, 0], [0, 1, 0, 1])
        ref = WGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], sides=({0, 2}, {1, 3}))
        assert g.sides == ref.sides == (frozenset({0, 2}), frozenset({1, 3}))
        assert bipartite_lambda(g) == bipartite_lambda(ref)

    @pytest.mark.parametrize(
        "left, right, message",
        [
            ([1, 1, 1, 0], [0, 1, 0, 1], "sides overlap"),
            ([1, 0, 1, 0], [0, 1, 0, 0], "vertices outside both sides: [3]"),
            ([1, 0, 0, 0], [0, 1, 1, 1], "edge (1, 2) does not cross"),
        ],
    )
    def test_bad_sides_raise(self, left, right, message):
        with pytest.raises(NotBipartite, match=re.escape(message)):
            self._build(left, right)

    def test_constructor_raises_the_same(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        for sides, message in (
            (({0, 1, 2}, {1, 3}), "sides overlap"),
            (({0, 2}, {1}), "vertices outside both sides: [3]"),
            (({0}, {1, 2, 3}), "edge (1, 2) does not cross the partition"),
        ):
            with pytest.raises(NotBipartite) as exc:
                WGraph(edges, sides=sides)
            assert str(exc.value) == message

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_raises(self, w):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has non-finite weight"):
            WGraph([(0, 1, w), (1, 2, 1.0)])

    def test_sides_are_built_on_read_from_the_left_mask(self):
        G = WGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], sides=({0, 2}, {1, 3}))
        assert np.array_equal(G._left, [True, False, True, False])
        assert G.sides == (frozenset({0, 2}), frozenset({1, 3}))
        assert G.sides is not G.sides
        assert WGraph([(0, 1, 1.0)]).sides is None
        with pytest.raises(AttributeError):
            G.sides = None

    def test_no_edges_is_empty_graph(self):
        with pytest.raises(EmptyGraph):
            WGraph.from_arrays((), np.zeros((2, 0), dtype=np.intp), np.zeros(0))


class TestLazyEdges:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edges_equal_constructor_tuple(self, seed):
        G = random_wgraph(np.random.default_rng(seed), 15, p=0.4)
        g = WGraph.from_arrays(*_arrays(G))
        assert g._edges is None
        assert g.edges == G.edges
        assert g.edges is g.edges

    def test_accessors_do_not_build_edges(self):
        G = random_bipartite_wgraph(np.random.default_rng(3), 5, 6)
        is_left = np.array([v in G.sides[0] for v in G.vertices])
        g = WGraph.from_arrays(*_arrays(G), sides=(is_left, ~is_left))
        assert (g.m, g.n) == (G.m, G.n)
        assert bipartite_lambda(g) == bipartite_lambda(G)
        assert g._edges is None

    def test_edge_subgraph_keeps_sides_and_drops_isolated(self):
        G = WGraph([(0, 2, 1.0), (0, 3, 2.0), (1, 3, 3.0)], sides=({0, 1}, {2, 3}))
        sub = G.edge_subgraph(np.array([0, 2]))
        ref = WGraph([(0, 2, 1.0), (1, 3, 3.0)], sides=({0, 1}, {2, 3}))
        assert sub.vertices == ref.vertices
        assert sub.edges == ref.edges
        assert np.array_equal(sub.ends, ref.ends)
        assert np.array_equal(sub.weights, ref.weights)
        assert sub.sides == ref.sides


class TestCompleteGraph:
    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_equals_constructor(self, n):
        g = complete_graph(n)
        ref = WGraph([(i, j, 1.0) for i, j in itertools.combinations(range(n), 2)])
        assert g.vertices == ref.vertices
        assert g.edges == ref.edges
        assert np.array_equal(g.ends, ref.ends)
        assert np.array_equal(g.weights, ref.weights)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_too_small_is_empty(self, n):
        with pytest.raises(EmptyGraph):
            complete_graph(n)
