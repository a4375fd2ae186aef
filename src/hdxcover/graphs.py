"""Weighted graphs carrying a probability measure on edges.

The edge measure is the primitive; vertex measures are derived from it.
For a plain graph nu(v) is half the mass of edges at v, so vertex masses
sum to one.  A bipartite graph additionally treats each side as its own
probability space, where the side measure of v is the full mass of edges
at v.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import EmptyGraph, NotBipartite


class WGraph:
    """Undirected weighted graph, immutable after construction.

    Edges are stored as ``ends``, the (2, m) int array of their endpoint
    positions in the sorted tuple ``vertices``, with strictly positive
    weights normalized to sum one; ``edges``, the same edges as sorted
    vertex pairs, is built on first read.  A bipartition is held only as
    ``_left``, the bool mask of the left side over vertex positions, or
    None.  Isolated vertices are not representable: the vertex set is the
    union of edge endpoints.
    """

    __slots__ = ("vertices", "_edges", "weights", "ends", "_left", "_vmass")

    def __init__(self, edges, sides=None):
        """``edges`` is an iterable of (u, v, weight) triples, each weight
        finite and positive.

        ``sides``, when given, is a pair of vertex collections declaring a
        bipartition; every edge must cross it.
        """
        cleaned = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"loop edge at {u!r}")
            if not math.isfinite(w):
                raise ValueError(f"edge {(u, v)!r} has non-finite weight {w}")
            if w <= 0:
                raise ValueError(f"edge {(u, v)!r} has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in cleaned:
                raise ValueError(f"duplicate edge {key!r}")
            cleaned[key] = float(w)
        if not cleaned:
            raise EmptyGraph("graph has no edges")

        keys = tuple(sorted(cleaned))
        vertices = tuple(sorted({x for e in keys for x in e}))
        pos = {v: i for i, v in enumerate(vertices)}
        ends = np.array([(pos[u], pos[v]) for u, v in keys], dtype=np.intp).T
        weights = np.array([cleaned[e] for e in keys], dtype=float)
        self._setup(vertices, ends, weights)
        self._edges = keys

        if sides is None:
            self._set_sides(None)
            return
        left, right = map(frozenset, sides)
        if left & right:
            raise NotBipartite("sides overlap")
        # side members that are no edge endpoint drop out
        self._set_sides((
            np.fromiter((x in left for x in vertices), bool, len(vertices)),
            np.fromiter((x in right for x in vertices), bool, len(vertices)),
        ))

    @classmethod
    def from_arrays(cls, vertices, ends, weights, sides=None):
        """Graph from endpoint positions, without the per-edge checks.

        ``ends`` is a (2, m) int array of positions into the sorted tuple
        ``vertices``: each column is a distinct pair with ends[0] < ends[1],
        the columns sorted, every vertex an endpoint, and every weight
        positive.  ``sides``, when given, is a pair of bool masks over the
        vertex positions declaring a bipartition; every edge must cross it.
        """
        if ends.shape[1] == 0:
            raise EmptyGraph("graph has no edges")
        g = cls.__new__(cls)
        g._setup(tuple(vertices), ends, np.asarray(weights, dtype=float))
        g._edges = None
        g._set_sides(sides)
        return g

    def _setup(self, vertices, ends, weights):
        self.vertices = vertices
        self.ends = ends
        self.weights = weights / weights.sum()
        # twice the vertex measure, summed edge by edge in edge order
        self._vmass = np.bincount(
            ends.T.ravel(), weights=np.repeat(self.weights, 2), minlength=len(vertices)
        )

    def _set_sides(self, masks):
        """Check and store a bipartition given as bool masks over vertices:
        the left mask is kept, the right is its complement."""
        if masks is None:
            self._left = None
            return
        left, right = masks
        if (left & right).any():
            raise NotBipartite("sides overlap")
        outside = ~(left | right)
        if outside.any():
            missing = list(itertools.compress(self.vertices, outside))
            raise NotBipartite(f"vertices outside both sides: {missing[:4]}")
        u, v = self.ends
        flat = np.flatnonzero(left[u] == left[v])
        if len(flat):
            i = flat[0]
            edge = (self.vertices[u[i]], self.vertices[v[i]])
            raise NotBipartite(f"edge {edge!r} does not cross the partition")
        self._left = left

    @property
    def sides(self):
        """The bipartition as (left, right) label frozensets, built on each
        read, or None for a graph without one."""
        if self._left is None:
            return None
        return (frozenset(itertools.compress(self.vertices, self._left)),
                frozenset(itertools.compress(self.vertices, ~self._left)))

    @property
    def edges(self):
        """The edges as sorted vertex pairs, in column order of ``ends``."""
        if self._edges is None:
            at = self.vertices.__getitem__
            u, v = self.ends.tolist()
            self._edges = tuple(zip(map(at, u), map(at, v)))
        return self._edges

    def edge_subgraph(self, keep, sides=None):
        """The graph on the edge columns of the ascending index ``keep``,
        weights renormalized; vertices left without an edge drop out.

        ``sides`` is a pair of bool masks over this graph's vertex positions
        declaring a bipartition of the result; by default this graph's own.
        """
        ends = self.ends[:, keep]
        present = np.zeros(self.n, dtype=bool)
        present[ends] = True
        if sides is None and self._left is not None:
            sides = (self._left, ~self._left)
        if sides is not None:
            sides = (sides[0][present], sides[1][present])
        return WGraph.from_arrays(
            tuple(itertools.compress(self.vertices, present)),
            (np.cumsum(present) - 1)[ends],
            self.weights[keep],
            sides=sides,
        )

    # --- basic accessors ---

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return self.ends.shape[1]

    def vertex_measures(self):
        """nu(v), half the total weight of edges at v, in vertex order."""
        return 0.5 * self._vmass

    def __repr__(self):
        bip = " bipartite" if self._left is not None else ""
        return f"WGraph(n={self.n}, m={self.m}{bip})"


def component_labels(n, ends):
    """The component of each of n vertices joined by the edges of the (2, m)
    position array ends, numbered by least vertex: each pass takes a
    vertex's label to the least at it or a neighbor, then to that label's
    own, until every label in a component names its least vertex."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, ends, label[ends[::-1]])
        new = new[new]
        if (new == label).all():
            return np.unique(label, return_inverse=True)[1]
        label = new


def complete_graph(n):
    """K_n on the vertices 0..n-1, every edge of weight 1/C(n, 2)."""
    ends = np.stack(np.triu_indices(n, 1))
    return WGraph.from_arrays(tuple(range(n)), ends, np.ones(ends.shape[1]))


def label_positions(labels, query):
    """Each entry of the array ``query``'s position in the sorted ``labels``, or -1."""
    labels = np.asarray(labels)
    pos = np.searchsorted(labels, query).clip(max=len(labels) - 1)
    return np.where(labels[pos] == query, pos, -1)


def coloring_weights(codes, weights, target_weights):
    """The coloring measure: each item's weight rescaled so that the items
    over each target carry that target's weight.

    ``codes`` gives each item's target, an index into ``target_weights``.
    Returns the rescaled weights, target_weights[code] * weight / fiber
    mass, and each target's fiber mass, summed item by item in item order;
    with positive weights, a target that no item maps to has mass 0.
    """
    fiber_mass = np.bincount(codes, weights=weights, minlength=len(target_weights))
    return target_weights[codes] * weights / fiber_mass[codes], fiber_mass
