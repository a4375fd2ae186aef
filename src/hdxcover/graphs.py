"""Weighted graphs carrying a probability measure on edges.

The edge measure is the primitive; vertex measures are derived from it.
For a plain graph nu(v) is half the mass of edges at v, so vertex masses
sum to one.  A bipartite graph additionally treats each side as its own
probability space, where the side measure of v is the full mass of edges
at v.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyGraph, NotBipartite

TOL = 1e-9


class WGraph:
    """Undirected weighted graph, immutable after construction.

    Edges are stored as sorted vertex pairs with strictly positive weights
    normalized to sum one, and as ``ends``, the (2, m) int array of their
    endpoint positions in ``vertices``.  Isolated vertices are not
    representable: the vertex set is the union of edge endpoints.
    """

    __slots__ = (
        "vertices", "edges", "weights", "ends", "sides", "_pos", "_adj", "_vmass"
    )

    def __init__(self, edges, sides=None):
        """``edges`` is an iterable of (u, v, weight) triples.

        ``sides``, when given, is a pair of vertex collections declaring a
        bipartition; every edge must cross it.
        """
        cleaned = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"loop edge at {u!r}")
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
        self._setup(vertices, keys, ends, weights, pos)

        if sides is not None:
            left, right = frozenset(sides[0]), frozenset(sides[1])
            if left & right:
                raise NotBipartite("sides overlap")
            missing = set(self.vertices) - (left | right)
            if missing:
                raise NotBipartite(f"vertices outside both sides: {sorted(missing)[:4]}")
            for u, v in self.edges:
                if (u in left) == (v in left):
                    raise NotBipartite(f"edge {(u, v)!r} does not cross the partition")
            # drop side members that ended up isolated
            self.sides = (left & set(self.vertices), right & set(self.vertices))
        else:
            self.sides = None

    @classmethod
    def from_arrays(cls, vertices, ends, weights):
        """Graph from endpoint positions, without the per-edge checks.

        ``ends`` is a (2, m) int array of positions into the sorted tuple
        ``vertices``: each column is a distinct pair with ends[0] < ends[1],
        the columns sorted, every vertex an endpoint, and every weight
        positive.
        """
        g = cls.__new__(cls)
        u, v = ends[0].tolist(), ends[1].tolist()
        edges = tuple(zip(map(vertices.__getitem__, u), map(vertices.__getitem__, v)))
        g._setup(tuple(vertices), edges, ends, np.asarray(weights, dtype=float))
        g.sides = None
        return g

    def _setup(self, vertices, edges, ends, weights, pos=None):
        self.vertices = vertices
        self.edges = edges
        self.ends = ends
        self.weights = weights / weights.sum()
        self._pos = pos if pos is not None else {x: i for i, x in enumerate(vertices)}
        self._adj = None
        # twice the vertex measure, summed edge by edge in edge order
        self._vmass = np.bincount(
            ends.T.ravel(), weights=np.repeat(self.weights, 2), minlength=len(vertices)
        )

    @property
    def _adjacency(self):
        """vertex -> list of (neighbor, edge index), built on first use."""
        if self._adj is None:
            adj = {v: [] for v in self.vertices}
            for i, (u, v) in enumerate(self.edges):
                adj[u].append((v, i))
                adj[v].append((u, i))
            self._adj = adj
        return self._adj

    # --- basic accessors ---

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def vertex_index(self, v):
        return self._pos[v]

    def vertex_measure(self, v):
        """nu(v) = half the total weight of edges at v."""
        return 0.5 * self._vmass[self._pos[v]]

    def vertex_measures(self):
        return 0.5 * self._vmass

    def side_measure(self, v):
        """Per-side vertex mass used by the bipartite operator."""
        if self.sides is None:
            raise NotBipartite("graph has no declared bipartition")
        return self._vmass[self._pos[v]]

    def neighbors(self, v):
        return [u for u, _ in self._adjacency[v]]

    def incident(self, v):
        """List of (neighbor, edge index) pairs."""
        return list(self._adjacency[v])

    def has_edge(self, u, v):
        key = (u, v) if u < v else (v, u)
        return any(w == key[1] for w, _ in self._adjacency.get(key[0], ()))

    def connected_components(self):
        """List of vertex sets, one per component of the graph."""
        seen = set()
        comps = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                x = stack.pop()
                for y, _ in self._adjacency[x]:
                    if y not in comp:
                        comp.add(y)
                        seen.add(y)
                        stack.append(y)
            comps.append(comp)
        return comps

    def is_connected(self):
        return len(self.connected_components()) == 1

    def reweighted(self, new_weights):
        """Same edge set with a different weight vector."""
        sides = None if self.sides is None else (self.sides[0], self.sides[1])
        return WGraph(
            [(u, v, w) for (u, v), w in zip(self.edges, new_weights)], sides=sides
        )

    def __repr__(self):
        bip = " bipartite" if self.sides is not None else ""
        return f"WGraph(n={self.n}, m={self.m}{bip})"
