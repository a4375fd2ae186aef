"""Random pruning of a complex against a Cayley clique complex.

A labeling assigns every edge a generator index.  Faces whose triangles
all multiply consistently are satisfied; the pruned complex keeps the
satisfied top faces.  A family of bad events (atypical generator-tuple
frequencies, non-expanding satisfaction graphs, unrealizable generators
at a vertex) is driven to "all false" by resampling the violated event's
variable scope, after which the pruned complex is certified directly.

Two threshold regimes are available.  The formula regime derives every
threshold from r (tuple frequencies bracketed by r^2 around uniform at
every level up to d-1, satisfaction graphs at half the target); it is
the asymptotically justified regime and does not terminate on small
instances.  The empirical regime keeps the event structure but moves
the thresholds to values small instances can meet: tuple frequencies
are checked through dimension d-2, level d-1 is covered by the weaker
"every (d-1)-face keeps a satisfied top face" event, and satisfaction
graphs are checked at the full target under both the coloring measure
and the pruned link measure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexes import PureComplex
from .errors import (
    BadKindForFace,
    NotAFace,
    Unmeasurable,
    UnsatisfiedBase,
)
from .graphs import WGraph, coloring_weights, fiber_codes
from .groups import cayley_clique_complex, validate_genset
from .spectral import adjacency_spectrum, link_measures

@dataclass(frozen=True)
class PruneConfig:
    """Thresholds and budget for the resampling loop.

    at_top_level includes dimension d-1 in the tuple-frequency events
    (the formula regime); edge_cover_events adds the EC surrogate for
    that level instead.  ne_threshold defaults to half the target when
    unset.  ne_check_link_measure additionally bounds the satisfaction
    graph under the pruned link measure, which makes a clean outcome
    certify the pruned links at the target by construction.
    """

    lambda_target: float
    r: float = 1.5
    c: float = 1.1
    eta: float = 0.3
    at_top_level: bool = True
    edge_cover_events: bool = False
    ne_threshold: float | None = None
    ne_check_link_measure: bool = False
    max_resamples: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.lambda_target < 1.0):
            raise ValueError("lambda_target must lie in (0, 1)")
        if self.r <= 1.0:
            raise ValueError("r must exceed 1")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be at least 1")

    @property
    def resolved_ne_threshold(self):
        if self.ne_threshold is not None:
            return self.ne_threshold
        return self.lambda_target / 2.0

    def at_bounds(self, ell, m):
        scale = float(m) ** (ell + 1)
        return 1.0 / (self.r**2 * scale), self.r**2 / scale

    @classmethod
    def formula(cls, lambda_target, **kw):
        return cls(lambda_target=lambda_target, **kw)

    @classmethod
    def empirical(cls, lambda_target, max_resamples=10_000, **kw):
        return cls(
            lambda_target=lambda_target,
            at_top_level=False,
            edge_cover_events=True,
            ne_threshold=lambda_target,
            ne_check_link_measure=True,
            max_resamples=max_resamples,
            **kw,
        )


@dataclass(frozen=True)
class SatisfactionGraph:
    """Satisfaction graph of a face with its coloring into a Cayley link."""

    sigma: tuple
    graph: WGraph | None  # coloring measure; None when no edge survives
    link_graph: WGraph | None  # same edges under the restricted link measure
    coloring: dict | None  # link vertex -> group element
    target: PureComplex | None  # the Cayley link the coloring maps into
    degenerate: bool
    missing: tuple | None
    dropped_vertices: tuple


# --- the resampling engine shared with combine ---


class LinkTable(NamedTuple):
    """The link of a face, read off the top faces; no labeling involved."""

    verts: tuple  # link vertices, sorted
    uv: np.ndarray  # (2, edges) link edge ends as positions in verts, u < v,
    #                 edges in first-seen coface order
    mass: np.ndarray  # per edge, its cofaces' weights summed in coface order
    top: np.ndarray  # per edge, the first coface holding it
    vert_rows: np.ndarray  # per vertex v, the sorted vertex positions of face + v
    edge_rows: np.ndarray | None  # the same for face + edge; None at top faces


def build_link_table(X, sigma):
    """The link table of sigma: the cofaces of sigma less its columns give
    the link vertices, and each pair of their columns a link edge."""
    idx, spos, rows = X.link_rows(sigma)
    a, b = np.triu_indices(rows.shape[1], 1)
    n = len(X.vertices)
    keys, first, inv = np.unique(
        (rows[:, a] * n + rows[:, b]).ravel(), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mass = np.bincount(
        rank[inv], weights=np.repeat(X.weights[idx], len(a)), minlength=len(keys)
    )
    keys = keys[order]
    ends = np.stack([keys // n, keys % n])
    verts = np.unique(rows)

    def with_sigma(cols):
        base = np.broadcast_to(spos, (len(cols), len(spos)))
        return np.sort(np.column_stack([base, cols]), axis=1)

    labels = np.asarray(X.vertices)
    return LinkTable(
        tuple(labels[verts].tolist()),
        np.searchsorted(verts, ends),
        mass,
        idx[first[order] // len(a)],
        with_sigma(verts),
        with_sigma(ends.T) if len(sigma) + 2 <= X.dim else None,
    )


def target_link(C, face, cache):
    """The link of face in the target C and its 1-skeleton, memoized in
    cache; (None, None) when face is not a face of C, and no skeleton for
    a 0-dimensional link."""
    if face not in cache:
        link = C.link(face) if C.has_face(face) else None
        skel = link.one_skeleton() if link is not None and link.dim else None
        cache[face] = (link, skel)
    return cache[face]


def build_satisfaction_graph(
    sampler, sigma, x, satisfied=None, color=None, target=(None, None), absent=None
):
    """Satisfaction graph of sigma under the sampler's state x.

    The sampler supplies the cached link table of sigma (`link_table`) and
    its satisfaction rule for rows of vertex positions (`rows_ok`); link
    edges that complete top faces read the satisfied-top-face mask instead,
    computed unless given.  color maps a satisfied link vertex into the
    target link, given as (link, 1-skeleton); a link of None means the
    image of sigma is no target face, reported as the missing face
    `absent`.  With no color, sigma has no reference link and the graph is
    the link graph itself.
    """
    table = sampler.link_table(sigma)
    if table.edge_rows is None:
        if satisfied is None:
            satisfied = sampler.satisfied_mask(x)
        edge_ok = satisfied[table.top]
    else:
        edge_ok = sampler.rows_ok(x, table.edge_rows)
    vert_ok = sampler.rows_ok(x, table.vert_rows)
    keep = edge_ok & (table.mass > 0)
    good = tuple(itertools.compress(table.verts, vert_ok.tolist()))
    coloring = None if color is None else {v: color(v) for v in good}
    link, tskel = target
    if not keep.any():
        return SatisfactionGraph(sigma, None, None, coloring, link, True, None, good)
    uv, mass = table.uv[:, keep], table.mass[keep]
    # the link graph's edges sorted, on the link vertices they touch
    order = np.lexsort(uv[::-1])
    present = np.zeros(len(table.verts), dtype=bool)
    present[uv.ravel()] = True
    vertices = tuple(itertools.compress(table.verts, present.tolist()))
    ends = (np.cumsum(present) - 1)[uv[:, order]]
    link_graph = WGraph.from_arrays(vertices, ends, mass[order])
    dropped = tuple(itertools.compress(table.verts, (vert_ok & ~present).tolist()))
    graph, missing = link_graph, None
    if coloring is not None and link is None:
        graph, missing = None, absent
    elif coloring is not None:
        colors = np.zeros(len(table.verts), dtype=np.asarray(tskel.vertices).dtype)
        colors[vert_ok] = list(coloring.values())
        fiber = fiber_codes(tskel, colors, uv)
        bad = np.flatnonzero((fiber < 0) | ~vert_ok[uv].all(axis=0))
        if len(bad):
            edge = (table.verts[uv[0, bad[0]]], table.verts[uv[1, bad[0]]])
            raise ValueError(f"link edge {edge!r} maps to no target edge")
        colored, fiber_mass = coloring_weights(fiber, mass, tskel.weights)
        empty = np.flatnonzero(fiber_mass == 0)
        if len(empty):
            graph, missing = None, tskel.edges[empty[0]]
        else:
            graph = WGraph.from_arrays(vertices, ends, colored[order])
    return SatisfactionGraph(
        sigma, graph, link_graph, coloring, link, graph is None, missing, dropped
    )


def event_list(X, dims):
    """Every (kind, face) event, sorted, for each kind at its dimensions."""
    events = []
    for kind, ells in dims.items():
        events += [(kind, s) for ell in ells for s in X.faces(ell)]
    return tuple(sorted(events))


def face_positions(X, top):
    """The index of each face of dimension below top in its level's faces."""
    return {s: i for ell in range(top) for i, s in enumerate(X.faces(ell))}


def event_face(dims, kind, face):
    """The face sorted, once events of this kind are known to live at its
    dimension."""
    face = tuple(sorted(face))
    if kind not in dims:
        raise BadKindForFace(f"unknown event kind {kind!r}")
    if len(face) - 1 not in dims[kind]:
        raise BadKindForFace(f"{kind} applies to dimensions {list(dims[kind])}")
    return face


def ne_violated(sg, config):
    """The NE event on a built satisfaction graph: degenerate, empty or
    dropping a vertex, or expanding worse than the threshold, under the
    coloring measure and optionally under the link measure too."""
    if sg.degenerate or sg.graph is None or sg.dropped_vertices:
        return True
    thr = config.resolved_ne_threshold + 1e-9
    graphs = (sg.graph, sg.link_graph) if config.ne_check_link_measure else (sg.graph,)
    return any(adjacency_spectrum(g).two_sided > thr for g in graphs)


def resample(sampler, x, values, rng, budget):
    """The Moser-Tardos loop: while the sampler reports a violated event,
    redraw the variables in its scope uniformly from values, for at most
    budget resamples.

    Returns the final state, the transcript of (iteration, kind, face,
    scope) and the events still violated, which is empty when clean.
    """
    transcript = []
    while True:
        violated = sampler.first_violated(x)
        if violated is None:
            return x, tuple(transcript), ()
        if len(transcript) >= budget:
            return x, tuple(transcript), sampler.all_violations(x)
        kind, face = violated
        scope = sampler.event_scope(kind, face)
        x = x.copy()
        x[list(scope)] = values[rng.integers(0, len(values), size=len(scope))]
        transcript.append((len(transcript), kind, face, scope))


@dataclass
class PruneOutcome:
    status: str  # "clean" | "budget_exhausted"
    labeling: np.ndarray  # generator indices aligned with X.faces(1)
    y: PureComplex | None
    isolated_vertices: tuple
    resamples: int
    transcript: tuple
    violations_remaining: tuple
    config: PruneConfig


def sample_labeling(X, m, rng):
    """Independent uniform generator indices, one per edge of X."""
    if m < 1:
        raise ValueError("need at least one generator")
    rng = np.random.default_rng(rng)
    return rng.integers(0, m, size=X.n_faces(1), dtype=np.int64)


class Pruner:
    """Precomputed machinery for one (complex, group, generators) triple.

    The variables are edge labels (generator indices); a face is satisfied
    when its triangles multiply consistently.  `resample` drives the events.
    """

    def __init__(self, X, group, gens, config):
        if X.dim < 2:
            raise BadKindForFace("pruning needs a complex of dimension >= 2")
        self.X = X
        self.group = group
        self.config = config
        self.gens = validate_genset(group, gens, require_generating=False)
        self._cayley = None  # built lazily; only NE and the measure audits need it
        self.m = len(self.gens)
        self.d = X.dim

        self.edges = X.faces(1)
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self.n_edges = len(self.edges)
        # edge position by the vertex positions of its ends, -1 off edges
        self.edge_ends = X.level(1).rows.T
        self.edge_index = np.full((len(X.vertices),) * 2, -1, dtype=np.intp)
        self.edge_index[tuple(self.edge_ends)] = np.arange(self.n_edges)
        self.edge_index[tuple(self.edge_ends[::-1])] = np.arange(self.n_edges)

        self.s_elems = np.array(self.gens, dtype=np.int64)
        self.inv_elems = group.inv_table[self.s_elems].astype(np.int64)
        rank = np.full(group.order, -1, dtype=np.int64)
        rank[self.s_elems] = np.arange(self.m)
        self.s_rank = rank

        # every triangle a < b < c once, its edge positions (ab, bc, ac),
        # and the triangles of each top face
        self.tri_rows = X.level(2).rows
        self.tri_edges = self._tri_index(self.tri_rows)[:, 0]
        self.top_to_tris = X.level(2).pairs

        self._at_tables = {}
        self._at_levels = {}
        self._link_tables = {}
        self._cayley_links = {}
        # the (d-1)-faces of each top face, for EC
        self.top_to_dfaces = X.level(self.d - 1).pairs
        self.face_pos = face_positions(X, self.d)
        # the dimensions at which each event kind is defined
        self.kind_dims = {
            "AT": range(0, self.d),
            "BC": range(0, 1),
            "EC": range(self.d - 1, self.d),
            "NE": range(0, self.d - 1),
        }
        self._events = None

    @property
    def cayley(self):
        if self._cayley is None:
            self._cayley = cayley_clique_complex(self.group, self.gens, self.d)
        return self._cayley

    # --- labeling helpers ---

    def directed_element(self, f, u, v):
        """The element f puts on the edge from u to v: the edge's generator
        upward, its inverse downward."""
        if u < v:
            return self.gens[f[self.edge_pos[u, v]]]
        return self.group.inv(self.gens[f[self.edge_pos[v, u]]])

    def elements_on(self, Y, f):
        """The group element f puts on each edge of the subcomplex Y,
        aligned with Y.faces(1): the labeling the covers of Y take."""
        edge = self.X.face_index(self.X.vertex_positions(Y.vertices)[Y.level(1).rows])
        if (edge < 0).any():
            raise NotAFace("Y is not a subcomplex of the pruner's complex")
        return self.s_elems[f[edge]]

    def _tri_index(self, rows):
        """Edge positions (ab, bc, ac) of every triangle a < b < c of each
        row of sorted vertex positions; shape (rows, triangles, 3)."""
        tri = list(itertools.combinations(range(rows.shape[1]), 3))
        a, b, c = np.array(tri, dtype=np.intp).reshape(-1, 3).T
        ab, bc, ac = ((rows[:, x], rows[:, y]) for x, y in ((a, b), (b, c), (a, c)))
        E = self.edge_index
        return np.stack([E[ab], E[bc], E[ac]], axis=-1)

    def _tri_ok(self, f, eidx):
        """Whether each triangle of a _tri_index table multiplies
        consistently under f: g_ab g_bc == g_ac."""
        el = self.s_elems[f[eidx]]
        return self.group.mul_table[el[..., 0], el[..., 1]] == el[..., 2]

    def rows_ok(self, f, rows):
        """Whether each row of sorted vertex positions spans a satisfied face."""
        return self._tri_ok(f, self._tri_index(rows)).all(axis=-1)

    def satisfied_mask(self, f):
        return self._tri_ok(f, self.tri_edges)[self.top_to_tris].all(axis=1)

    def face_satisfied(self, face, f):
        return bool(self.rows_ok(f, self.X.positions(face)[None, :])[0])

    # --- precomputed event tables ---

    def _link_vertices(self, sigma):
        """Positions of the link vertices of sigma, sorted, and their
        normalized mass, summed over the cofaces in coface order."""
        idx, _, rows = self.X.link_rows(sigma)
        verts, inv = np.unique(rows, return_inverse=True)
        w = np.repeat(self.X.weights[idx], rows.shape[1])
        meas = np.bincount(inv.ravel(), weights=w)
        return verts, meas / meas.sum()

    def _at_table(self, sigma):
        """The link vertex measure of sigma, and per link vertex v the edge
        positions of sigma's vertices to v and whether each runs upward."""
        if sigma not in self._at_tables:
            verts, vmeas = self._link_vertices(sigma)
            spos = self.X.positions(sigma)
            eidx = self.edge_index[spos[None, :], verts[:, None]]
            fwd = spos[None, :] < verts[:, None]
            self._at_tables[sigma] = (vmeas, eidx, fwd)
        return self._at_tables[sigma]

    def _at_level(self, ell):
        """The AT tables of every ell-face stacked in face order, and each
        row's first histogram bin: its face's index times m^(ell+1)."""
        if ell not in self._at_levels:
            tables = [self._at_table(s) for s in self.X.faces(ell)]
            vmeas, eidx, fwd = map(np.concatenate, zip(*tables))
            sizes = [len(t[0]) for t in tables]
            base = np.repeat(np.arange(len(tables)) * self.m ** (ell + 1), sizes)
            self._at_levels[ell] = (vmeas, eidx, fwd, base)
        return self._at_levels[ell]

    def link_table(self, sigma):
        if sigma not in self._link_tables:
            self._link_tables[sigma] = build_link_table(self.X, sigma)
        return self._link_tables[sigma]

    def covered_dfaces(self, satisfied):
        out = np.zeros(self.X.n_faces(self.d - 1), dtype=bool)
        if satisfied.any():
            out[self.top_to_dfaces[satisfied].ravel()] = True
        return out

    # --- events ---

    def events(self):
        if self._events is None:
            dims = dict(self.kind_dims)
            if not self.config.at_top_level:
                dims["AT"] = range(0, self.d - 1)
            if not self.config.edge_cover_events:
                dims["EC"] = ()
            self._events = event_list(self.X, dims)
        return self._events

    def at_sweep(self, f, ell):
        """Whether the AT event of each ell-face is violated under f: some
        generator tuple on the edges from the face to its link vertices has
        link measure at most lo or at least hi.

        One bincount over the stacked tables gives every face's histogram;
        each bin sums its face's link vertices in link order, so the
        probabilities equal a per-face bincount's bit for bit.
        """
        # under fresh uniform labels, each of the m^(l+1) tuples holds a
        # Binomial(k, m^-(l+1)) share of the k link vertices, so by a
        # Chernoff bound a violation has probability at most
        # m^(l+1) exp(-0.03 m^-(l+1) (r-1)^2 k); this only becomes small
        # once k is far larger than m^(l+1)
        vmeas, eidx, fwd, base = self._at_level(ell)
        labs = f[eidx]
        elems = np.where(fwd, self.s_elems[labs], self.inv_elems[labs])
        bins = self.m ** (ell + 1)
        codes = self.s_rank[elems] @ (self.m ** np.arange(ell + 1)) + base
        probs = np.bincount(
            codes, weights=vmeas, minlength=self.X.n_faces(ell) * bins
        ).reshape(-1, bins)
        lo, hi = self.config.at_bounds(ell, self.m)
        return (probs <= lo).any(axis=1) | (probs >= hi).any(axis=1)

    def bc_sweep(self, f):
        """Whether the BC event of each vertex is violated under f: some
        generator is no product around a triangle through the vertex.

        A triangle a < b < c with holonomy h = g_ab g_bc g_ac^-1 realizes
        h at a, g_ab^-1 h g_ab at b and g_ac^-1 h g_ac at c, each with its
        inverse for the reverse loop.
        """
        # with T edge-disjoint triangles at v, a fixed generator goes
        # unrealized with probability at most (1 - 1/m^2)^T, and a union
        # bound over the m generators covers the event
        n, inv, table = self.group.order, self.group.inv_table, self.group.mul_table

        def mul(a, b):
            return table.ravel()[a * n + b]

        g_ab, g_bc, g_ac = self.s_elems[f[self.tri_edges]].T
        h = mul(mul(g_ab, g_bc), inv[g_ac])
        at_b, at_c = mul(mul(inv[g_ab], h), g_ab), mul(mul(inv[g_ac], h), g_ac)
        loops = np.concatenate([h, at_b, at_c])
        # cell v * n + x of the (vertex, element) table marks x realized at v
        cells = self.tri_rows.T.ravel() * n
        realized = np.zeros(len(self.X.vertices) * n, dtype=bool)
        realized[cells + loops] = True
        realized[cells + inv[loops]] = True
        return ~realized.reshape(-1, n)[:, self.s_elems].all(axis=1)

    def eval_at(self, sigma, f, hits=None):
        """The AT event of sigma, read off at_sweep's result for its
        dimension, which is computed unless given."""
        if hits is None:
            hits = self.at_sweep(f, len(sigma) - 1)
        return bool(hits[self.face_pos[sigma]])

    def eval_bc(self, v, f, hits=None):
        """The BC event of vertex v, read off bc_sweep's result, which is
        computed unless given."""
        if hits is None:
            hits = self.bc_sweep(f)
        return bool(hits[self.face_pos[(v,)]])

    def eval_ec(self, sigma, f, satisfied=None):
        if satisfied is None:
            satisfied = self.satisfied_mask(f)
        return not bool(self.covered_dfaces(satisfied)[self.face_pos[sigma]])

    def satisfaction_graph(self, sigma, f, satisfied=None):
        """Vertices and edges of the link whose union with sigma is satisfied.

        Carries the coloring into the appropriate Cayley link and both the
        coloring measure and the restricted link measure.  For the empty
        face the graph is the full skeleton and there is no coloring.
        """
        sigma = tuple(sorted(sigma))
        if len(sigma) - 1 > self.d - 2:
            raise BadKindForFace("satisfaction graphs exist up to dimension d-2")
        if sigma == ():
            skel = self.X.one_skeleton()
            return SatisfactionGraph(sigma, skel, skel, None, None, False, None, ())
        if not self.face_satisfied(sigma, f):
            raise UnsatisfiedBase(f"{sigma!r} is not satisfied")
        u0 = sigma[0]
        a = tuple(sorted({0} | {self.directed_element(f, u0, u) for u in sigma[1:]}))
        return build_satisfaction_graph(
            self,
            sigma,
            f,
            satisfied,
            lambda v: self.directed_element(f, u0, v),
            target_link(self.cayley.complex, a, self._cayley_links),
            absent=a,
        )

    def eval_ne(self, sigma, f, satisfied=None):
        try:
            sg = self.satisfaction_graph(sigma, f, satisfied)
        except UnsatisfiedBase:
            return False  # an unsatisfied face is outside the pruned complex
        return ne_violated(sg, self.config)

    def eval_event(self, kind, face, f):
        face = event_face(self.kind_dims, kind, face)
        if kind == "AT":
            return self.eval_at(face, f)
        if kind == "BC":
            return self.eval_bc(face[0], f)
        if kind == "EC":
            return self.eval_ec(face, f)
        return self.eval_ne(face, f)

    # --- scopes ---

    def event_scope(self, kind, face):
        """Labeling positions the event reads; resampling rewrites these."""
        if kind == "AT":
            return tuple(np.unique(self._at_table(face)[1]).tolist())
        if kind == "BC":
            # the edges of the triangles through the vertex
            through = (self.tri_rows == self.face_pos[face]).any(axis=1)
            return tuple(np.unique(self.tri_edges[through]).tolist())
        if kind == "EC":
            # edge positions are indices in faces(1), so the level reads them
            edges = self.X.level(1).pairs[self.X.cofaces(face)]
            return tuple(np.unique(edges).tolist())
        if kind == "NE":
            allowed = np.zeros(len(self.X.vertices), dtype=bool)
            allowed[self._link_vertices(face)[0]] = True
            allowed[self.X.positions(face)] = True
            return tuple(np.nonzero(allowed[self.edge_ends].all(axis=0))[0].tolist())
        raise BadKindForFace(f"unknown event kind {kind!r}")

    # --- pruning and the main loop ---

    def f_pruning(self, f):
        mask = self.satisfied_mask(f)
        if not mask.any():
            return None, tuple(self.X.vertices), mask
        y = self.X.restrict(np.nonzero(mask)[0])
        isolated = tuple(sorted(set(self.X.vertices) - set(y.vertices)))
        return y, isolated, mask

    def violations(self, f):
        """The violated events in events() order, found lazily; the
        satisfied top faces are computed once, and the AT sweep of each
        dimension, the BC sweep and the covered (d-1)-faces once each, on
        the first event that reads them."""
        satisfied = self.satisfied_mask(f)
        at, bc, covered = {}, None, None
        for kind, face in self.events():
            if kind == "AT":
                ell = len(face) - 1
                if ell not in at:
                    at[ell] = self.at_sweep(f, ell)
                hit = self.eval_at(face, f, at[ell])
            elif kind == "BC":
                if bc is None:
                    bc = self.bc_sweep(f)
                hit = self.eval_bc(face[0], f, bc)
            elif kind == "EC":
                if covered is None:
                    covered = self.covered_dfaces(satisfied)
                hit = not covered[self.face_pos[face]]
            else:
                hit = self.eval_ne(face, f, satisfied=satisfied)
            if hit:
                yield kind, face

    def first_violated(self, f):
        return next(self.violations(f), None)

    def all_violations(self, f):
        return tuple(self.violations(f))

    def run(self, rng):
        rng = np.random.default_rng(rng)
        f = sample_labeling(self.X, self.m, rng)
        f, transcript, remaining = resample(
            self, f, np.arange(self.m), rng, self.config.max_resamples
        )
        y, isolated, _ = self.f_pruning(f)
        return PruneOutcome(
            status="budget_exhausted" if remaining else "clean",
            labeling=f,
            y=y,
            isolated_vertices=isolated,
            resamples=len(transcript),
            transcript=transcript,
            violations_remaining=remaining,
            config=self.config,
        )


# --- pruned measure and audits ---


@dataclass(frozen=True)
class PrunedMeasure:
    weights: np.ndarray  # aligned with Y.top_faces
    patterns: dict  # oriented reference pattern -> fiber mass

    @property
    def total(self):
        return float(self.weights.sum())


def pruned_measure(pruner, Y, f):
    """Measure on Y(d) induced by the identity link of the pruner's Cayley
    complex, for the pruner's label array f.

    Sample an oriented top face of the identity link, then a fiber face of
    Y whose directed labels from its first vertex realize that pattern,
    conditionally on Y's own measure.  Fails with the missing pattern when
    some pattern has an empty fiber.
    """
    d = Y.dim
    c_e = pruner.cayley.complex.link((0,))
    # the element on the edge from column p to column q of each top face:
    # the edge's element upward, its inverse downward
    p, q = np.nonzero(~np.eye(d + 1, dtype=bool))
    subsets = list(itertools.combinations(range(d + 1), 2))
    cols = [subsets.index((min(a, b), max(a, b))) for a, b in zip(p, q)]
    up = pruner.elements_on(Y, f)[Y.level(1).pairs[:, cols]]
    elems = np.where(p < q, up, pruner.group.inv_table[up])
    # The d! orientations of a face with first vertex p realize patterns
    # exactly when p's elements to the other vertices form a top face of c_e,
    # and then realize each of that face's d! patterns once.
    sets = np.sort(elems.reshape(-1, d), axis=1)
    target = c_e.face_index(c_e.vertex_positions(sets))
    hit = np.flatnonzero(target >= 0)
    face = hit // (d + 1)
    weights, fiber_mass = coloring_weights(
        target[hit], Y.weights[face] / math.factorial(d + 1),
        c_e.weights / math.factorial(d),
    )
    empty = np.flatnonzero(fiber_mass == 0)
    if len(empty):
        pat = c_e.top_faces[empty[0]]
        raise Unmeasurable(f"no face of Y realizes {pat!r}", witness=pat)
    # a hit's d! equal shares, added one by one as a sum over orientations
    k = math.factorial(d)
    patterns = {o: m for t, m in zip(c_e.top_faces, fiber_mass)
                for o in itertools.permutations(t)}
    weights = np.bincount(np.repeat(face, k), np.repeat(weights, k), len(Y.weights))
    return PrunedMeasure(weights, patterns)


@dataclass(frozen=True)
class RatioReport:
    sigma: tuple
    max_ratio: float
    bound: float
    witness: tuple
    support_matches: bool

    @property
    def ok(self):
        return self.support_matches and self.max_ratio <= self.bound


def measure_ratio_audit(pruner, Y, f, ell):
    """Compare, at every satisfied ell-face sigma of the pruner's complex
    (ell <= d - 2), Y's link measure with the coloring measure of sigma's
    satisfaction graph under the pruner's label array f.

    One RatioReport per satisfied face, in faces(ell) order, ending with
    the first whose graph has another support than Y's link: the worst
    multiplicative gap against r^(15 d), r from the pruner's config, and
    the first link vertex, else edge, attaining it if it exceeds 1.  A
    face whose graph has no edge raises Unmeasurable, and one that is no
    face of Y fails as Y.link_skeleton does."""
    X = pruner.X
    bound = float(pruner.config.r) ** (15 * pruner.d)
    satisfied = pruner.satisfied_mask(f)
    yv = np.asarray(Y.vertices)
    yface = np.full(X.n_faces(ell), -1)
    if Y.dim >= ell + 2:
        yface = Y.face_index(Y.vertex_positions(X.vertices)[X.level(ell).rows])
        # Y's links, their vertices and edges in face order
        parts, shift = [], 0
        for lo, verts, vlink, ends, mass in Y.link_blocks(ell):
            w, vmass = link_measures(vlink, ends, mass)
            parts.append((verts, vlink + lo, ends + shift, w, 0.5 * vmass))
            shift += len(verts)
        verts, vlink, ends, w, vm = (np.concatenate(p, axis=-1) for p in zip(*parts))
        vs, es = (np.searchsorted(x, np.arange(Y.n_faces(ell) + 1))
                  for x in (vlink, vlink[ends[0]]))
    at, reports = Y.vertices.__getitem__, []
    for i, sigma in enumerate(X.faces(ell)):
        try:
            g = pruner.satisfaction_graph(sigma, f, satisfied).graph
        except UnsatisfiedBase:
            continue
        if g is None:
            raise Unmeasurable(f"satisfaction graph at {sigma!r} has no edges",
                               witness=sigma)
        j = yface[i]
        if j < 0:
            Y.link_skeleton(sigma)  # raises, as sigma is no face of Y
            raise NotAFace(f"{sigma!r} is not a face of Y")
        link, edges = slice(vs[j], vs[j + 1]), ends[:, es[j]:es[j + 1]]
        if not (np.array_equal(yv[verts[link]], g.vertices)
                and np.array_equal(edges - vs[j], g.ends)):
            reports.append(RatioReport(sigma, 1.0, bound, (), False))
            break
        a = np.concatenate([vm[link], w[es[j]:es[j + 1]]])  # vertices, then edges
        b = np.concatenate([g.vertex_measures(), g.weights])
        ratio = np.maximum(a / b, b / a)
        k, n = int(ratio.argmax()), len(g.vertices)
        witness = (() if ratio[k] <= 1.0 else ("vertex", at(verts[vs[j] + k])) if k < n
                   else ("edge", tuple(map(at, verts[edges[:, k - n]]))))
        reports.append(RatioReport(sigma, max(float(ratio[k]), 1.0), bound, witness, True))
    return tuple(reports)


def face_fraction_report(X, Y):
    """Fraction of X's faces surviving in Y, per dimension."""
    out = {}
    for k in range(0, X.dim + 1):
        out[k] = (Y.n_faces(k) / X.n_faces(k)) if Y is not None else 0.0
    return out
