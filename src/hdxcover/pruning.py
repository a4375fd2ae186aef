"""Random pruning of a complex against a Cayley clique complex.

A labeling assigns every edge a generator index.  Faces whose triangles
all multiply consistently are satisfied; the pruned complex keeps the
satisfied top faces.  A family of bad events (atypical generator-tuple
frequencies, non-expanding satisfaction graphs, unrealizable generators
at a vertex) is driven to "all false" by resampling the violated event's
variable scope, after which the pruned complex is certified directly.

Two threshold regimes are available, named by PruneConfig's mode (one of
MODES).  The formula regime, the default, derives every threshold from r
(tuple frequencies bracketed by r^2 around uniform at every level up to
d-1, satisfaction graphs at half the target under the coloring measure);
it is the asymptotically justified regime and does not terminate on small
instances.  The empirical regime (PruneConfig.empirical) keeps the event
structure but moves the thresholds to values small instances can meet:
tuple frequencies are checked through dimension d-2, level d-1 is covered
by the weaker "every (d-1)-face keeps a satisfied top face" event (EC),
and satisfaction graphs are checked at the full target under both the
coloring measure and the pruned link measure.
"""
from __future__ import annotations

import bisect
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
from .spectral import graph_spectra, link_measures

MODES = ("formula", "empirical")


@dataclass(frozen=True)
class PruneConfig:
    """Thresholds and budget for the resampling loop.

    mode names the threshold regime of the module docstring.  The
    empirical regime's NE bound on the pruned link measure makes a clean
    outcome certify the pruned links at the target by construction.
    """

    lambda_target: float
    r: float = 1.5
    mode: str = "formula"
    max_resamples: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.lambda_target < 1.0):
            raise ValueError("lambda_target must lie in (0, 1)")
        if self.r <= 1.0:
            raise ValueError("r must exceed 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown prune mode {self.mode!r}")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be at least 1")

    def at_bounds(self, ell, m):
        scale = float(m) ** (ell + 1)
        return 1.0 / (self.r**2 * scale), self.r**2 / scale

    @classmethod
    def empirical(cls, lambda_target, max_resamples=10_000, **kw):
        return cls(lambda_target, mode="empirical", max_resamples=max_resamples, **kw)


@dataclass(frozen=True)
class SatisfactionGraph:
    """Satisfaction graph of a face with its coloring into a target link."""

    sigma: tuple
    graph: WGraph | None  # coloring measure; None when it is degenerate
    link_graph: WGraph | None  # same edges under the restricted link measure
    missing: tuple | None  # the target face or edge nothing maps to, if any
    dropped_vertices: tuple


# --- the resampling engine shared with combine ---


class LinkTable(NamedTuple):
    """The link of a face, read off the top faces; no labeling involved."""

    verts: tuple  # link vertices, sorted
    pos: np.ndarray  # their positions in the complex's vertices
    uv: np.ndarray  # (2, edges) link edge ends as positions in verts, u < v,
    #                 edges in first-seen coface order
    mass: np.ndarray  # per edge, its cofaces' weights summed in coface order
    top: np.ndarray  # per edge, the first coface holding it
    vert_rows: np.ndarray  # per vertex v, the sorted vertex positions of face + v
    edge_rows: np.ndarray | None  # the same for face + edge; None at top faces
    #                               both as the sampler's row_keys keys them


def build_link_table(X, sigma, row_keys):
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
        return row_keys(np.sort(np.column_stack([base, cols]), axis=1))

    labels = np.asarray(X.vertices)
    return LinkTable(
        tuple(labels[verts].tolist()),
        verts,
        np.searchsorted(verts, ends),
        mass,
        idx[first[order] // len(a)],
        with_sigma(verts),
        with_sigma(ends.T) if len(sigma) + 2 <= X.dim else None,
    )


def target_link(C, face, cache):
    """The 1-skeleton of the link of face in the target C, memoized in
    cache; None when face is not a face of C."""
    if face not in cache:
        cache[face] = C.link(face).one_skeleton() if C.has_face(face) else None
    return cache[face]


def build_satisfaction_graph(sampler, sigma, x, satisfied, colors, tskel, absent=None):
    """Satisfaction graph of sigma under the sampler's state x.

    The sampler supplies the cached link table of sigma (`link_table`) and
    its satisfaction rule for the table's keyed rows (`keys_ok`); link
    edges that complete top faces read the satisfied-top-face mask instead,
    computed if None.  colors gives each link vertex of the table, in its
    order, a vertex label of the target link, whose 1-skeleton is tskel; a
    tskel of None means the image of sigma is no target face, reported as
    the missing face `absent`.
    """
    table = sampler.link_table(sigma)
    if table.edge_rows is None:
        if satisfied is None:
            satisfied = sampler.satisfied_mask(x)
        edge_ok = satisfied[table.top]
    else:
        edge_ok = sampler.keys_ok(x, table.edge_rows)
    vert_ok = sampler.keys_ok(x, table.vert_rows)
    keep = edge_ok & (table.mass > 0)
    if not keep.any():
        good = tuple(itertools.compress(table.verts, vert_ok.tolist()))
        return SatisfactionGraph(sigma, None, None, None, good)
    uv, mass = table.uv[:, keep], table.mass[keep]
    # the link graph's edges sorted, on the link vertices they touch
    order = np.lexsort(uv[::-1])
    present = np.zeros(len(table.verts), dtype=bool)
    present[uv.ravel()] = True
    vertices = tuple(itertools.compress(table.verts, present.tolist()))
    ends = (np.cumsum(present) - 1)[uv[:, order]]
    link_graph = WGraph.from_arrays(vertices, ends, mass[order])
    dropped = tuple(itertools.compress(table.verts, (vert_ok & ~present).tolist()))
    if tskel is None:
        return SatisfactionGraph(sigma, None, link_graph, absent, dropped)
    fiber = fiber_codes(tskel, colors, uv)
    bad = np.flatnonzero((fiber < 0) | ~vert_ok[uv].all(axis=0))
    if len(bad):
        edge = (table.verts[uv[0, bad[0]]], table.verts[uv[1, bad[0]]])
        raise ValueError(f"link edge {edge!r} maps to no target edge")
    colored, fiber_mass = coloring_weights(fiber, mass, tskel.weights)
    empty = np.flatnonzero(fiber_mass == 0)
    if len(empty):
        return SatisfactionGraph(sigma, None, link_graph, tskel.edges[empty[0]], dropped)
    graph = WGraph.from_arrays(vertices, ends, colored[order])
    return SatisfactionGraph(sigma, graph, link_graph, None, dropped)


def ne_violated(sg, threshold, link_measure=False):
    """The NE event on a built satisfaction graph: degenerate or dropping a
    vertex, or expanding worse than threshold, under the coloring measure
    and, if link_measure, under the link measure too, the two graphs solved
    in one stack."""
    if sg.graph is None or sg.dropped_vertices:
        return True
    eigs = graph_spectra((sg.graph, sg.link_graph) if link_measure else (sg.graph,))
    return bool((np.abs(eigs[:, [1, -1]]).max(axis=1) > threshold + 1e-9).any())


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


class Sampler:
    """What the two samplers share.  Each subclass holds its variables and
    defines its satisfaction rule (`keys_ok` on rows keyed by `row_keys`,
    `satisfied_mask`, `face_satisfied`), an evaluator `eval_<kind>(face, x)`
    per event kind, `scope_of` and its own `violations` scan.

    kind_dims gives the dimensions at which each event kind is defined,
    scan_dims those that the scan evaluates (by default the same).
    """

    def __init__(self, X, kind_dims, scan_dims=None):
        self.X = X
        self.d = X.dim
        self.kind_dims = kind_dims
        self.scan_dims = kind_dims if scan_dims is None else scan_dims
        self._events = None
        self._link_tables = {}
        self._scopes = {}

    def events(self):
        """Every (kind, face) event of the scan, sorted; built once."""
        if self._events is None:
            self._events = tuple(sorted(
                (kind, s) for kind, ells in self.scan_dims.items()
                for ell in ells for s in self.X.faces(ell)))
        return self._events

    def link_table(self, sigma):
        if sigma not in self._link_tables:
            self._link_tables[sigma] = build_link_table(self.X, sigma, self.row_keys)
        return self._link_tables[sigma]

    def row_keys(self, rows):
        """Rows of vertex positions as keys_ok reads them; by default themselves."""
        return rows

    def rows_ok(self, x, rows):
        """Whether each row of sorted vertex positions spans a satisfied face."""
        return self.keys_ok(x, self.row_keys(rows))

    def event_scope(self, kind, face):
        """The variables the event reads, resampled: scope_of, computed once."""
        if (kind, face) not in self._scopes:
            self._scopes[kind, face] = self.scope_of(kind, face)
        return self._scopes[kind, face]

    def eval_event(self, kind, face, x):
        """Whether the event of this kind at face is violated under x."""
        face = tuple(sorted(face))
        if kind not in self.kind_dims:
            raise BadKindForFace(f"unknown event kind {kind!r}")
        if len(face) - 1 not in self.kind_dims[kind]:
            raise BadKindForFace(f"{kind} applies to dimensions {list(self.kind_dims[kind])}")
        if face not in self.X.face_pos(len(face) - 1):
            raise NotAFace(f"{face!r} is not a face")
        return getattr(self, f"eval_{kind.lower()}")(face, x)

    def all_violations(self, x):
        return tuple(self.violations(x))

    def graph_base(self, sigma, x):
        """sigma sorted, once it is checked to carry a satisfaction graph:
        of dimension 0 to d-2, and satisfied."""
        sigma = tuple(sorted(sigma))
        if not 0 < len(sigma) < self.d:
            raise BadKindForFace("satisfaction graphs exist at dimensions 0 to d-2")
        if not self.face_satisfied(sigma, x):
            raise UnsatisfiedBase(f"{sigma!r} is not satisfied")
        return sigma


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


class Pruner(Sampler):
    """Precomputed machinery for one (complex, group, generators) triple.

    The variables are edge labels (generator indices); a face is satisfied
    when its triangles multiply consistently.  `resample` drives the events.
    """

    def __init__(self, X, group, gens, config):
        if X.dim < 2:
            raise BadKindForFace("pruning needs a complex of dimension >= 2")
        d = X.dim
        kind_dims = {"AT": range(0, d), "BC": range(0, 1), "EC": range(d - 1, d),
                     "NE": range(0, d - 1)}
        # the regimes differ at level d-1: AT in formula, EC in empirical
        at_top = {"EC": ()} if config.mode == "formula" else {"AT": range(0, d - 1)}
        super().__init__(X, kind_dims, {**kind_dims, **at_top})
        self.group = group
        self.config = config
        self.gens = validate_genset(group, gens, require_generating=False)
        self._cayley = None  # built lazily; only NE and the measure audits need it
        self.m = len(self.gens)

        self.s_elems = np.array(self.gens, dtype=np.int64)
        self.inv_elems = group.inv_table[self.s_elems].astype(np.int64)
        rank = np.full(group.order, -1, dtype=np.int64)
        rank[self.s_elems] = np.arange(self.m)
        self.inv_rank = rank[self.inv_elems]  # the index of each generator's inverse
        # flat products: of elements a, b at a * |G| + b, and of generators
        # i, j at i * m + j, as g_i g_j (gen_mul) and g_i g_j^-1 (gen_div)
        n, s = group.order, self.s_elems
        self.mul = group.mul_table.ravel()
        self.gen_mul = self.mul[(s[:, None] * n + s).ravel()]
        self.gen_div = self.mul[(s[:, None] * n + self.inv_elems).ravel()]

        # every triangle a < b < c once, its edge positions (ab, bc, ac),
        # the (vertex, element) cells of its vertices a, b, c for bc_sweep,
        # and the triangles of each top face
        self.tri_rows = X.level(2).rows
        self.tri_edges = self.row_keys(self.tri_rows)[..., 0]
        self.tri_cells = self.tri_rows.T.ravel() * n
        self.top_to_tris = X.level(2).pairs

        self._at_levels = {}
        self._cayley_links = {}
        # the (d-1)-faces of each top face, for EC
        self.top_to_dfaces = X.level(self.d - 1).pairs
        self.scan_graphs = (None, {})  # the last scan's labeling and NE graphs by face

    @property
    def cayley(self):
        if self._cayley is None:
            self._cayley = cayley_clique_complex(self.group, self.gens, self.d)
        return self._cayley

    # --- labeling helpers ---

    def elements_on(self, Y, f):
        """The group element f puts on each edge of the subcomplex Y,
        aligned with Y.faces(1): the labeling the covers of Y take."""
        edge = self.X.face_index(self.X.vertex_positions(Y.vertices)[Y.level(1).rows])
        if (edge < 0).any():
            raise NotAFace("Y is not a subcomplex of the pruner's complex")
        return self.s_elems[f[edge]]

    def row_keys(self, rows):
        """Edge positions ab, bc, ac of every triangle a < b < c of each
        row of sorted vertex positions; shape (3, rows, triangles)."""
        tri = list(itertools.combinations(range(rows.shape[1]), 3))
        if not tri:
            return np.empty((3, len(rows), 0), dtype=np.intp)
        a, b, c = np.array(tri, dtype=np.intp).T
        cols = np.stack([a, b, b, c, a, c], axis=-1).reshape(-1, 2)
        edges = self.X.face_index(rows[:, cols].reshape(-1, 2))
        return np.moveaxis(edges.reshape(len(rows), len(tri), 3), -1, 0)

    def triangles(self, f, keys=None):
        """The labels ab, bc, ac under f of the triangles of a row_keys table
        (by default the complex's), the products g_ab g_bc, and whether each
        is consistent, g_ab g_bc == g_ac; one per scan serves both sweeps."""
        ab, bc, ac = f[self.tri_edges if keys is None else keys]
        prod = self.gen_mul[ab * self.m + bc]
        return ab, bc, ac, prod, prod == self.s_elems[ac]

    def keys_ok(self, f, keys):
        """Whether every triangle of each row of a row_keys table is consistent."""
        if not keys.shape[-1]:  # rows too short to hold a triangle
            return np.ones(keys.shape[1], dtype=bool)
        return self.triangles(f, keys)[-1].all(axis=-1)

    def satisfied_mask(self, f, tri=None):
        """Whether each top face is satisfied, from triangles(f) unless given."""
        return (self.triangles(f) if tri is None else tri)[-1][self.top_to_tris].all(axis=1)

    def face_satisfied(self, face, f):
        return bool(self.rows_ok(f, self.X.positions(face)[None, :])[0])

    # --- precomputed event tables ---

    def _at_level(self, ell):
        """The AT tables of every ell-face stacked in face order: each link
        vertex's share of its face's link mass, the edge positions from the
        face's vertices to it and whether each runs upward, each row's first
        histogram bin (its face's index times m^(ell+1)), and the rows'
        offsets per face, read off the complex's link-vertex index."""
        if ell not in self._at_levels:
            start, verts, mass = self.X.link_vertices(ell)
            face = np.repeat(np.arange(len(start) - 1), np.diff(start))
            # each face's own pairwise .sum(), as a per-face table would take
            total = np.array([mass[a:b].sum() for a, b in zip(start, start[1:])])
            spos, v = self.X.level(ell).rows[face], verts[:, None]
            lo, hi = np.minimum(spos, v), np.maximum(spos, v)
            eidx = self.X.face_index(np.column_stack([lo.ravel(), hi.ravel()]))
            self._at_levels[ell] = (mass / total[face], eidx.reshape(lo.shape),
                                    spos < v, face * self.m ** (ell + 1), start)
        return self._at_levels[ell]

    def _at_table(self, sigma):
        """The link vertex measure of sigma, and per link vertex v the edge
        positions of sigma's vertices to v and whether each runs upward."""
        vmeas, eidx, fwd, _, start = self._at_level(len(sigma) - 1)
        i = self.X.face_pos(len(sigma) - 1)[sigma]
        rows = slice(start[i], start[i + 1])
        return vmeas[rows], eidx[rows], fwd[rows]

    def covered_dfaces(self, satisfied):
        """Whether each (d-1)-face has a satisfied top face."""
        faces = self.top_to_dfaces[satisfied].ravel()
        return np.bincount(faces, minlength=self.X.n_faces(self.d - 1)) > 0

    # --- events ---

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
        vmeas, eidx, fwd, base, _ = self._at_level(ell)
        labs = f[eidx]
        bins = self.m ** (ell + 1)
        # a downward edge carries its generator's inverse
        codes = np.where(fwd, labs, self.inv_rank[labs]) @ (self.m ** np.arange(ell + 1)) + base
        hist = np.bincount(codes, weights=vmeas, minlength=self.X.n_faces(ell) * bins)
        probs = hist.reshape(-1, bins)
        lo, hi = self.config.at_bounds(ell, self.m)
        return (probs <= lo).any(axis=1) | (probs >= hi).any(axis=1)

    def bc_sweep(self, f, tri=None):
        """Whether the BC event of each vertex is violated under f: some
        generator is no product around a triangle through the vertex;
        triangles(f) is computed unless given.

        A triangle a < b < c with holonomy h = g_ab g_bc g_ac^-1 realizes
        h at a, g_ab^-1 h g_ab = g_bc g_ac^-1 g_ab at b and g_ac^-1 h g_ac
        = g_ac^-1 g_ab g_bc at c, each with its inverse for the reverse loop.
        """
        # with T edge-disjoint triangles at v, a fixed generator goes
        # unrealized with probability at most (1 - 1/m^2)^T, and a union
        # bound over the m generators covers the event
        n, mul = self.group.order, self.mul
        ab, bc, ac, prod, _ = self.triangles(f) if tri is None else tri
        g_ab, quot = self.s_elems[ab], self.gen_div[bc * self.m + ac]
        loops = np.concatenate(
            [mul[g_ab * n + quot], mul[quot * n + g_ab], mul[self.inv_elems[ac] * n + prod]])
        # cell v * n + x of the (vertex, element) table counts loops x at v;
        # a generator is realized by a loop or by its reverse
        realized = np.bincount(self.tri_cells + loops, minlength=len(self.X.vertices) * n)
        realized = realized.reshape(-1, n) > 0
        return ~(realized[:, self.s_elems] | realized[:, self.inv_elems]).all(axis=1)

    def eval_at(self, sigma, f, hits=None):
        """The AT event of sigma, read off at_sweep's result for its
        dimension, which is computed unless given."""
        if hits is None:
            hits = self.at_sweep(f, len(sigma) - 1)
        return bool(hits[self.X.face_pos(len(sigma) - 1)[sigma]])

    def eval_bc(self, face, f, hits=None):
        """The BC event of the 0-face, read off bc_sweep's result, which is
        computed unless given."""
        if hits is None:
            hits = self.bc_sweep(f)
        return bool(hits[self.X.face_pos(len(face) - 1)[face]])

    def eval_ec(self, sigma, f):
        covered = self.covered_dfaces(self.satisfied_mask(f))
        return not covered[self.X.face_pos(len(sigma) - 1)[sigma]]

    def link_colors(self, sigma, f):
        """The Cayley face of the elements on the edges from sigma[0] to the
        rest of sigma, all upward, with the identity, and the element on the
        edge from sigma[0] to each link vertex of sigma, upward or downward,
        in link table order."""
        a = {0}
        if len(sigma) > 1:
            spos = self.X.positions(sigma)
            pairs = np.column_stack([np.full(len(spos) - 1, spos[0]), spos[1:]])
            a.update(self.s_elems[f[self.X.face_index(pairs)]].tolist())
        _, eidx, fwd = self._at_table(sigma)
        labs = f[eidx[:, 0]]
        return tuple(sorted(a)), np.where(fwd[:, 0], self.s_elems[labs], self.inv_elems[labs])

    def satisfaction_graph(self, sigma, f, satisfied=None):
        """Vertices and edges of the link whose union with sigma is
        satisfied, under the coloring measure of link_colors into the
        Cayley link and under the restricted link measure."""
        sigma = self.graph_base(sigma, f)
        a, colors = self.link_colors(sigma, f)
        tskel = target_link(self.cayley.complex, a, self._cayley_links)
        return build_satisfaction_graph(self, sigma, f, satisfied, colors, tskel, absent=a)

    def eval_ne(self, sigma, f, satisfied=None, graphs=None):
        """The NE event of sigma; the satisfaction graph it builds goes into
        the dict graphs, if given, under sigma."""
        try:
            sg = self.satisfaction_graph(sigma, f, satisfied)
        except UnsatisfiedBase:
            return False  # an unsatisfied face is outside the pruned complex
        if graphs is not None:
            graphs[sigma] = sg
        lam = self.config.lambda_target
        if self.config.mode == "formula":
            return ne_violated(sg, lam / 2.0)
        return ne_violated(sg, lam, link_measure=True)

    # --- scopes ---

    def scope_of(self, kind, face):
        """Labeling positions the event reads; resampling rewrites these."""
        if kind == "AT":
            return tuple(np.unique(self._at_table(face)[1]).tolist())
        if kind == "BC":
            # the edges of the triangles through the vertex
            through = (self.tri_rows == self.X.face_pos(len(face) - 1)[face]).any(axis=1)
            return tuple(np.unique(self.tri_edges[:, through]).tolist())
        if kind == "EC":
            # edge positions are indices in faces(1), so the level reads them
            edges = self.X.level(1).pairs[self.X.cofaces(face)]
            return tuple(np.unique(edges).tolist())
        if kind == "NE":
            allowed = np.zeros(len(self.X.vertices), dtype=bool)
            allowed[self.link_table(face).pos] = True
            allowed[self.X.positions(face)] = True
            inside = allowed[self.X.level(1).rows].all(axis=1)
            return tuple(np.flatnonzero(inside).tolist())
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
        """The violated events in events() order, found lazily.  The
        triangles and the satisfied top faces are computed once per scan,
        the AT sweep of each dimension and the BC sweep once each, on the
        first event that reads them.  The EC events, the (d-1)-faces in
        face order since events sort by kind (AT, BC, EC, NE), then face,
        are one block read off the covered (d-1)-faces.  The NE events keep
        their satisfaction graphs in scan_graphs with a copy of f."""
        events = self.events()
        a = bisect.bisect_left(events, ("EC",))
        b = a + sum(self.X.n_faces(ell) for ell in self.scan_dims["EC"])
        tri = self.triangles(f)
        satisfied = self.satisfied_mask(f, tri)
        at, bc = {}, None
        for kind, face in events[:a]:
            if kind == "AT":
                ell = len(face) - 1
                if ell not in at:
                    at[ell] = self.at_sweep(f, ell)
                hit = self.eval_at(face, f, at[ell])
            else:
                if bc is None:
                    bc = self.bc_sweep(f, tri)
                hit = self.eval_bc(face, f, bc)
            if hit:
                yield kind, face
        if b > a:
            for i in np.flatnonzero(~self.covered_dfaces(satisfied)).tolist():
                yield events[a + i]
        self.scan_graphs = f.copy(), {}
        for kind, face in events[b:]:
            if self.eval_ne(face, f, satisfied, self.scan_graphs[1]):
                yield kind, face

    def first_violated(self, f):
        return next(self.violations(f), None)

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


def measure_ratio_audit(pruner, Y, f, ell):
    """Compare, at every satisfied ell-face sigma of the pruner's complex
    (ell <= d - 2), Y's link measure with the coloring measure of sigma's
    satisfaction graph under the pruner's label array f.

    One RatioReport per satisfied face, in faces(ell) order, ending with
    the first whose graph has another support than Y's link: the worst
    multiplicative gap against r^(15 d), r from the pruner's config, and
    the first link vertex, else edge, attaining it if it exceeds 1.  A
    face whose graph has no edge raises Unmeasurable, and one that is no
    face of Y fails as Y.link_skeleton does.  Under the labeling of the
    pruner's last scan, the graphs that scan built are read, not rebuilt."""
    X = pruner.X
    bound = float(pruner.config.r) ** (15 * pruner.d)
    satisfied = pruner.satisfied_mask(f)
    labels, graphs = pruner.scan_graphs
    graphs = graphs if np.array_equal(labels, f) else {}
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
            g = (graphs.get(sigma) or pruner.satisfaction_graph(sigma, f, satisfied)).graph
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
    return {k: Y.n_faces(k) / X.n_faces(k) if Y is not None else 0.0 for k in range(X.dim + 1)}
