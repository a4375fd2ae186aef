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
    BadParameter,
    NotAFace,
    Unmeasurable,
    UnsatisfiedBase,
    check_count,
)
from .graphs import WGraph, coloring_weights
from .groups import cayley_clique_complex, validate_genset
from .spectral import link_measures, link_spectra

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
            raise BadParameter("lambda_target must lie in (0, 1)")
        if not self.r > 1.0:  # nan too
            raise BadParameter("r must exceed 1")
        if self.mode not in MODES:
            raise BadParameter(f"unknown prune mode {self.mode!r}")
        check_count("max_resamples", self.max_resamples)

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


class LevelTable(NamedTuple):
    """The link tables of a level's faces stacked in face order, with the
    faces' own rows keyed: face f's link vertices are entries vstart[f]:
    vstart[f + 1] of pos, vface and vert_rows, its edges entries estart[f]:
    estart[f + 1] of the rest, uv as vertex entries, and srt lists each
    face's edges in sorted order.  Edge indices are int32, to halve it."""

    face_rows: np.ndarray
    vstart: np.ndarray
    pos: np.ndarray
    vface: np.ndarray
    estart: np.ndarray
    eface: np.ndarray
    uv: np.ndarray
    mass: np.ndarray
    top: np.ndarray
    srt: np.ndarray
    vert_rows: np.ndarray
    edge_rows: np.ndarray | None


def build_level_table(X, ell, row_keys):
    """The LevelTable of the ell-faces, from one np.unique over the (face,
    u, v) codes of the cofaces' link edges: a face's edges keep their
    first-seen order and coface-order mass sums, so each slice is the table
    of its face built alone.  Large temporaries go early, to bound the peak."""
    lev, n = X.level(ell), np.int64(len(X.vertices))  # codes are formed in int64
    vstart, pos, _ = X.link_vertices(ell)
    faces = len(lev.codes)
    rows = X.top_positions()[lev.cof[:, None], lev.rest[lev.sub]]
    a, b = np.triu_indices(rows.shape[1], 1)
    codes = np.repeat(np.arange(faces), np.diff(lev.start))[:, None] * n + rows[:, a]
    codes = (codes * n + rows[:, b]).ravel().astype(np.min_scalar_type(faces * n * n))
    del rows
    keys, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    del codes
    order = np.argsort(first)
    srt = np.empty(len(order), dtype=np.int32)
    srt[order] = np.arange(len(order))
    mass = np.bincount(srt[inv], np.repeat(X.weights[lev.cof], len(a)), len(keys))
    top = lev.cof[first[order] // len(a)].astype(np.int32)
    eface, u, v = (w.astype(np.int32) for w in np.unravel_index(keys[order], (faces, n, n)))
    del inv, keys, first, order
    vface = np.repeat(np.arange(faces), np.diff(vstart))
    uv = np.searchsorted(vface * n + pos, np.stack([eface * n + u, eface * n + v]))

    def with_face(fs, *cols):
        return row_keys(np.sort(np.column_stack([lev.rows[fs], *cols]), axis=1))

    return LevelTable(
        row_keys(lev.rows), vstart, pos, vface, np.searchsorted(eface, np.arange(faces + 1)),
        eface, uv.astype(np.int32), mass, top, srt, with_face(vface, pos),
        with_face(eface, u, v) if ell + 3 <= X.dim else None)


def target_link(C, face, cache):
    """The 1-skeleton of the link of face in the target C and its edges'
    codes u * n + v over C's n vertex positions, ascending as its edges,
    memoized in cache; None and no codes when face is not a face of C."""
    if face not in cache:
        skel, codes = None, np.zeros(0, dtype=np.int64)
        if C.has_face(face):
            skel = C.link(face).one_skeleton()
            u, v = C.vertex_positions(np.asarray(skel.vertices))[skel.ends]
            codes = u * len(C.vertices) + v
        cache[face] = skel, codes
    return cache[face]


class SatArrays(NamedTuple):
    """The satisfaction graphs of a slice of a level's faces under one
    state.  Per face (from the slice's first): ok (satisfied), graph (kept
    edges, an image that is a target face, no empty fiber), dropped (a
    satisfied link vertex meets no kept edge), missing (the target face or
    edge nothing maps to).  Per vertex a kept edge meets: pos and vface;
    lost, the dropped ones' positions.  Per kept edge (of positive mass,
    spanning a satisfied face), sorted within its face: eface, ends (into
    pos), link mass and colored (its coloring measure, if its face has one)."""

    ok: np.ndarray
    graph: np.ndarray
    dropped: np.ndarray
    missing: list
    pos: np.ndarray
    vface: np.ndarray
    lost: np.ndarray
    eface: np.ndarray
    ends: np.ndarray
    mass: np.ndarray
    colored: np.ndarray


def ne_verdicts(sa, threshold, link_measure=False):
    """The NE event of each face of sa: no coloring measure, a dropped
    vertex, or expansion worse than threshold under the coloring measure
    and, if link_measure, the link measure too, every graph of one vertex
    count solved in one stack by link_spectra.  An unsatisfied face is
    outside the pruned complex, so its event is never violated."""
    solve = sa.graph & ~sa.dropped
    hits = sa.ok & ~solve
    if solve.any():
        vlink, ends, e = sa.vface, sa.ends, slice(None)
        if not solve.all():  # the graphs solved, renumbered
            v, e = solve[sa.vface], solve[sa.eface]
            vlink, ends = (np.cumsum(solve) - 1)[sa.vface[v]], (np.cumsum(v) - 1)[sa.ends[:, e]]
        weights = sa.colored[e]
        if link_measure:  # the link measure's graphs after the coloring measure's
            vlink, ends = (np.concatenate([vlink, vlink + vlink[-1] + 1]),
                           np.concatenate([ends, ends + len(vlink)], axis=1))
            weights = np.concatenate([weights, sa.mass[e]])
        eigs = link_spectra(vlink, ends, weights)[2]
        lam = np.array([max(abs(ev[1]), abs(ev[-1])) for ev in eigs])
        hits[solve] = (lam > threshold + 1e-9).reshape(-1, solve.sum()).any(axis=0)
    return hits


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
    """What the two samplers share, the run loop included.  Each subclass
    holds its variables, the `values` they take and `config`, and defines
    `draw` and `outcome` for `run`, its satisfaction rule (`keys_ok` on
    rows keyed by `row_keys`, `satisfied_mask`), an evaluator
    `eval_<kind>(face, x)` per event kind, `scope_of`, its own `violations`
    scan, and for NE its `target` complex, `link_colors` into it and
    `ne_rule` for ne_verdicts.

    kind_dims gives the dimensions at which each event kind is defined,
    scan_dims those that the scan evaluates (by default the same).
    """

    def __init__(self, X, kind_dims, scan_dims=None):
        self.X = X
        self.d = X.dim
        self.kind_dims = kind_dims
        self.scan_dims = kind_dims if scan_dims is None else scan_dims
        self._events = None
        self._level_tables = {}
        self._target_links = {}
        self._scopes = {}

    def events(self):
        """Every (kind, face) event of the scan, sorted; built once."""
        if self._events is None:
            self._events = tuple(sorted(
                (kind, s) for kind, ells in self.scan_dims.items()
                for ell in ells for s in self.X.faces(ell)))
        return self._events

    def level_table(self, ell):
        """The LevelTable of the ell-faces, built once."""
        if ell not in self._level_tables:
            self._level_tables[ell] = build_level_table(self.X, ell, self.row_keys)
        return self._level_tables[ell]

    def satisfaction_arrays(self, ell, faces, x, satisfied=None):
        """The SatArrays of the ell-faces in the slice faces under x, read off
        the level table; edges that complete top faces read the satisfied
        mask, computed if None.  Fiber codes come once per image and fiber
        masses from one bincount over (face, target edge) cells in table
        order, so each face's values are those of its graph built alone."""
        if not 0 <= ell < self.d - 1:
            raise BadKindForFace("satisfaction graphs exist at dimensions 0 to d-2")
        t = self.level_table(ell)
        lo, hi, _ = faces.indices(len(t.vstart) - 1)
        v, e = slice(t.vstart[lo], t.vstart[hi]), slice(t.estart[lo], t.estart[hi])
        ok, vface = self.keys_ok(x, t.face_rows[..., lo:hi, :]), t.vface[v] - lo
        keep = (self.keys_ok(x, t.edge_rows[..., e, :]) if t.edge_rows is not None else
                (self.satisfied_mask(x) if satisfied is None else satisfied)[t.top[e]])
        # an unsatisfied face keeps no vertex or edge
        keep &= (t.mass[e] > 0) & ok[t.eface[e] - lo]
        good = self.keys_ok(x, t.vert_rows[..., v, :]) & ok[vface]
        # the kept edges in table order, and where each sorts among them
        kept = keep.nonzero()[0]
        srt = t.srt[e] - e.start
        srt = kept.searchsorted(srt[keep[srt]])
        kface, mass, uv = t.eface[e][kept] - lo, t.mass[e][kept], t.uv[:, e][:, kept] - v.start
        present = np.zeros(len(vface), dtype=bool)
        present[uv] = True
        # each image's target link, found once, the image -1 of an unsatisfied
        # face none; a face's target edges are the cells tstart:tstart + nt,
        # none where its image is no target face (whose links have edges)
        images, colors = self.link_colors(ell, ok.nonzero()[0] + lo, v, x)
        index, image = {}, np.full(len(ok), -1)
        image[ok] = [index.setdefault(k, len(index)) for k in images]
        links = [target_link(self.target, k, self._target_links) for k in index]
        skels, lens = [skel for skel, _ in links] + [None], np.array([len(c) for _, c in links] + [0])
        nt, has = lens[image], lens[image] > 0
        # a kept edge's fiber is its colors' rank among its image's codes,
        # image j's offset by j n^2 into one ascending run that a sentinel
        # ends; with no image, no target is built
        n, (a, b) = len(self.target.vertices) if index else 0, np.sort(colors[uv], axis=0)
        codes = np.concatenate([c + j * n * n for j, (_, c) in enumerate(links)]
                               + [[np.iinfo(np.int64).max]])
        want = (image[kface] * n + a) * n + b
        fiber = codes.searchsorted(want)
        fiber = np.where(codes[fiber] == want, fiber - (lens.cumsum() - lens)[image[kface]], -1)
        tstart, on = nt.cumsum() - nt, has[kface]
        bad = (on & (fiber < 0)).nonzero()[0]
        if len(bad):
            edge = tuple(self.X.vertices[p] for p in t.pos[v][uv[:, bad[0]]].tolist())
            raise ValueError(f"link edge {edge!r} maps to no target edge")
        tw = np.concatenate([np.zeros(0)] + [skels[j].weights for j in image[has].tolist()])
        colored = np.zeros(len(kept))
        colored[on], fmass = coloring_weights(tstart[kface[on]] + fiber[on], mass[on], tw)
        n_kept, empty = np.bincount(kface, minlength=len(ok)), fmass == 0
        graph = has & (n_kept > 0) & ~np.bincount(
            np.arange(len(ok)).repeat(nt), empty, len(ok)).astype(bool)
        missing = [None] * len(ok)
        for s in ((n_kept > 0) & ~graph).nonzero()[0].tolist():
            skel, cell = skels[image[s]], tstart[s]
            missing[s] = (list(index)[image[s]] if skel is None
                          else skel.edges[np.argmax(empty[cell:cell + nt[s]])])
        lost, pos = good & ~present, t.pos[v]
        return SatArrays(ok, graph, np.bincount(vface, lost, len(ok)) > 0, missing,
                         pos[present], vface[present], pos[lost], kface[srt],
                         (present.cumsum() - 1)[uv[:, srt]], mass[srt], colored[srt])

    def ne_sweep(self, ell, faces, x, satisfied=None):
        """The NE verdicts, under ne_rule, of the ell-faces in the slice faces."""
        return ne_verdicts(self.satisfaction_arrays(ell, faces, x, satisfied), *self.ne_rule)

    def eval_ne(self, sigma, x, *, hits=None):
        """The NE event of sigma, read off hits, verdicts on the faces of its
        dimension, or decided for sigma alone."""
        i = self.X.face_pos(len(sigma) - 1)[sigma]
        if hits is None:
            return bool(self.ne_sweep(len(sigma) - 1, slice(i, i + 1), x)[0])
        return bool(hits[i])

    def ne_violations(self, events, x, satisfied):
        """The violated NE events among events, a sorted run of them, found
        lazily.  Each dimension's faces are decided in runs of 1, 2, 4, ...
        faces from the first one the scan reaches, so a scan that stops at a
        hit decides at most about twice the faces it passed, and a clean scan
        decides a dimension in a few stacked solves."""
        runs = {}  # per dimension: its verdicts so far, where they stop, the next run's length
        for kind, face in events:
            ell = len(face) - 1
            i = self.X.face_pos(ell)[face]
            hits, stop, size = runs.get(ell) or (np.zeros(self.X.n_faces(ell), dtype=bool), 0, 1)
            if i >= stop:
                stop = i + size
                hits[i:stop] = self.ne_sweep(ell, slice(i, stop), x, satisfied)
                runs[ell] = hits, stop, 2 * size
            if self.eval_ne(face, x, hits=hits):
                yield kind, face

    def satisfaction_graph(self, sigma, x, satisfied=None):
        """The SatisfactionGraph of sigma, a satisfied face of dimension 0 to
        d-2, under x, its two graphs built from satisfaction_arrays."""
        sigma = tuple(sorted(sigma))
        if not 0 < len(sigma) < self.d:
            raise BadKindForFace("satisfaction graphs exist at dimensions 0 to d-2")
        if not self.face_satisfied(sigma, x):
            raise UnsatisfiedBase(f"{sigma!r} is not satisfied")
        i = self.X.face_pos(len(sigma) - 1)[sigma]
        sa = self.satisfaction_arrays(len(sigma) - 1, slice(i, i + 1), x, satisfied)
        dropped = tuple(self.X.vertices[p] for p in sa.lost.tolist())
        if not len(sa.eface):
            return SatisfactionGraph(sigma, None, None, None, dropped)
        vertices = tuple(self.X.vertices[p] for p in sa.pos.tolist())
        graph = WGraph.from_arrays(vertices, sa.ends, sa.colored) if sa.graph[0] else None
        return SatisfactionGraph(sigma, graph, WGraph.from_arrays(vertices, sa.ends, sa.mass),
                                 sa.missing[0], dropped)

    def face_satisfied(self, face, x):
        return bool(self.rows_ok(x, self.X.positions(face)[None, :])[0])

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

    def first_violated(self, x):
        return next(self.violations(x), None)

    def run(self, rng):
        """The Moser-Tardos run: `resample` from `draw`, and `outcome` builds
        the result from the final state and the fields every outcome shares."""
        rng = np.random.default_rng(rng)
        x, transcript, left = resample(self, self.draw(rng), self.values, rng,
                                       self.config.max_resamples)
        return self.outcome(x, status="budget_exhausted" if left else "clean",
                            resamples=len(transcript), transcript=transcript,
                            violations_remaining=left, config=self.config)


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
        raise BadParameter("need at least one generator")
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
        self.values = np.arange(self.m)
        lam = config.lambda_target
        self.ne_rule = (lam / 2.0, False) if config.mode == "formula" else (lam, True)

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
        # the (d-1)-faces of each top face, for EC
        self.top_to_dfaces = X.level(self.d - 1).pairs

    @property
    def cayley(self):
        if self._cayley is None:
            self._cayley = cayley_clique_complex(self.group, self.gens, self.d)
        return self._cayley

    @property
    def target(self):
        """The Cayley clique complex, which the satisfaction graphs color into."""
        return self.cayley.complex

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

    # defined on each sampler's own class, where perfbench/tracing.py finds them
    face_satisfied = Sampler.face_satisfied
    satisfaction_graph = Sampler.satisfaction_graph
    eval_ne = Sampler.eval_ne
    first_violated, run = Sampler.first_violated, Sampler.run

    # --- precomputed event tables ---

    def _at_level(self, ell):
        """The AT tables of every ell-face stacked in face order: each link
        vertex's share of its face's link mass, the edge positions from the
        face's vertices to it and whether each runs upward, each row's first
        histogram bin (its face's index times m^(ell+1)), and the rows'
        offsets per face, read off the complex's link-vertex index; and, for
        link_colors, each face's edges from its first vertex to the rest."""
        if ell not in self._at_levels:
            start, verts, mass = self.X.link_vertices(ell)
            face = np.repeat(np.arange(len(start) - 1), np.diff(start))
            # each face's own pairwise .sum(), as a per-face table would take
            total = np.array([mass[a:b].sum() for a, b in zip(start, start[1:])])
            rows = self.X.level(ell).rows
            spos, v = rows[face], verts[:, None]
            lo, hi = np.minimum(spos, v), np.maximum(spos, v)
            eidx = self.X.face_index(np.column_stack([lo.ravel(), hi.ravel()]))
            own = np.stack(np.broadcast_arrays(rows[:, :1], rows[:, 1:]), axis=-1)
            self._at_levels[ell] = (mass / total[face], eidx.reshape(lo.shape),
                                    spos < v, face * self.m ** (ell + 1), start,
                                    self.X.face_index(own.reshape(-1, 2)).reshape(len(rows), ell))
        return self._at_levels[ell]

    def _at_table(self, sigma):
        """The link vertex measure of sigma, and per link vertex v the edge
        positions of sigma's vertices to v and whether each runs upward."""
        vmeas, eidx, fwd, _, start, _ = self._at_level(len(sigma) - 1)
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
        vmeas, eidx, fwd, base, _, _ = self._at_level(ell)
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

    def link_colors(self, ell, faces, entries, f):
        """Per face of the index array faces, the Cayley face of the identity
        and the elements from its first vertex up to the rest; per link
        vertex entry in entries, the element from the face's first vertex to
        it, up or down, which is its own position among the Cayley vertices."""
        _, eidx, fwd, _, _, own = self._at_level(ell)
        up = self.s_elems[f[own[faces]]].tolist()
        labs = f[eidx[entries, 0]]
        return ([tuple(sorted({0, *r})) for r in up],
                np.where(fwd[entries, 0], self.s_elems[labs], self.inv_elems[labs]))

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
            start, verts, _ = self.X.link_vertices(len(face) - 1)
            i = self.X.face_pos(len(face) - 1)[face]
            allowed[verts[start[i]:start[i + 1]]] = True
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
        """The violated events in events() order, found lazily.  The AT
        sweep of each dimension, the triangles, the BC sweep and the
        satisfied top faces are computed at most once per scan, each on the
        first event that reads it.  The EC events, the (d-1)-faces in
        face order since events sort by kind (AT, BC, EC, NE), then face,
        are one block read off the covered (d-1)-faces, and the NE events
        come last, through ne_violations."""
        events = self.events()
        a = bisect.bisect_left(events, ("EC",))
        b = a + sum(self.X.n_faces(ell) for ell in self.scan_dims["EC"])
        at, tri, bc = {}, None, None
        for kind, face in events[:a]:
            if kind == "AT":
                ell = len(face) - 1
                if ell not in at:
                    at[ell] = self.at_sweep(f, ell)
                hit = self.eval_at(face, f, at[ell])
            else:
                if bc is None:
                    tri = self.triangles(f)
                    bc = self.bc_sweep(f, tri)
                hit = self.eval_bc(face, f, bc)
            if hit:
                yield kind, face
        satisfied = self.satisfied_mask(f, tri)
        if b > a:
            for i in np.flatnonzero(~self.covered_dfaces(satisfied)).tolist():
                yield events[a + i]
        yield from self.ne_violations(events[b:], f, satisfied)

    def draw(self, rng):
        return sample_labeling(self.X, self.m, rng)

    def outcome(self, f, **shared):
        y, isolated, _ = self.f_pruning(f)
        return PruneOutcome(labeling=f, y=y, isolated_vertices=isolated, **shared)


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
    face of Y fails as Y.link_skeleton does.  The satisfaction graphs of
    the level are sliced off one call to satisfaction_arrays."""
    X = pruner.X
    bound = float(pruner.config.r) ** (15 * pruner.d)
    sa = pruner.satisfaction_arrays(ell, slice(None), f)
    gvs, ges = (np.searchsorted(x, np.arange(len(sa.ok) + 1)) for x in (sa.vface, sa.eface))
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
    for i in np.flatnonzero(sa.ok).tolist():
        sigma = X.faces(ell)[i]
        if not sa.graph[i]:
            raise Unmeasurable(f"satisfaction graph at {sigma!r} has no edges",
                               witness=sigma)
        j = yface[i]
        if j < 0:
            Y.link_skeleton(sigma)  # raises, as sigma is no face of Y
            raise NotAFace(f"{sigma!r} is not a face of Y")
        link, edges = slice(vs[j], vs[j + 1]), ends[:, es[j]:es[j + 1]]
        gv, ge = slice(gvs[i], gvs[i + 1]), slice(ges[i], ges[i + 1])
        g = WGraph.from_arrays([X.vertices[p] for p in sa.pos[gv].tolist()],
                               sa.ends[:, ge] - gv.start, sa.colored[ge])
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
