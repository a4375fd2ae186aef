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

import numpy as np

from .complexes import PureComplex
from .covers import edge_key
from .errors import (
    BadKindForFace,
    NotAFace,
    Unmeasurable,
    UnsatisfiedBase,
)
from .graphs import WGraph
from .groups import cayley_clique_complex
from .spectral import adjacency_spectrum

KIND_ORDER = ("AT", "BC", "EC", "NE")


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
class BadEvent:
    kind: str
    face: tuple
    scope: tuple  # labeling positions the event reads


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


@dataclass
class PruneOutcome:
    status: str  # "clean" | "budget_exhausted"
    labeling: np.ndarray
    edges: tuple
    y: PureComplex | None
    isolated_vertices: tuple
    resamples: int
    transcript: tuple
    violations_remaining: tuple
    config: PruneConfig

    def labeling_dict(self):
        return {e: int(l) for e, l in zip(self.edges, self.labeling)}

    def labeling_elements(self, gens):
        return {e: int(gens[l]) for e, l in zip(self.edges, self.labeling)}


def sample_labeling(X, m, rng):
    """Independent uniform generator indices, one per edge of X."""
    if m < 1:
        raise ValueError("need at least one generator")
    rng = np.random.default_rng(rng)
    return rng.integers(0, m, size=X.n_faces(1), dtype=np.int64)


class Pruner:
    """Precomputed machinery for one (complex, group, generators) triple.

    Event evaluations are pure reads of (X, f) and safe to run
    concurrently; the resampling loop itself alternates a read-only scan
    with an exclusive write to the labeling.
    """

    def __init__(self, X, group, gens, config, cayley=None):
        if X.dim < 2:
            raise BadKindForFace("pruning needs a complex of dimension >= 2")
        self.X = X
        self.group = group
        self.config = config
        from .groups import validate_genset

        self.gens = validate_genset(group, gens, require_generating=False)
        self._cayley = cayley  # built lazily; only the NE machinery needs it
        self.m = len(self.gens)
        self.d = X.dim

        self.edges = X.faces(1)
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self.n_edges = len(self.edges)

        self.s_elems = np.array(self.gens, dtype=np.int64)
        self.inv_elems = group.inv_table[self.s_elems].astype(np.int64)
        rank = np.full(group.order, -1, dtype=np.int64)
        rank[self.s_elems] = np.arange(self.m)
        self.s_rank = rank

        tops = np.array(X.top_faces, dtype=np.int64)
        self.tops = tops
        self.top_pos = {f: i for i, f in enumerate(X.top_faces)}
        self.tri_eidx = self._tri_index(X.top_faces, self.d + 1)

        self._at_tables = {}
        self._bc_tables = {}
        self._link_tables = {}
        self._cayley_links = {}
        self._ec_setup()
        self._events = None

    @property
    def cayley(self):
        if self._cayley is None:
            self._cayley = cayley_clique_complex(self.group, self.gens, self.d)
        return self._cayley

    # --- labeling helpers ---

    def as_array(self, f):
        if isinstance(f, np.ndarray):
            if len(f) != self.n_edges:
                raise ValueError("labeling length does not match the edge count")
            return f
        arr = np.empty(self.n_edges, dtype=np.int64)
        for e, pos in self.edge_pos.items():
            arr[pos] = f[e]
        return arr

    def directed_element(self, f, u, v):
        lab = f[self.edge_pos[edge_key(u, v)]]
        return int(self.s_elems[lab] if u < v else self.inv_elems[lab])

    def _tri_index(self, faces, size):
        """Edge positions (ab, bc, ac) of every triangle a < b < c of each
        sorted face of the given size; shape (faces, triangles, 3)."""
        tri = list(itertools.combinations(range(size), 3))
        out = np.empty((len(faces), len(tri), 3), dtype=np.intp)
        for n, face in enumerate(faces):
            for t, (a, b, c) in enumerate(tri):
                out[n, t, 0] = self.edge_pos[(face[a], face[b])]
                out[n, t, 1] = self.edge_pos[(face[b], face[c])]
                out[n, t, 2] = self.edge_pos[(face[a], face[c])]
        return out

    def _tri_ok(self, f, eidx):
        """Whether every triangle of each face in a _tri_index table
        multiplies consistently under f."""
        el = self.s_elems[f[eidx]]
        ok = self.group.mul_table[el[..., 0], el[..., 1]] == el[..., 2]
        return ok.all(axis=-1)

    def satisfied_mask(self, f):
        return self._tri_ok(f, self.tri_eidx)

    def face_satisfied(self, face, f):
        face = tuple(sorted(face))
        if not self.X.has_face(face):
            raise NotAFace(f"{face!r} is not a face")
        if len(face) == self.d + 1:
            eidx = self.tri_eidx[self.top_pos[face]]
        else:
            eidx = self._tri_index([face], len(face))[0]
        return bool(self._tri_ok(f, eidx))

    # --- precomputed event tables ---

    def _link_vertices(self, sigma):
        sset = set(sigma)
        mass = {}
        for i in self.X.cofaces(sigma):
            w = self.X.weights[i]
            for v in self.X.top_faces[i]:
                if v not in sset:
                    mass[v] = mass.get(v, 0.0) + w
        verts = sorted(mass)
        meas = np.array([mass[v] for v in verts])
        return verts, meas / meas.sum()

    def _at_table(self, sigma):
        if sigma not in self._at_tables:
            verts, vmeas = self._link_vertices(sigma)
            ell = len(sigma) - 1
            eidx = np.empty((len(verts), ell + 1), dtype=np.intp)
            fwd = np.empty((len(verts), ell + 1), dtype=bool)
            for a, v in enumerate(verts):
                for b, u in enumerate(sigma):
                    eidx[a, b] = self.edge_pos[edge_key(u, v)]
                    fwd[a, b] = u < v
            powers = self.m ** np.arange(ell + 1)
            self._at_tables[sigma] = (verts, vmeas, eidx, fwd, powers)
        return self._at_tables[sigma]

    def _bc_table(self, v):
        if v not in self._bc_tables:
            pairs = set()
            vset = {v}
            for i in self.X.cofaces((v,)):
                rest = [u for u in self.X.top_faces[i] if u != v]
                for u, w in itertools.combinations(rest, 2):
                    pairs.add((u, w))
                    pairs.add((w, u))
            pairs = sorted(pairs)
            eidx = np.empty((len(pairs), 3), dtype=np.intp)
            fwd = np.empty((len(pairs), 3), dtype=bool)
            for n, (u, w) in enumerate(pairs):
                for col, (x, y) in enumerate(((v, u), (u, w), (w, v))):
                    eidx[n, col] = self.edge_pos[edge_key(x, y)]
                    fwd[n, col] = x < y
            self._bc_tables[v] = (eidx, fwd)
        return self._bc_tables[v]

    def _link_table(self, sigma):
        """Cached link structure of sigma for satisfaction graphs.

        Link vertices (sorted) with the triangles of sigma + v; link edges
        in first-seen coface order with their mass, summed over cofaces in
        coface order; and per edge either the top face sigma + edge (when
        that is a top face) or the triangles of sigma + edge.
        """
        tab = self._link_tables.get(sigma)
        if tab is None:
            sset = set(sigma)
            verts = set()
            keys, key_id, key_top, row_key, row_w = [], {}, [], [], []
            for i in self.X.cofaces(sigma):
                rest = [v for v in self.X.top_faces[i] if v not in sset]
                verts.update(rest)
                for key in itertools.combinations(rest, 2):
                    k = key_id.get(key)
                    if k is None:
                        k = key_id[key] = len(keys)
                        keys.append(key)
                        key_top.append(i)
                    row_key.append(k)
                    row_w.append(self.X.weights[i])
            verts = sorted(verts)
            key_mass = np.bincount(row_key, weights=row_w, minlength=len(keys))
            key_uv = np.array(keys, dtype=np.int64).reshape(-1, 2).T
            size = len(sigma) + 2
            if size == self.d + 1:
                key_top, key_tri = np.array(key_top, dtype=np.intp), None
            else:
                key_top = None
                key_tri = self._tri_index([tuple(sorted(sigma + k)) for k in keys], size)
            vert_tri = self._tri_index(
                [tuple(sorted(sigma + (v,))) for v in verts], size - 1
            )
            tab = (verts, vert_tri, key_uv, key_mass, key_top, key_tri)
            self._link_tables[sigma] = tab
        return tab

    def _cayley_link(self, a):
        """Link of the Cayley face a and its 1-skeleton, cached; both None
        when a is not a face."""
        if a not in self._cayley_links:
            target = tskel = None
            if self.cayley.complex.has_face(a):
                target = self.cayley.complex.link(a)
                tskel = target.one_skeleton()
            self._cayley_links[a] = (target, tskel)
        return self._cayley_links[a]

    def _ec_setup(self):
        dfaces = self.X.faces(self.d - 1)
        self.dfaces = dfaces
        dpos = {s: i for i, s in enumerate(dfaces)}
        self.dpos = dpos
        cover = np.empty((len(self.tops), self.d + 1), dtype=np.intp)
        for n, face in enumerate(self.X.top_faces):
            for j, sub in enumerate(itertools.combinations(face, self.d)):
                cover[n, j] = dpos[sub]
        self.top_to_dfaces = cover

    def covered_dfaces(self, satisfied):
        out = np.zeros(len(self.dfaces), dtype=bool)
        if satisfied.any():
            out[self.top_to_dfaces[satisfied].ravel()] = True
        return out

    # --- events ---

    def events(self):
        if self._events is None:
            cfg = self.config
            ev = []
            at_hi = self.d - 1 if cfg.at_top_level else self.d - 2
            for ell in range(0, at_hi + 1):
                for s in self.X.faces(ell):
                    ev.append(("AT", s))
            for v in self.X.vertices:
                ev.append(("BC", (v,)))
            if cfg.edge_cover_events:
                for s in self.X.faces(self.d - 1):
                    ev.append(("EC", s))
            for ell in range(0, self.d - 1):
                for s in self.X.faces(ell):
                    ev.append(("NE", s))
            ev.sort()
            self._events = tuple(ev)
        return self._events

    def eval_at(self, sigma, f):
        # under fresh uniform labels, each of the m^(l+1) tuples holds a
        # Binomial(k, m^-(l+1)) share of the k link vertices, so by a
        # Chernoff bound a violation has probability at most
        # m^(l+1) exp(-0.03 m^-(l+1) (r-1)^2 k); this only becomes small
        # once k is far larger than m^(l+1)
        verts, vmeas, eidx, fwd, powers = self._at_table(sigma)
        labs = f[eidx]
        elems = np.where(fwd, self.s_elems[labs], self.inv_elems[labs])
        codes = self.s_rank[elems] @ powers
        probs = np.bincount(codes, weights=vmeas, minlength=powers[-1] * self.m)
        lo, hi = self.config.at_bounds(len(sigma) - 1, self.m)
        return bool((probs <= lo).any() or (probs >= hi).any())

    def eval_bc(self, v, f):
        # with T edge-disjoint triangles at v, a fixed generator goes
        # unrealized with probability at most (1 - 1/m^2)^T, and a union
        # bound over the m generators covers the event
        eidx, fwd = self._bc_tables.get(v, (None, None))
        if eidx is None:
            eidx, fwd = self._bc_table(v)
        labs = f[eidx]
        elems = np.where(fwd, self.s_elems[labs], self.inv_elems[labs])
        prods = self.group.mul_table[
            self.group.mul_table[elems[:, 0], elems[:, 1]], elems[:, 2]
        ]
        realized = set(np.unique(prods).tolist())
        return any(int(s) not in realized for s in self.s_elems)

    def eval_ec(self, sigma, f, satisfied=None):
        if satisfied is None:
            satisfied = self.satisfied_mask(f)
        return not bool(self.covered_dfaces(satisfied)[self.dpos[sigma]])

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
        verts, vert_tri, key_uv, key_mass, key_top, key_tri = self._link_table(sigma)
        if key_top is not None:
            if satisfied is None:
                satisfied = self.satisfied_mask(f)
            key_ok = satisfied[key_top]
        else:
            key_ok = self._tri_ok(f, key_tri)
        keep = key_ok & (key_mass > 0)
        ends = key_uv[:, keep].tolist()
        edges = dict(zip(zip(*ends), key_mass[keep].tolist()))
        good_vertices = tuple(
            v for v, ok in zip(verts, self._tri_ok(f, vert_tri).tolist()) if ok
        )

        u0 = sigma[0]
        a = tuple(sorted({0} | {self.directed_element(f, u0, u) for u in sigma[1:]}))
        target, tskel = self._cayley_link(a)
        coloring = {v: self.directed_element(f, u0, v) for v in good_vertices}

        if not edges:
            return SatisfactionGraph(
                sigma, None, None, coloring, target, True, None, good_vertices
            )
        link_graph = WGraph([(u, v, m) for (u, v), m in edges.items()])
        kept = set(link_graph.vertices)
        dropped = tuple(v for v in good_vertices if v not in kept)

        if target is None:
            return SatisfactionGraph(
                sigma, None, link_graph, coloring, None, True, a, dropped
            )
        fiber_mass = {}
        for (u, v), m in edges.items():
            key = tuple(sorted((coloring[u], coloring[v])))
            fiber_mass[key] = fiber_mass.get(key, 0.0) + m
        missing = None
        for e in tskel.edges:
            if e not in fiber_mass:
                missing = e
                break
        if missing is not None:
            return SatisfactionGraph(
                sigma, None, link_graph, coloring, target, True, missing, dropped
            )
        tw = {e: w for e, w in zip(tskel.edges, tskel.weights)}
        colored = []
        for (u, v), m in edges.items():
            key = tuple(sorted((coloring[u], coloring[v])))
            colored.append((u, v, tw[key] * m / fiber_mass[key]))
        graph = WGraph(colored)
        return SatisfactionGraph(
            sigma, graph, link_graph, coloring, target, False, None, dropped
        )

    def eval_ne(self, sigma, f, satisfied=None):
        if not self.face_satisfied(sigma, f):
            return False  # an unsatisfied face is outside the pruned complex
        sg = self.satisfaction_graph(sigma, f, satisfied=satisfied)
        if sg.degenerate or sg.graph is None or sg.dropped_vertices:
            return True
        thr = self.config.resolved_ne_threshold + 1e-9
        if adjacency_spectrum(sg.graph).two_sided > thr:
            return True
        if self.config.ne_check_link_measure:
            if adjacency_spectrum(sg.link_graph).two_sided > thr:
                return True
        return False

    def eval_event(self, kind, face, f):
        face = tuple(sorted(face))
        ell = len(face) - 1
        if kind == "AT":
            if not 0 <= ell <= self.d - 1:
                raise BadKindForFace(f"AT applies to dimensions 0..{self.d - 1}")
            return self.eval_at(face, f)
        if kind == "NE":
            if not 0 <= ell <= self.d - 2:
                raise BadKindForFace(f"NE applies to dimensions 0..{self.d - 2}")
            return self.eval_ne(face, f)
        if kind == "BC":
            if ell != 0:
                raise BadKindForFace("BC applies to vertices")
            return self.eval_bc(face[0], f)
        if kind == "EC":
            if ell != self.d - 1:
                raise BadKindForFace(f"EC applies to dimension {self.d - 1}")
            return self.eval_ec(face, f)
        raise BadKindForFace(f"unknown event kind {kind!r}")

    # --- scopes ---

    def event_scope(self, kind, face):
        """Labeling positions the event reads; resampling rewrites these."""
        if kind == "AT":
            _, _, eidx, _, _ = self._at_table(face)
            return tuple(sorted(set(eidx.ravel().tolist())))
        if kind == "BC":
            eidx, _ = self._bc_table(face[0])
            return tuple(sorted(set(eidx.ravel().tolist())))
        if kind == "EC":
            out = set()
            for i in self.X.cofaces(face):
                top = self.X.top_faces[i]
                for u, w in itertools.combinations(top, 2):
                    out.add(self.edge_pos[(u, w)])
            return tuple(sorted(out))
        if kind == "NE":
            verts, _ = self._link_vertices(face)
            allowed = set(verts) | set(face)
            out = [
                i
                for i, (u, w) in enumerate(self.edges)
                if u in allowed and w in allowed
            ]
            return tuple(out)
        raise BadKindForFace(f"unknown event kind {kind!r}")

    # --- pruning and the main loop ---

    def f_pruning(self, f):
        mask = self.satisfied_mask(f)
        if not mask.any():
            return None, tuple(self.X.vertices), mask
        y = self.X.restrict(np.nonzero(mask)[0])
        isolated = tuple(sorted(set(self.X.vertices) - set(y.vertices)))
        return y, isolated, mask

    def first_violated(self, f):
        satisfied = self.satisfied_mask(f)
        covered = None
        for kind, face in self.events():
            if kind == "AT":
                hit = self.eval_at(face, f)
            elif kind == "BC":
                hit = self.eval_bc(face[0], f)
            elif kind == "EC":
                if covered is None:
                    covered = self.covered_dfaces(satisfied)
                hit = not bool(covered[self.dpos[face]])
            else:
                hit = self.eval_ne(face, f, satisfied=satisfied)
            if hit:
                return kind, face
        return None

    def run(self, rng):
        rng = np.random.default_rng(rng)
        f = sample_labeling(self.X, self.m, rng)
        transcript = []
        resamples = 0
        while True:
            violated = self.first_violated(f)
            if violated is None:
                y, isolated, _ = self.f_pruning(f)
                return PruneOutcome(
                    status="clean",
                    labeling=f,
                    edges=self.edges,
                    y=y,
                    isolated_vertices=isolated,
                    resamples=resamples,
                    transcript=tuple(transcript),
                    violations_remaining=(),
                    config=self.config,
                )
            if resamples >= self.config.max_resamples:
                y, isolated, _ = self.f_pruning(f)
                remaining = self.all_violations(f)
                return PruneOutcome(
                    status="budget_exhausted",
                    labeling=f,
                    edges=self.edges,
                    y=y,
                    isolated_vertices=isolated,
                    resamples=resamples,
                    transcript=tuple(transcript),
                    violations_remaining=remaining,
                    config=self.config,
                )
            kind, face = violated
            scope = self.event_scope(kind, face)
            f = f.copy()
            f[list(scope)] = rng.integers(0, self.m, size=len(scope))
            transcript.append((resamples, kind, face, scope))
            resamples += 1

    def all_violations(self, f):
        satisfied = self.satisfied_mask(f)
        covered = self.covered_dfaces(satisfied)
        out = []
        for kind, face in self.events():
            if kind == "EC":
                hit = not bool(covered[self.dpos[face]])
            elif kind == "NE":
                hit = self.eval_ne(face, f, satisfied=satisfied)
            else:
                hit = self.eval_event(kind, face, f)
            if hit:
                out.append((kind, face))
        return tuple(out)


# --- module-level operation wrappers ---


def is_satisfied(X, f, group, gens, face, cayley=None, _pruner=None):
    pruner = _pruner or Pruner(X, group, gens, PruneConfig(0.5), cayley=cayley)
    return pruner.face_satisfied(face, pruner.as_array(f))


def f_pruning(X, f, group, gens, cayley=None):
    """Sub-complex of top faces satisfied by f; (Y, isolated vertices)."""
    pruner = Pruner(X, group, gens, PruneConfig(0.5), cayley=cayley)
    y, isolated, _ = pruner.f_pruning(pruner.as_array(f))
    return y, isolated


def satisfaction_graph(X, f, group, gens, sigma, cayley=None):
    pruner = Pruner(X, group, gens, PruneConfig(0.5), cayley=cayley)
    return pruner.satisfaction_graph(tuple(sorted(sigma)), pruner.as_array(f))


def eval_event(kind, X, f, group, gens, tau, config, cayley=None):
    pruner = Pruner(X, group, gens, config, cayley=cayley)
    return pruner.eval_event(kind, tau, pruner.as_array(f))


def moser_tardos_prune(X, group, gens, config, rng, cayley=None):
    return Pruner(X, group, gens, config, cayley=cayley).run(rng)


@dataclass(frozen=True)
class ScopeReport:
    face: tuple
    edges: tuple
    neighbor_events: int
    bound: float

    @property
    def within_bound(self):
        return self.neighbor_events <= self.bound


def dependency_scope(X, tau):
    """Conservative variable scope of the events at tau, and how many other
    event faces share an edge with it, against the crude degree bound."""
    tau = tuple(sorted(tau))
    if not X.has_face(tau):
        raise NotAFace(f"{tau!r} is not a face")

    def scope_of(face):
        fset = set(face)
        near = set(face)
        for i in X.cofaces(face):
            near.update(X.top_faces[i])
        out = set()
        for u, v in X.faces(1):
            if u in fset or v in fset or u in near or v in near:
                out.add((u, v))
        return out

    mine = scope_of(tau)
    count = 0
    for k in range(0, X.dim):
        for other in X.faces(k):
            if other == tau:
                continue
            if scope_of(other) & mine:
                count += 1
    q = max(len(X.cofaces((v,))) for v in X.vertices)
    r_edges = max(
        sum(1 for e in X.faces(1) if v in e) for v in X.vertices
    )
    bound = X.dim * 2 ** X.dim * q * (1 + r_edges + r_edges**2)
    report = ScopeReport(tau, tuple(sorted(mine)), count, bound)
    if not report.within_bound:
        raise RuntimeError(
            f"dependency count {count} at {tau!r} exceeds the crude bound {bound}"
        )
    return report


# --- pruned measure and audits ---


@dataclass(frozen=True)
class PrunedMeasure:
    weights: np.ndarray  # aligned with Y.top_faces
    patterns: dict  # oriented reference pattern -> fiber mass

    @property
    def total(self):
        return float(self.weights.sum())


def pruned_measure(Y, labeling, group, gens, cayley=None):
    """Measure on Y(d) induced by the identity link of the Cayley complex.

    Sample an oriented top face of the identity link, then a fiber face of
    Y whose directed labels from its first vertex realize that pattern,
    conditionally on Y's own measure.  Fails with the missing pattern when
    some pattern has an empty fiber.
    """
    d = Y.dim
    if cayley is None:
        cayley = cayley_clique_complex(group, gens, d)
    c_e = cayley.complex.link((0,))
    lab = {edge_key(*e): v for e, v in labeling.items()}

    def dir_el(u, v):
        g = lab[edge_key(u, v)]
        return int(gens[g]) if u < v else group.inv(int(gens[g]))

    pattern_prob = {}
    for face, w in zip(c_e.top_faces, c_e.weights):
        share = w / math.factorial(d)
        for perm in itertools.permutations(face):
            pattern_prob[perm] = share

    fiber_mass = {}
    contributions = []
    fact = math.factorial(d + 1)
    for i, (face, w) in enumerate(zip(Y.top_faces, Y.weights)):
        for perm in itertools.permutations(face):
            pat = tuple(dir_el(perm[0], v) for v in perm[1:])
            if pat not in pattern_prob:
                continue  # pattern carries no reference mass
            mass = w / fact
            fiber_mass[pat] = fiber_mass.get(pat, 0.0) + mass
            contributions.append((i, pat, mass))
    for pat, prob in pattern_prob.items():
        if prob > 0 and pat not in fiber_mass:
            raise Unmeasurable(f"no face of Y realizes {pat!r}", witness=pat)
    weights = np.zeros(len(Y.top_faces))
    for i, pat, mass in contributions:
        weights[i] += pattern_prob[pat] * mass / fiber_mass[pat]
    return PrunedMeasure(weights, fiber_mass)


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


def measure_ratio_audit(
    X, Y, f, group, gens, sigma, cayley=None, r=None, config=None, _pruner=None
):
    """Compare the pruned link measure at sigma with the coloring measure.

    Reports the worst multiplicative gap over link vertices and edges and
    checks it against r^(15 d).
    """
    if config is not None and r is None:
        r = config.r
    if r is None:
        raise ValueError("pass r or a config")
    pruner = _pruner or Pruner(
        X, group, gens, config or PruneConfig(0.5, r=r), cayley=cayley
    )
    sg = pruner.satisfaction_graph(tuple(sorted(sigma)), pruner.as_array(f))
    if sg.graph is None:
        raise Unmeasurable(f"satisfaction graph at {sigma!r} has no edges")
    yskel = Y.link_skeleton(sigma)
    bound = float(r) ** (15 * X.dim)

    same = set(yskel.vertices) == set(sg.graph.vertices) and set(
        yskel.edges
    ) == set(sg.graph.edges)
    worst, witness = 1.0, ()
    if same:
        for v in yskel.vertices:
            a = yskel.vertex_measure(v)
            b = sg.graph.vertex_measure(v)
            ratio = max(a / b, b / a)
            if ratio > worst:
                worst, witness = ratio, ("vertex", v)
        gw = {e: w for e, w in zip(sg.graph.edges, sg.graph.weights)}
        for e, w in zip(yskel.edges, yskel.weights):
            ratio = max(w / gw[e], gw[e] / w)
            if ratio > worst:
                worst, witness = ratio, ("edge", e)
    return RatioReport(tuple(sorted(sigma)), float(worst), bound, witness, same)


def face_fraction_report(X, Y):
    """Fraction of X's faces surviving in Y, per dimension."""
    out = {}
    for k in range(0, X.dim + 1):
        out[k] = (Y.n_faces(k) / X.n_faces(k)) if Y is not None else 0.0
    return out
