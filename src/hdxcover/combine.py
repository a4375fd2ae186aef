"""Pruning a complex against a fixed target complex via vertex colorings.

Vertices get colors in the target's vertex set, held as positions in its
sorted vertices; a face is satisfied when its colors are distinct and
form a face of the target.  Resampling drives two event families to
false: a satisfied face whose link misses a color completing it (AC),
and a satisfaction graph that expands worse than the target lambda under
the coloring measure (NE).  A clean outcome yields a sub-complex with a
non-degenerate coloring into the target.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .complexes import PureComplex
from .errors import BadKindForFace, BadParameter, NotAFace, UnsatisfiedBase, check_count
from .graphs import coloring_weights, component_labels
from .pruning import Sampler, face_fraction_report, resample
from .spectral import is_hdx


@dataclass(frozen=True)
class CombineConfig:
    lambda_target: float
    max_resamples: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.lambda_target < 1.0):
            raise BadParameter("lambda_target must lie in (0, 1)")
        check_count("max_resamples", self.max_resamples)


@dataclass
class CombineOutcome:
    status: str
    coloring: dict  # X vertex -> C vertex, by label
    y: PureComplex | None
    measure_kind: str  # "coloring" | "restricted" | "empty"
    resamples: int
    transcript: tuple
    violations_remaining: tuple
    config: CombineConfig


class Combiner(Sampler):
    """Precomputed machinery for one (complex, target) pair.

    The variables are vertex colors, positions in C.vertices; a face is
    satisfied when its colors are distinct and span a face of the target.
    `resample` drives the events.
    """

    def __init__(self, X, C, config):
        if X.dim != C.dim:
            raise BadKindForFace("complex and target must share a dimension")
        super().__init__(X, {"AC": range(0, X.dim), "NE": range(0, X.dim - 1)})
        self.C = self.target = C
        self.config = config
        self.ne_rule = (config.lambda_target, False)

    # --- satisfaction ---

    # defined on each sampler's own class, where perfbench/tracing.py finds them
    face_satisfied = Sampler.face_satisfied
    satisfaction_graph = Sampler.satisfaction_graph
    eval_ne = Sampler.eval_ne

    def image_index(self, col, rows):
        """Index among C's faces of the colors of each row of vertex
        positions, or -1 where they repeat or span no face of C."""
        return self.C.face_index(np.sort(col[rows], axis=1))

    def keys_ok(self, col, rows):
        """Whether the colors of each row of vertex positions are distinct
        and span a face of C."""
        return self.image_index(col, rows) >= 0

    def satisfied_mask(self, col):
        return self.rows_ok(col, self.X.top_positions())

    # --- events ---

    def ac_sweep(self, col, k):
        """Whether the AC event of each k-face is violated under col: the
        face is satisfied and some link vertex of its image in C is no
        color of its own link vertices.

        Over both complexes' link-vertex indices, one scatter gives the
        colors present around each face of X and one the link vertices
        each face of C needs, each face's row with a spare last cell; a
        color outside C (-1) lands in a spare cell, the one before its
        face's row, which no face needs.
        """
        m = len(self.C.vertices)

        def colors_around(K, colors):
            start, verts, _ = K.link_vertices(k)
            cells = np.repeat(np.arange(len(start) - 1) * (m + 1), np.diff(start))
            cells += colors[verts]
            table = np.zeros((len(start) - 1, m + 1), dtype=bool)
            table.ravel()[cells] = True
            return table

        present, needed = colors_around(self.X, col), colors_around(self.C, np.arange(m))
        img = self.image_index(col, self.X.level(k).rows)
        return (img >= 0) & (needed[img] & ~present).any(axis=1)

    def eval_ac(self, face, col, hits=None):
        """The AC event of the face, read off ac_sweep's result for its
        dimension, which is computed unless given."""
        if hits is None:
            hits = self.ac_sweep(col, len(face) - 1)
        return bool(hits[self.X.face_pos(len(face) - 1)[face]])

    def link_colors(self, ell, faces, entries, col):
        """Per face of the index array faces, its colors' labels, sorted; per
        link vertex entry in entries, its color."""
        images = np.sort(col[self.X.level(ell).rows[faces]], axis=1).tolist()
        return ([tuple(self.C.vertices[c] for c in row) for row in images],
                col[self.level_table(ell).pos[entries]])

    def scope_of(self, kind, face):
        """Vertex positions whose colors the events at this face read."""
        if kind not in self.kind_dims:
            raise BadKindForFace(f"unknown event kind {kind!r}")
        return tuple(np.unique(self.X.top_positions()[self.X.cofaces(face)]).tolist())

    def violations(self, col):
        """The violated events in events() order, found lazily; the AC
        sweep of each dimension runs once, on its first event, and the NE
        events, which sort after every AC event, go through ne_violations."""
        events, ac = self.events(), {}
        b = bisect.bisect_left(events, ("NE",))
        for kind, face in events[:b]:
            k = len(face) - 1
            if k not in ac:
                ac[k] = self.ac_sweep(col, k)
            if self.eval_ac(face, col, ac[k]):
                yield kind, face
        yield from self.ne_violations(events[b:], col, self.satisfied_mask(col))

    def first_violated(self, col):
        return next(self.violations(col), None)

    # --- pruning ---

    def c_pruning(self, col):
        mask = self.satisfied_mask(col)
        if not mask.any():
            return None, "empty", mask
        kept = np.flatnonzero(mask)
        # the target top face under each kept top face
        img = self.image_index(col, self.X.top_positions()[kept])
        weights, fiber_mass = coloring_weights(img, self.X.weights[kept], self.C.weights)
        if not fiber_mass.all():  # some target top face has no preimage
            return self.X.restrict(kept), "restricted", mask
        return self.X.restrict(kept, weights), "coloring", mask

    def run(self, rng):
        rng = np.random.default_rng(rng)
        m = len(self.C.vertices)
        col = rng.integers(0, m, size=len(self.X.vertices))
        col, transcript, remaining = resample(
            self, col, np.arange(m), rng, self.config.max_resamples
        )
        y, kind, _ = self.c_pruning(col)
        return CombineOutcome(
            status="budget_exhausted" if remaining else "clean",
            coloring={v: self.C.vertices[c] for v, c in zip(self.X.vertices, col.tolist())},
            y=y,
            measure_kind=kind,
            resamples=len(transcript),
            transcript=transcript,
            violations_remaining=remaining,
            config=self.config,
        )


# --- verification ---


@dataclass(frozen=True)
class CombineReport:
    homomorphism_ok: bool
    homomorphism_witness: tuple | None
    nondegenerate_ok: bool
    nondegenerate_witness: tuple | None
    hdx_ok: bool
    hdx_threshold: float
    hdx_threshold_alt: float
    hdx_worst: float
    connected_ok: bool
    path_argument_ok: bool
    fraction_ok: bool
    fractions: dict
    fraction_bound: float

    @property
    def ok(self):
        return (
            self.homomorphism_ok
            and self.nondegenerate_ok
            and self.hdx_ok
            and self.connected_ok
            and self.path_argument_ok
            and self.fraction_ok
        )

    def to_dict(self):
        """Every field but the witnesses, with the verdict."""
        out = {k: v for k, v in vars(self).items() if not k.endswith("_witness")}
        return {**out, "fractions": {str(k): v for k, v in self.fractions.items()}, "ok": self.ok}


def _path_argument(X, C, col, y_codes):
    """Replay the descent that connects endpoints of unsatisfied edges.

    col gives X's colors as positions in C.vertices (-1 for none),
    y_codes the kept edges' ascending codes u * n + v over X's n vertex
    positions.  From each unkept edge uv, a walk steps from u to the least
    common neighbor over a kept edge whose color is nearest v's, strictly
    nearer than u's unless that is v's, until its edge to v is kept; all
    walks step at once.  Gives (True, None) or (False, the first failing
    edge in faces(1) order)."""
    # hop distances of C's vertices by one BFS from all of them; the extra
    # last row and column, read by a color outside C (-1), stay unreachable
    m = len(C.vertices)
    adj = np.zeros((m + 1, m + 1), dtype=bool)
    cu, cv = C.level(1).rows.T
    adj[cu, cv] = adj[cv, cu] = True
    dist = np.where(np.eye(m + 1, dtype=bool), 0.0, np.inf)
    dist[m, m] = np.inf
    for step in range(1, m):
        dist[((dist < step) @ adj) & (dist == np.inf)] = step

    n = len(X.vertices)
    x_ends = X.level(1).rows.T
    x_codes = x_ends[0] * n + x_ends[1]

    def among(codes, a, b):  # whether each pair a, b is an edge among codes
        c = np.minimum(a, b) * n + np.maximum(a, b)
        return codes[np.searchsorted(codes, c).clip(max=len(codes) - 1)] == c

    # each vertex's kept neighbors, ascending
    yu, yv = np.divmod(y_codes, n)
    tail, head = np.concatenate([yu, yv]), np.concatenate([yv, yu])
    order = np.lexsort((head, tail))
    nbr, first = head[order], np.searchsorted(tail[order], np.arange(n + 1))
    edge = np.flatnonzero(~among(y_codes, *x_ends))
    cur, tgt = x_ends[:, edge]
    failed = []
    for _ in range(n + 1):
        left = ~among(y_codes, cur, tgt)
        edge, cur, tgt = edge[left], cur[left], tgt[left]
        if not len(edge):
            break
        deg = first[cur + 1] - first[cur]
        walk = np.repeat(np.arange(len(edge)), deg)
        cand = nbr[np.repeat(first[cur] - (np.cumsum(deg) - deg), deg) + np.arange(deg.sum())]
        score = dist[col[cand], col[tgt[walk]]]
        # a step must get below the gap; from an unreachable color none can,
        # and from a zero gap any finite color distance will do
        gap = dist[col[cur], col[tgt]]
        bar = np.select([gap == 0, gap == np.inf], [np.inf, 0], gap)
        ok = among(x_codes, cand, tgt[walk]) & (score < bar[walk])
        walk, cand, score = walk[ok], cand[ok], score[ok]
        best = np.lexsort((score, walk))  # stable, so ties keep ascending cand
        best = best[np.unique(walk[best], return_index=True)[1]]
        moved = np.zeros(len(edge), dtype=bool)
        moved[walk[best]] = True
        failed.append(edge[~moved])
        edge, cur, tgt = edge[moved], cand[best], tgt[moved]
    failed = np.concatenate(failed + [edge])
    if not len(failed):
        return True, None
    return False, tuple(X.vertices[x] for x in x_ends[:, failed.min()])


def verify_combine(X, C, outcome):
    """The five clean-outcome checks.

    (a) every kept face maps to a target face, (b) every target top face
    has a preimage, (c) link expansion at 2*lam/(1-2*lam) (the larger of
    the two candidate thresholds; both are reported), (d) the 1-skeleton
    is connected, both by search and by replaying the color-distance
    descent, (e) face fractions clear (1/(2 m^d))^d at every level.
    """
    y = outcome.y
    coloring = outcome.coloring
    lam = outcome.config.lambda_target
    if y is None:
        raise UnsatisfiedBase("outcome kept no top face")

    # X's colors as positions in C.vertices (-1 for none), and the target
    # top face under each kept top face, -1 where there is none
    col = C.vertex_positions(np.array([coloring[v] for v in X.vertices]))
    y_in_x = X.vertex_positions(y.vertices)
    if (y_in_x < 0).any():
        raise NotAFace("the outcome's complex is not a subcomplex of X")
    img = C.face_index(np.sort(col[y_in_x[y.top_positions()]], axis=1))
    bad = np.flatnonzero(img < 0)
    hom_ok, hom_wit = not len(bad), y.top_faces[bad[0]] if len(bad) else None
    missing = np.setdiff1d(np.arange(len(C.weights)), img)
    nondeg_ok = not len(missing)
    nondeg_wit = C.top_faces[missing[0]] if len(missing) else None

    if lam < 0.5:
        threshold = 2 * lam / (1 - 2 * lam)
    else:
        threshold = 1.0  # the bound degenerates; any spectrum passes
    threshold_alt = 2 * lam / (1 - lam) if lam < 1 else 1.0
    hdx = is_hdx(y, min(threshold, 1.0))

    y_ends = y.level(1).rows.T
    connected = (len(y.vertices) == len(X.vertices)
                 and not component_labels(len(y.vertices), y_ends).any())
    u, v = y_in_x[y_ends]  # ascending codes, as y's vertices are X's in order
    path_ok, _ = _path_argument(X, C, col, u * len(X.vertices) + v)

    m = len(C.vertices)
    bound = (1.0 / (2 * m**X.dim)) ** X.dim
    fractions = face_fraction_report(X, y)
    frac_ok = all(v >= bound for v in fractions.values())

    return CombineReport(
        homomorphism_ok=hom_ok,
        homomorphism_witness=hom_wit,
        nondegenerate_ok=nondeg_ok,
        nondegenerate_witness=nondeg_wit,
        hdx_ok=hdx.passes,
        hdx_threshold=threshold,
        hdx_threshold_alt=threshold_alt,
        hdx_worst=hdx.worst_value,
        connected_ok=connected,
        path_argument_ok=path_ok,
        fraction_ok=frac_ok,
        fractions=fractions,
        fraction_bound=bound,
    )
