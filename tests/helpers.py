"""Shared oracles and fixture generators for the test suite.

Oracles here are written from first principles, independent of the
library's linear-algebra paths, so spectra can be cross-checked.
"""
from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from hdxcover.complexes import TOL, SuitabilityReport, build_complex
from hdxcover.covers import (CoverComplex, CoverReport, _elements, build_cover,
                             connected_components, push_cocycle, verify_cover)
from hdxcover.errors import (
    BadLevel,
    BadMeasure,
    Disconnected,
    DuplicateFace,
    EmptyResult,
    EmptySide,
    NonPure,
    NotACocycle,
    NotAFace,
    NotPure,
    NotSymmetricGenSet,
    TooLargeForExact,
    TopFace,
    Unmeasurable,
    ZeroMeasure,
)
from hdxcover.graphs import WGraph
from hdxcover.pruning import PrunedMeasure, RatioReport, SatisfactionGraph
from hdxcover import groups as groups_mod
from hdxcover.groups import cayley_clique_complex
from hdxcover.spectral import (
    EmlReport,
    HdxReport,
    HdxRow,
    _pair_scores,
    _side_arrays,
    _subset_sums,
    adjacency_spectrum,
    bipartite_lambda,
    is_hdx,
)


def vertex_masses(G):
    """nu(v) of each vertex of G, keyed by vertex: half the weight of its
    edges, summed edge by edge in edge order (twice nu(v) is v's side
    measure in a bipartite graph)."""
    total = dict.fromkeys(G.vertices, 0.0)
    for (u, v), w in zip(G.edges, G.weights):
        total[u] += w
        total[v] += w
    return {v: 0.5 * t for v, t in total.items()}


def sym_walk_matrix(G):
    """Symmetrized random-walk matrix built directly from edge weights."""
    n = G.n
    pos = {v: i for i, v in enumerate(G.vertices)}
    half = np.zeros(n)
    for (u, v), w in zip(G.edges, G.weights):
        half[pos[u]] += w / 2.0
        half[pos[v]] += w / 2.0
    M = np.zeros((n, n))
    for (u, v), w in zip(G.edges, G.weights):
        iu, iv = pos[u], pos[v]
        M[iu, iv] = M[iv, iu] = 0.5 * w / math.sqrt(half[iu] * half[iv])
    return M


def power_iteration_spectrum(M, rng, iters=40000, tol=1e-11):
    """All eigenvalues of a symmetric matrix by power iteration + deflation."""
    A = M.copy()
    n = A.shape[0]
    out = []
    for _ in range(n):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = A @ v
            norm = np.linalg.norm(w)
            if norm < 1e-14:
                lam = 0.0
                break
            w /= norm
            new_lam = float(w @ A @ w)
            if abs(new_lam - lam) < tol and np.linalg.norm(A @ w - new_lam * w) < 1e-9:
                v = w
                lam = new_lam
                break
            v, lam = w, new_lam
        out.append(lam)
        A = A - lam * np.outer(v, v)
    return np.sort(np.array(out))[::-1]


def two_step_second_eigenvalue(G):
    """Second eigenvalue of the two-step walk on the left side (equals lam(B)^2)."""
    left = sorted(G.sides[0])
    right = sorted(G.sides[1])
    nu = vertex_masses(G)
    lmass = {v: 2.0 * nu[v] for v in left}
    rmass = {v: 2.0 * nu[v] for v in right}
    P = np.zeros((len(left), len(left)))
    wmap = {}
    for (u, v), w in zip(G.edges, G.weights):
        a, b = (u, v) if u in lmass else (v, u)
        wmap.setdefault(a, []).append((b, w))
    rneighbors = {}
    for (u, v), w in zip(G.edges, G.weights):
        a, b = (u, v) if u in lmass else (v, u)
        rneighbors.setdefault(b, []).append((a, w))
    lpos = {v: i for i, v in enumerate(left)}
    for a in left:
        for b, w1 in wmap.get(a, []):
            for a2, w2 in rneighbors[b]:
                P[lpos[a], lpos[a2]] += (w1 / lmass[a]) * (w2 / rmass[b])
    eigs = np.sort(np.real(np.linalg.eigvals(P)))[::-1]
    return float(eigs[1]) if len(eigs) > 1 else 0.0


def _plain_canon(face):
    t = tuple(face)
    if len(set(t)) != len(t):
        raise NonPure(f"face {t!r} has repeated vertices")
    return tuple(sorted(t))


def plain_build_complex(dim, faces, weights=None):
    """Reference build: each face canonicalized as a tuple, duplicates found
    with a set and faces sorted as tuples; the vertices collected with a set
    over every face and the top positions looked up in a dict.  Returns the
    dim, vertices, top_faces, weights and top_positions() of the complex."""
    faces = [_plain_canon(f) for f in faces]
    if not faces:
        raise ZeroMeasure("complex needs at least one top face")
    for f in faces:
        if len(f) != dim + 1:
            raise NonPure(f"face {f!r} has size {len(f)}, expected {dim + 1}")
    if weights is None:
        weights = np.ones(len(faces))
    else:
        weights = np.asarray(list(weights), dtype=float)
        if len(weights) != len(faces):
            raise ValueError("weights length does not match faces")
        if not np.isfinite(weights).all():
            raise ValueError("non-finite face weight")
        if (weights < 0).any():
            raise ValueError("negative face weight")
    if len(set(faces)) != len(faces):
        seen = set()
        for f in faces:
            if f in seen:
                raise DuplicateFace(f"face {f!r} appears twice")
            seen.add(f)
    keep = weights > 0
    if not keep.any():
        raise ZeroMeasure("all top faces have zero weight")
    faces = [f for f, k in zip(faces, keep) if k]
    weights = weights[keep]
    order = sorted(range(len(faces)), key=lambda i: faces[i])
    faces = tuple(faces[i] for i in order)
    weights = weights[order]
    total = weights.sum()
    if not math.isfinite(total):
        raise ValueError("face weights overflow when summed")
    weights = weights / total
    if not abs(weights.sum() - 1.0) < 1e-12:
        raise BadMeasure(f"normalized face weights sum to {weights.sum()!r}, not 1")
    vertices = tuple(sorted({v for f in faces for v in f}))
    pos = {v: i for i, v in enumerate(vertices)}
    tops = np.fromiter(
        (pos[v] for f in faces for v in f), dtype=np.intp, count=len(faces) * (dim + 1)
    ).reshape(len(faces), dim + 1)
    return SimpleNamespace(dim=dim, vertices=vertices, top_faces=faces,
                           weights=weights, top_positions=lambda: tops)


def assert_same_complex(X, ref):
    """X equals a plain_build_complex result: the same vertices, top faces
    and top positions, and weights equal bit for bit."""
    assert X.dim == ref.dim
    assert X.vertices == ref.vertices
    assert X.top_faces == ref.top_faces
    got, want = X.top_positions(), ref.top_positions()
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert X.weights.tobytes() == ref.weights.tobytes()


def cycle_complex(n):
    """The n-cycle as a 1-dimensional complex."""
    return build_complex(1, [tuple(sorted((i, (i + 1) % n))) for i in range(n)])


def oriented_face_measure(X, seq):
    """Prob of an ordered face: Prob{underlying set} / (k+1)!."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise NotAFace(f"oriented face {seq!r} has repeated vertices")
    return X.face_measure(seq) / math.factorial(len(seq))


def coboundary_labeling(X, group, potential):
    """f(uv) = potential(u)^-1 * potential(v) on every edge; always a cocycle.
    The potential is one element per vertex, aligned with X.vertices."""
    pot = _elements(potential, len(X.vertices), group, "a potential")
    u, v = X.level(1).rows.T
    return group.mul_table[group.inv_table[pot[u]], pot[v]]


def degree(X, s, level):
    """Number of level-dimensional faces of X containing s."""
    s = tuple(sorted(s))
    if not X.has_face(s):
        raise NotAFace(f"{s!r} is not a face")
    if level < len(s) - 1 or level > X.dim:
        raise BadLevel(f"level {level} out of range for face of size {len(s)}")
    if s == ():
        return X.n_faces(level)
    sset = set(s)
    need = level + 1 - len(s)
    seen = set()
    for i in X.cofaces(s):
        rest = [v for v in X.top_faces[i] if v not in sset]
        for extra in itertools.combinations(rest, need):
            seen.add(tuple(sorted(s + extra)))
    return len(seen)


def fiber(cover, base_vertex):
    """The lifted vertices over base_vertex, sorted."""
    return tuple(sorted(v for v, (b, _) in cover.legend.items() if b == base_vertex))


def phi_face(cover, face):
    """The image of a lifted face in the base, sorted."""
    return tuple(sorted(cover.legend[v][0] for v in face))


def is_abelian(group):
    return bool((group.mul_table == group.mul_table.T).all())


def one_sided(rep):
    """A spectral report's second largest eigenvalue, -1 below two vertices."""
    return rep.eigenvalues[1] if len(rep.eigenvalues) > 1 else -1.0


def ratio_ok(rep):
    """Whether a measure-ratio report matches Y's support within its bound."""
    return rep.support_matches and rep.max_ratio <= rep.bound


def as_array(comb, coloring):
    """The color array of a coloring given as a dict keyed by vertex: each
    vertex's color as its position in the target's vertices, -1 for none."""
    return comb.C.vertex_positions(np.array([coloring[v] for v in comb.X.vertices]))


def neighbors(G, v):
    """The neighbors of v in G, in edge order."""
    return [b if a == v else a for a, b in G.edges if v in (a, b)]


def incident(G, v):
    """The (neighbor, edge index) pairs at v, in edge order."""
    return [(b if a == v else a, i) for i, (a, b) in enumerate(G.edges) if v in (a, b)]


def has_edge(G, u, v):
    return ((u, v) if u < v else (v, u)) in set(G.edges)


def plain_graph_components(G):
    """Reference components: a dict DFS from each vertex in order, over an
    adjacency built edge by edge."""
    adj = {v: [] for v in G.vertices}
    for u, v in G.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = []
    for start in G.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def plain_connected_components(X):
    """Reference component count and vertex -> component-id labeling of a
    complex: the DFS components of its 1-skeleton sorted by least vertex."""
    if X.dim >= 1:
        comps = plain_graph_components(X.one_skeleton())
    else:
        comps = [{v} for v in X.vertices]
    comps = sorted(comps, key=min)
    labels = {}
    for cid, comp in enumerate(comps):
        for v in comp:
            labels[v] = cid
    return len(comps), labels


def random_wgraph(rng, n, p=0.5, connected=True):
    """Random weighted graph on n vertices; weights uniform in (0.2, 1.2)."""
    while True:
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                edges.append((u, v, 0.2 + rng.random()))
        touched = {x for u, v, _ in edges for x in (u, v)}
        if len(touched) < n:
            continue
        G = WGraph(edges)
        if not connected or len(plain_graph_components(G)) == 1:
            return G


def random_bipartite_wgraph(rng, a, b, p=0.6):
    """Random connected bipartite graph with sides 0..a-1 and a..a+b-1."""
    while True:
        edges = []
        for u in range(a):
            for v in range(a, a + b):
                if rng.random() < p:
                    edges.append((u, v, 0.2 + rng.random()))
        touched = {x for u, v, _ in edges for x in (u, v)}
        if len(touched) < a + b:
            continue
        G = WGraph(edges, sides=(range(a), range(a, a + b)))
        if len(plain_graph_components(G)) == 1:
            return G


def random_complex(rng, n, dim, keep=0.7, uniform=False):
    """Random pure complex: random top faces of the complete complex."""
    while True:
        faces = []
        weights = []
        for f in itertools.combinations(range(n), dim + 1):
            if rng.random() < keep:
                faces.append(f)
                weights.append(1.0 if uniform else 0.2 + rng.random())
        if not faces:
            continue
        X = build_complex(dim, faces, weights)
        if len(X.vertices) == n:
            return X


def relabeled(X, step=3, shift=7):
    """X with vertex v renamed step * v + shift, so labels are no positions."""
    faces = [tuple(step * v + shift for v in f) for f in X.top_faces]
    return build_complex(X.dim, faces, X.weights)


def plain_cofaces(X):
    """Reference face table: every subset of every top face, mapped to the
    indices of the top faces containing it, in ascending order."""
    cofaces = {}
    for i, face in enumerate(X.top_faces):
        for size in range(1, X.dim + 2):
            for sub in itertools.combinations(face, size):
                cofaces.setdefault(sub, []).append(i)
    return {s: np.array(ix, dtype=np.intp) for s, ix in cofaces.items()}


def brute_face_measure(X, s):
    """Direct summation oracle for the induced face measure."""
    s = tuple(sorted(s))
    total = 0.0
    for face, w in zip(X.top_faces, X.weights):
        if set(s) <= set(face):
            total += w
    return total / math.comb(X.dim + 1, len(s))


def plain_link_skeleton(X, s):
    """Reference link skeleton: build the link complex, then one
    face_measure per edge."""
    L = X.link(s)
    return WGraph([(u, v, L.face_measure((u, v))) for u, v in L.faces(1)])


def per_face_link_skeleton(X, s):
    """Reference link skeleton of one face, as link_skeleton built it face
    by face: the face's cofaces less its columns, one np.unique each for
    the link's vertices and its edges."""
    idx, _, tops = X.link_rows(s)
    k = tops.shape[1] - 1  # dimension of the link
    if k < 0:
        raise TopFace(f"{tuple(s)!r} is a top face; its link is empty")
    if k == 0:
        raise BadLevel("a 0-dimensional complex has no 1-skeleton")
    w = X.weights[idx]
    verts, local = np.unique(tops, return_inverse=True)
    local = local.reshape(tops.shape)
    a, b = np.triu_indices(k + 1, 1)
    n = len(verts)
    keys, edge = np.unique(local[:, a] * n + local[:, b], return_inverse=True)
    mass = np.bincount(
        edge.ravel(), weights=np.repeat(w / w.sum(), len(a)), minlength=len(keys)
    )
    return WGraph.from_arrays(
        tuple(X.vertices[i] for i in verts),
        np.stack([keys // n, keys % n]),
        mass / math.comb(k + 1, 2),
    )


def _plain_link_row(X, face, mode):
    rep = adjacency_spectrum(per_face_link_skeleton(X, face))
    value = one_sided(rep) if mode == "one_sided" else rep.two_sided
    ev = rep.eigenvalues
    lam2 = ev[1] if len(ev) > 1 else -1.0
    return HdxRow(face, float(lam2), float(ev[-1]), float(value))


def plain_is_hdx(X, lam, mode="two_sided", include_empty_face=True):
    """Reference is_hdx: one link skeleton and one eigensolve per face."""
    lo = -1 if include_empty_face else 0
    rows = [_plain_link_row(X, s, mode) for k in range(lo, X.dim - 1) for s in X.faces(k)]
    worst = max(rows, key=lambda r: r.value)
    return HdxReport(
        threshold=float(lam),
        mode=mode,
        rows=tuple(rows),
        passes=worst.value <= lam + TOL,
        worst_face=worst.face,
        worst_value=worst.value,
    )


def plain_check_suitable(X, c, r, eta):
    """Reference check_suitable: plain_is_hdx, then each link skeleton
    built again face by face for the degree and weight conditions."""
    q = max(len(X.cofaces((v,))) for v in X.vertices)
    bound = c * (1.0 + math.log(q))

    hdx = plain_is_hdx(X, eta, mode="two_sided")

    degree_ok, degree_witness = True, None
    weight_ok, weight_witness = True, None
    for ell in range(0, X.dim - 1):
        for sigma in X.faces(ell):
            skel = per_face_link_skeleton(X, sigma)
            if degree_ok:
                deg = np.bincount(skel.ends.ravel(), minlength=skel.n)
                low = np.flatnonzero(deg < bound)
                if len(low):
                    i = low[0]
                    degree_ok = False
                    degree_witness = (sigma, skel.vertices[i], int(deg[i]))
            if not weight_ok:
                continue
            for kind, items, w in (
                ("edge", skel.edges, skel.weights),
                ("vertex", skel.vertices, skel.vertex_measures()),
            ):
                lo, hi = 1.0 / (r * len(items)), r / len(items)
                bad = np.flatnonzero((w < lo - TOL) | (w > hi + TOL))
                if len(bad):
                    i = bad[0]
                    weight_ok = False
                    weight_witness = (sigma, kind, items[i], float(w[i]), lo, hi)
                    break

    return SuitabilityReport(
        c=c,
        r=r,
        eta=eta,
        q=q,
        degree_bound=bound,
        hdx_ok=hdx.passes,
        hdx_worst_face=hdx.worst_face,
        hdx_worst_value=hdx.worst_value,
        degree_ok=degree_ok,
        degree_witness=degree_witness,
        weight_ok=weight_ok,
        weight_witness=weight_witness,
    )


def plain_cover_link_gap(cover):
    """Reference cover_link_gap: one skeleton and one eigensolve per base
    vertex and per cover vertex, spectra paired by zip."""
    base_spec = {
        s: adjacency_spectrum(per_face_link_skeleton(cover.base, s)).eigenvalues
        for s in cover.base.faces(0)
    }
    worst_gap = 0.0
    for s in cover.complex.faces(0):
        ev = adjacency_spectrum(per_face_link_skeleton(cover.complex, s)).eigenvalues
        gap = max(abs(a - b) for a, b in zip(ev, base_spec[phi_face(cover, s)]))
        worst_gap = max(worst_gap, gap)
    return worst_gap


def plain_weyl_bound(cover):
    """Reference bound of cover_link_gap on a cover whose vertex links are
    all copies of their images': the largest ||M~ - P M P^T||_F, each
    operator a dense sym_walk_matrix and P read off the legend."""
    worst = 0.0
    for vid in cover.complex.vertices:
        up = per_face_link_skeleton(cover.complex, (vid,))
        down = per_face_link_skeleton(cover.base, (cover.phi(vid),))
        at = [down.vertices.index(cover.phi(u)) for u in up.vertices]
        M = sym_walk_matrix(down)[np.ix_(at, at)]
        worst = max(worst, float(np.linalg.norm(sym_walk_matrix(up) - M)))
    return worst


def plain_verify_cover(cover, tol=1e-9):
    """Reference cover audit: a dict of link weights per lifted face."""
    tilde, base = cover.complex, cover.base
    violations = []

    surj = set(cover.phi(v) for v in tilde.vertices) == set(base.vertices)
    image_tops = {phi_face(cover, f) for f in tilde.top_faces}
    surj = surj and image_tops == set(base.top_faces)

    checked = 0
    for k in range(0, tilde.dim + 1):
        for face in tilde.faces(k):
            checked += 1
            img = phi_face(cover, face)
            if len(set(img)) != len(face) or not base.has_face(img):
                violations.append((face, "image is not a face"))
                continue
            if k == tilde.dim:
                continue  # links of top faces are empty
            idx = tilde.cofaces(face)
            fset = set(face)
            link_w = {}
            for i in idx:
                rest = tuple(v for v in tilde.top_faces[i] if v not in fset)
                link_w[rest] = link_w.get(rest, 0.0) + tilde.weights[i]
            lvs = {v for rest in link_w for v in rest}
            phi_v = {v: cover.phi(v) for v in lvs}
            if len(set(phi_v.values())) != len(lvs):
                violations.append((face, "projection not injective on the link"))
                continue
            bidx = base.cofaces(img)
            iset = set(img)
            base_w = {}
            for i in bidx:
                rest = tuple(v for v in base.top_faces[i] if v not in iset)
                base_w[rest] = base_w.get(rest, 0.0) + base.weights[i]
            mapped = {
                tuple(sorted(phi_v[v] for v in rest)): w for rest, w in link_w.items()
            }
            if set(mapped) != set(base_w):
                violations.append((face, "link faces do not correspond"))
                continue
            ts = sum(link_w.values())
            bs = sum(base_w.values())
            for rest, w in mapped.items():
                if abs(w / ts - base_w[rest] / bs) > tol:
                    violations.append((face, f"link weight mismatch at {rest}"))
                    break
    return CoverReport(
        ok=surj and not violations,
        surjective=surj,
        faces_checked=checked,
        violations=tuple(violations),
    )


def plain_injective_on_links(inv, rest, phi):
    """Reference _injective_on_links: per face, whether the (face, vertex)
    pairs and the (face, image) pairs are equally many, each counted by a
    hash np.unique."""
    nf = int(inv.max()) + 1
    n, nc = int(rest.max()) + 1, int(phi.max()) + 1
    link = np.unique(inv[:, None] * n + rest)
    face = link // n
    n_img = np.bincount(np.unique(face * nc + phi[link % n]) // nc, minlength=nf)
    return np.bincount(face, minlength=nf) == n_img


def link_pair_arrays(cover, k):
    """The arguments verify_cover passes _injective_on_links at level k:
    each (top face, k-face) pair's face, the top face's other vertices per
    pair, and phi as base positions, an image outside the base past them."""
    tilde, lev = cover.complex, cover.complex.level(k)
    pos = {v: i for i, v in enumerate(cover.base.vertices)}
    phi = np.array([pos.setdefault(cover.phi(v), len(pos)) for v in tilde.vertices])
    rest = tilde.top_positions()[:, lev.rest].reshape(-1, tilde.dim - k)
    return lev.pairs.ravel(), rest, phi


def label_dict(X, labels):
    """A label array as the dict keyed by edge that the plain covers read."""
    return {e: int(g) for e, g in zip(X.faces(1), labels)}


def edge_positions(X):
    """Each edge's index in X.faces(1), keyed by the edge."""
    return {e: i for i, e in enumerate(X.faces(1))}


def plain_directed_label(group, labeling, u, v):
    """Label of the oriented edge (u, v): f(uv) if u < v, else its inverse."""
    g = labeling[(u, v) if u < v else (v, u)]
    return g if u < v else group.inv(g)


def plain_is_cocycle(X, labels, group):
    """Reference triangle check: one dict lookup per edge of each 2-face."""
    labeling = label_dict(X, labels)
    if X.dim < 2:
        return True, None
    for i, j, k in X.faces(2):
        lhs = group.mul(labeling[(i, j)], labeling[(j, k)])
        if lhs != labeling[(i, k)]:
            return False, (i, j, k)
    return True, None


def plain_build_cover(X, labels, group):
    """Reference cover: each top face lifted in Python, one directed label
    and one tuple sort per lifted face."""
    if X.dim < 2:
        raise NotACocycle("covers are built over complexes of dimension >= 2")
    ok, witness = plain_is_cocycle(X, labels, group)
    if not ok:
        raise NotACocycle(f"triangle condition fails at {witness}", witness=witness)
    labeling = label_dict(X, labels)
    n_g = group.order
    pos = {v: i for i, v in enumerate(X.vertices)}

    def vid(v, g):
        return pos[v] * n_g + g

    legend = {vid(v, g): (v, g) for v in X.vertices for g in range(n_g)}
    tops = []
    weights = []
    for face, w in zip(X.top_faces, X.weights):
        v0 = face[0]
        shifts = [
            0 if v == v0 else plain_directed_label(group, labeling, v0, v)
            for v in face
        ]
        share = w / n_g
        for g in range(n_g):
            row = group.mul_table[g]
            tops.append(tuple(sorted(vid(v, int(row[s])) for v, s in zip(face, shifts))))
            weights.append(share)
    cover = plain_build_complex(X.dim, tops, weights)
    return CoverComplex(cover, X, group, labeling, legend)


def same_cover(a, b):
    """Equal vertices, top faces, top positions and legends, and weights
    equal bit for bit."""
    x, y = a.complex, b.complex
    return (x.vertices == y.vertices and x.top_faces == y.top_faces
            and np.array_equal(x.top_positions(), y.top_positions())
            and x.weights.tobytes() == y.weights.tobytes()
            and a.legend == b.legend)


def plain_holonomy_subgroup(X, labels, group, v, order="bfs"):
    """Reference holonomy: a bfs or dfs spanning tree walked vertex by
    vertex, one generator per non-tree edge."""
    labeling = label_dict(X, labels)
    skel = X.one_skeleton()
    if len(plain_graph_components(skel)) > 1:
        raise Disconnected("holonomy needs a connected 1-skeleton")
    pot = {v: 0}
    frontier = [v]
    tree_edges = set()
    while frontier:
        x = frontier.pop(0 if order == "bfs" else -1)
        for y in sorted(neighbors(skel, x)):
            if y not in pot:
                pot[y] = group.mul(pot[x], plain_directed_label(group, labeling, x, y))
                tree_edges.add((x, y) if x < y else (y, x))
                frontier.append(y)
    gens = set()
    for u, w in skel.edges:
        if (u, w) in tree_edges:
            continue
        g = group.mul(
            group.mul(pot[u], plain_directed_label(group, labeling, u, w)),
            group.inv(pot[w]),
        )
        gens.add(g)
    return groups_mod.subgroup_closure(group, gens)


def plain_push_cocycle(X, labels, group, quotient):
    """Reference push: the checked labeling projected edge by edge, as a dict."""
    ok, witness = plain_is_cocycle(X, labels, group)
    if not ok:
        raise NotACocycle(f"input fails the triangle condition at {witness}",
                          witness=witness)
    return {e: int(quotient.projection[g]) for e, g in label_dict(X, labels).items()}


def built_members(Y, labels, group, lam, index_cap=64):
    """Reference cover-family members: for each normal N of index <=
    index_cap, Y's cover by G/N built, audited and solved whole, with its
    components counted and its links solved densely; returns the member
    records, in run_cover_family's keys, and the covers."""
    members, built = [], []
    for sub in groups_mod.normal_subgroups(group, index_cap=index_cap):
        q = groups_mod.quotient_group(group, sub)
        cover = build_cover(Y, push_cocycle(Y, labels, group, q), q.group)
        members.append({
            "subgroup_order": len(sub),
            "quotient_order": q.group.order,
            "cover_vertices": len(cover.complex.vertices),
            "components": connected_components(cover.complex)[0],
            "verified": verify_cover(cover).ok,
            "links_within_lambda": is_hdx(cover.complex, lam, include_empty_face=False).passes,
            "skeleton_lambda": adjacency_spectrum(cover.complex.one_skeleton()).two_sided,
        })
        built.append(cover)
    return members, built


def brute_check_suitable(X, c, r):
    """First-principles degree and weight conditions of check_suitable,
    vertex by vertex and edge by edge over reference link skeletons; returns
    (degree_ok, degree_witness, weight_ok, weight_witness)."""
    q = max(len(X.cofaces((v,))) for v in X.vertices)
    bound = c * (1.0 + math.log(q))
    degree_ok, degree_witness = True, None
    weight_ok, weight_witness = True, None
    for ell in range(0, X.dim - 1):
        for sigma in X.faces(ell):
            skel = plain_link_skeleton(X, sigma)
            for v in skel.vertices:
                deg = len(neighbors(skel, v))
                if deg < bound and degree_ok:
                    degree_ok, degree_witness = False, (sigma, v, deg)
            m = skel.m
            lo_e, hi_e = 1.0 / (r * m), r / m
            for (u, v), w in zip(skel.edges, skel.weights):
                if not (lo_e - TOL <= w <= hi_e + TOL) and weight_ok:
                    weight_ok = False
                    weight_witness = (sigma, "edge", (u, v), float(w), lo_e, hi_e)
            nn = skel.n
            lo_v, hi_v = 1.0 / (r * nn), r / nn
            for v, w in vertex_masses(skel).items():
                if not (lo_v - TOL <= w <= hi_v + TOL) and weight_ok:
                    weight_ok = False
                    weight_witness = (sigma, "vertex", v, float(w), lo_v, hi_v)
    return degree_ok, degree_witness, weight_ok, weight_witness


def plain_first_violated(sampler, x):
    """First violated event, evaluating events one by one in events() order."""
    return next(
        ((k, s) for k, s in sampler.events() if sampler.eval_event(k, s, x)), None
    )


def _plain_loop(sampler, x, draw, scope_of):
    transcript = []
    resamples = 0
    while True:
        violated = plain_first_violated(sampler, x)
        if violated is None:
            return "clean", x, resamples, tuple(transcript), ()
        if resamples >= sampler.config.max_resamples:
            remaining = tuple(
                (k, s) for k, s in sampler.events() if sampler.eval_event(k, s, x)
            )
            return "budget_exhausted", x, resamples, tuple(transcript), remaining
        kind, face = violated
        scope = scope_of(kind, face)
        x = x.copy()
        x[list(scope)] = draw(len(scope))
        transcript.append((resamples, kind, face, scope))
        resamples += 1


def plain_prune_run(pruner, rng):
    """Reference prune loop, one eval_event call per event evaluated;
    returns (status, labeling, resamples, transcript, violations_remaining)."""
    rng = np.random.default_rng(rng)
    f = rng.integers(0, pruner.m, size=pruner.X.n_faces(1), dtype=np.int64)
    return _plain_loop(
        pruner, f, lambda k: rng.integers(0, pruner.m, size=k), pruner.event_scope
    )


def plain_combine_run(comb, rng):
    """Reference combine loop, one eval_event call per event evaluated and
    scopes read off the cofaces; returns (status, colors by vertex position,
    resamples, transcript, violations_remaining)."""
    rng = np.random.default_rng(rng)
    m = len(comb.C.vertices)
    col = rng.integers(0, m, size=len(comb.X.vertices))
    pos = {v: i for i, v in enumerate(comb.X.vertices)}

    def scope_of(kind, face):
        verts = set(face).union(*(comb.X.top_faces[i] for i in comb.X.cofaces(face)))
        return tuple(sorted(pos[v] for v in verts))

    return _plain_loop(comb, col, lambda k: rng.integers(0, m, size=k), scope_of)


def plain_eval_ac(comb, face, col):
    """Reference AC event, one face at a time: a satisfied face whose
    image's link in the target has a vertex that colors none of the face's
    own link vertices."""
    if not comb.face_satisfied(face, col):
        return False
    completions = set(comb.C.link(plain_image(comb, face, col)).vertices)
    start, verts, _ = comb.X.link_vertices(len(face) - 1)
    i = comb.X.face_pos(len(face) - 1)[face]
    around = col[verts[start[i]:start[i + 1]]].tolist()
    return bool(completions - {comb.C.vertices[c] for c in around if c >= 0})


def plain_image(comb, face, col):
    """The labels of the colors of face, sorted."""
    return tuple(sorted((comb.C.vertices[col[comb.X.vertices.index(v)]] for v in face),
                        key=comb.C.vertices.index))


def plain_color_satisfied(comb, face, col):
    """Reference combine rule: distinct colors whose set is a target face."""
    img = plain_image(comb, face, col)
    return len(set(img)) == len(img) and comb.C.has_face(img)


def plain_c_pruning(comb, col):
    """Reference combine pruning: fiber masses summed in a dict, one image
    per kept top face; returns (y, measure kind)."""
    mask = comb.satisfied_mask(col)
    if not mask.any():
        return None, "empty"
    kept = [comb.X.top_faces[i] for i in np.nonzero(mask)[0]]
    base_w = comb.X.weights[mask]
    fiber = {}
    for face, w in zip(kept, base_w):
        img = plain_image(comb, face, col)
        fiber[img] = fiber.get(img, 0.0) + w
    if any(t not in fiber for t in comb.C.top_faces):
        return plain_build_complex(comb.d, kept, base_w), "restricted"
    cw = dict(zip(comb.C.top_faces, comb.C.weights))
    weights = [
        cw[plain_image(comb, face, col)] * w / fiber[plain_image(comb, face, col)]
        for face, w in zip(kept, base_w)
    ]
    return plain_build_complex(comb.d, kept, weights), "coloring"


def plain_color_satisfaction_graph(comb, sigma, col):
    """Reference combine satisfaction graph: a walk over the cofaces of
    sigma with one face check per link vertex and link edge."""
    sigma = tuple(sorted(sigma))
    sset = set(sigma)
    vert_ok = {}
    edge_mass = {}
    for i in comb.X.cofaces(sigma):
        rest = [v for v in comb.X.top_faces[i] if v not in sset]
        for v in rest:
            if v not in vert_ok:
                vert_ok[v] = plain_color_satisfied(comb, sigma + (v,), col)
        for key in itertools.combinations(rest, 2):
            if key not in edge_mass:
                sat = plain_color_satisfied(comb, sigma + key, col)
                edge_mass[key] = 0.0 if sat else None
            if edge_mass[key] is not None:
                edge_mass[key] += comb.X.weights[i]
    edges = {k: m for k, m in edge_mass.items() if m is not None and m > 0}
    good = tuple(sorted(v for v, ok in vert_ok.items() if ok))

    def result(graph, link_graph, missing, dropped):
        return SimpleNamespace(sigma=sigma, graph=graph, link_graph=link_graph,
                               missing=missing, dropped_vertices=dropped)

    if not edges:
        return result(None, None, None, good)
    link_graph = WGraph([(u, v, m) for (u, v), m in edges.items()])
    dropped = tuple(v for v in good if v not in set(link_graph.vertices))
    pos = {v: i for i, v in enumerate(comb.X.vertices)}
    color = {v: comb.C.vertices[col[pos[v]]] for v in good}
    tskel = comb.C.link(plain_image(comb, sigma, col)).one_skeleton()
    fiber = {}
    for (u, v), m in edges.items():
        key = tuple(sorted((color[u], color[v])))
        fiber[key] = fiber.get(key, 0.0) + m
    for e in tskel.edges:
        if e not in fiber:
            return result(None, link_graph, e, dropped)
    tw = dict(zip(tskel.edges, tskel.weights))
    colored = []
    for (u, v), m in edges.items():
        key = tuple(sorted((color[u], color[v])))
        colored.append((u, v, tw[key] * m / fiber[key]))
    return result(WGraph(colored), link_graph, None, dropped)


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


def link_table(sampler, sigma):
    """The LinkTable of the sorted face sigma, sliced off the sampler's
    level table, with plain_build_link_table's dtypes."""
    t, i = sampler.level_table(len(sigma) - 1), sampler.X.face_pos(len(sigma) - 1)[sigma]
    v, e = slice(t.vstart[i], t.vstart[i + 1]), slice(t.estart[i], t.estart[i + 1])
    return LinkTable(tuple(sampler.X.vertices[p] for p in t.pos[v].tolist()), t.pos[v],
                     (t.uv[:, e] - v.start).astype(np.intp), t.mass[e],
                     t.top[e].astype(np.intp), t.vert_rows[..., v, :],
                     None if t.edge_rows is None else t.edge_rows[..., e, :])


def plain_build_link_table(X, sigma, row_keys):
    """Reference for a slice of Sampler.level_table, built for sigma alone:
    the cofaces of sigma less its columns give the link vertices, and each
    pair of their columns a link edge, in first-seen coface order."""
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


def face_colors(sampler, sigma, x):
    """The image of sigma and the target label of each of its link
    vertices, in link table order, through the sampler's link_colors."""
    ell = len(sigma) - 1
    t, i = sampler.level_table(ell), sampler.X.face_pos(ell)[sigma]
    (image,), colors = sampler.link_colors(
        ell, np.array([i]), slice(t.vstart[i], t.vstart[i + 1]), x)
    return image, np.asarray(sampler.target.vertices)[colors]


def plain_ne_violated(sg, threshold, link_measure=False):
    """Reference NE event on a satisfaction graph: degenerate or dropping a
    vertex, or expanding worse than threshold by adjacency_spectrum, under
    the coloring measure and, if link_measure, the link measure too."""
    if sg.graph is None or sg.dropped_vertices:
        return True
    graphs = (sg.graph, sg.link_graph) if link_measure else (sg.graph,)
    return any(adjacency_spectrum(g).two_sided > threshold + 1e-9 for g in graphs)


def plain_build_satisfaction_graph(sampler, sigma, x, satisfied, colors, tskel, absent=None):
    """Reference satisfaction graph of sigma, on the sampler's link table:
    the kept link edges go through an edge dict, the fiber masses through a
    dict summed edge by edge in table order, and both graphs through
    WGraph.__init__.  colors gives each link vertex's target label, and
    tskel the target link's 1-skeleton, None for the missing face absent."""
    table = link_table(sampler, sigma)
    if table.edge_rows is None:
        if satisfied is None:
            satisfied = sampler.satisfied_mask(x)
        edge_ok = satisfied[table.top]
    else:
        edge_ok = sampler.keys_ok(x, table.edge_rows)
    vert_ok = sampler.keys_ok(x, table.vert_rows)
    keep = edge_ok & (table.mass > 0)
    at = table.verts.__getitem__
    ends = ((at(u), at(v)) for u, v in table.uv[:, keep].T.tolist())
    edges = dict(zip(ends, table.mass[keep].tolist()))
    good = tuple(v for v, ok in zip(table.verts, vert_ok.tolist()) if ok)
    if not edges:
        return SatisfactionGraph(sigma, None, None, None, good)
    link_graph = WGraph([(u, v, m) for (u, v), m in edges.items()])
    kept = set(link_graph.vertices)
    dropped = tuple(v for v in good if v not in kept)
    if tskel is None:
        return SatisfactionGraph(sigma, None, link_graph, absent, dropped)
    coloring = dict(zip(table.verts, colors.tolist()))
    fiber = {e: tuple(sorted((coloring[e[0]], coloring[e[1]]))) for e in edges}
    fiber_mass = {}
    for e, m in edges.items():
        fiber_mass[fiber[e]] = fiber_mass.get(fiber[e], 0.0) + m
    missing = next((e for e in tskel.edges if e not in fiber_mass), None)
    tw = dict(zip(tskel.edges, tskel.weights))
    graph = None if missing is not None else WGraph(
        [(u, v, tw[fiber[u, v]] * m / fiber_mass[fiber[u, v]]) for (u, v), m in edges.items()]
    )
    return SatisfactionGraph(sigma, graph, link_graph, missing, dropped)


def plain_at_table(pruner, sigma):
    """Reference AT table of sigma: (link vertex measure, edge positions,
    directions) built vertex by vertex over a dict of coface masses."""
    X = pruner.X
    mass = {}
    for i in X.cofaces(sigma):
        for v in X.top_faces[i]:
            if v not in sigma:
                mass[v] = mass.get(v, 0.0) + X.weights[i]
    verts = sorted(mass)
    meas = np.array([mass[v] for v in verts])
    pos = edge_positions(X)
    eidx = [[pos[tuple(sorted((u, v)))] for u in sigma] for v in verts]
    fwd = [[u < v for u in sigma] for v in verts]
    return meas / meas.sum(), np.array(eidx), np.array(fwd)


def plain_bc_table(pruner, v):
    """Reference BC table of v: the edges and directions of v -> u -> w -> v
    for each sorted ordered pair u != w that shares a coface with v."""
    pos, pairs = edge_positions(pruner.X), set()
    for i in pruner.X.cofaces((v,)):
        rest = [u for u in pruner.X.top_faces[i] if u != v]
        pairs.update(itertools.permutations(rest, 2))
    eidx, fwd = [], []
    for u, w in sorted(pairs):
        hops = ((v, u), (u, w), (w, v))
        eidx.append([pos[tuple(sorted(h))] for h in hops])
        fwd.append([x < y for x, y in hops])
    return np.array(eidx), np.array(fwd)


def plain_eval_at(pruner, sigma, f):
    """Reference AT event: one histogram of generator tuples over the link
    of sigma, read off plain_at_table."""
    vmeas, eidx, fwd = plain_at_table(pruner, sigma)
    labs = f[eidx]
    elems = np.where(fwd, pruner.s_elems[labs], pruner.inv_elems[labs])
    rank = np.full(pruner.group.order, -1, dtype=np.int64)
    rank[pruner.s_elems] = np.arange(pruner.m)
    codes = rank[elems] @ (pruner.m ** np.arange(len(sigma)))
    probs = np.bincount(codes, weights=vmeas, minlength=pruner.m ** len(sigma))
    lo, hi = pruner.config.at_bounds(len(sigma) - 1, pruner.m)
    return bool((probs <= lo).any() or (probs >= hi).any())


def plain_eval_bc(pruner, v, f):
    """Reference BC event: the products around v -> u -> w -> v over
    plain_bc_table, collected in a Python set and checked generator by
    generator."""
    eidx, fwd = plain_bc_table(pruner, v)
    labs = f[eidx]
    elems = np.where(fwd, pruner.s_elems[labs], pruner.inv_elems[labs])
    mul = pruner.group.mul_table
    realized = set(mul[mul[elems[:, 0], elems[:, 1]], elems[:, 2]].tolist())
    return any(int(s) not in realized for s in pruner.s_elems)


def plain_event_scope(pruner, kind, face):
    """Reference labeling positions read by an event, from edge labels."""
    X = pruner.X
    if kind == "AT":
        return tuple(sorted(set(plain_at_table(pruner, face)[1].ravel().tolist())))
    if kind == "BC":
        return tuple(sorted(set(plain_bc_table(pruner, face[0])[0].ravel().tolist())))
    if kind == "EC":
        pos = edge_positions(X)
        out = set()
        for i in X.cofaces(face):
            for e in itertools.combinations(X.top_faces[i], 2):
                out.add(pos[e])
        return tuple(sorted(out))
    near = set(face).union(*(X.top_faces[i] for i in X.cofaces(face)))
    return tuple(i for i, (u, w) in enumerate(X.faces(1)) if u in near and w in near)


def plain_split_vertex_sets(vertices, p, rng):
    """Reference split: the labels of the two sides collected in sets, one
    rng.random() draw per vertex for A and one more for B if it missed A."""
    if not 0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2")
    rng = np.random.default_rng(rng)
    a, b = set(), set()
    q = p / (1.0 - p)
    for v in vertices:
        if rng.random() < p:
            a.add(v)
        elif rng.random() < q:
            b.add(v)
    return a, b


def plain_bipartite_vertex_split(G, p, rng):
    """Reference split: the crossing edges collected edge by edge and built
    through the (u, v, w) constructor; returns (graph, a, b) with the sides
    as label sets."""
    a, b = plain_split_vertex_sets(G.vertices, p, rng)
    if not a or not b:
        raise EmptySide("a side came out empty")
    cross = [(u, v, w) for (u, v), w in zip(G.edges, G.weights)
             if (u in a and v in b) or (u in b and v in a)]
    if not cross:
        raise EmptySide("no edge crosses the sampled sides")
    return SimpleNamespace(graph=WGraph(cross, sides=(a, b)), a=frozenset(a), b=frozenset(b))


def plain_edge_subsample(H, p, rng):
    """Reference subsample: kept edges listed one by one, sides cut down to
    the touched vertices; returns (graph, kept_edges, dropped_vertices)."""
    if not 0 < p <= 1:
        raise ValueError("need 0 < p <= 1")
    rng = np.random.default_rng(rng)
    keep = rng.random(H.m) < p
    edges = [(u, v, w) for (u, v), w, k in zip(H.edges, H.weights, keep) if k]
    if not edges:
        raise EmptyResult("no edge survived the subsample")
    sides = None
    if H.sides is not None:
        touched = {x for u, v, _ in edges for x in (u, v)}
        sides = (H.sides[0] & touched, H.sides[1] & touched)
    graph = WGraph(edges, sides=sides)
    return SimpleNamespace(
        graph=graph, kept_edges=len(edges), dropped_vertices=H.n - graph.n
    )


def mask_edge_subgraph(G, keep, sides=None):
    """Reference subgraph on the columns where the bool mask keep holds:
    present vertices found by counting endpoints, sides cut down to them."""
    ends = G.ends[:, keep]
    present = np.bincount(ends.ravel(), minlength=G.n) > 0
    if sides is None and G._left is not None:
        sides = (G._left, ~G._left)
    if sides is not None:
        sides = (sides[0][present], sides[1][present])
    return WGraph.from_arrays(
        tuple(itertools.compress(G.vertices, present)),
        (np.cumsum(present) - 1)[ends],
        G.weights[keep],
        sides=sides,
    )


def plain_near_uniform_r(G):
    """Reference near-uniformity ratio, weight by weight."""
    r = 1.0
    for w in G.weights:
        r = max(r, w * G.m, 1.0 / (w * G.m))
    for w in vertex_masses(G).values():
        r = max(r, w * G.n, 1.0 / (w * G.n))
    return r


def plain_one_trial(G, p_split, p_edge, eps, seed_pair):
    """Reference trial: per-vertex cross masses summed over incident edges."""
    try:
        sample = plain_bipartite_vertex_split(G, p_split, int(seed_pair[0]))
        sub = plain_edge_subsample(sample.graph, p_edge, int(seed_pair[1]))
    except (EmptySide, EmptyResult):
        return None
    lam_split = float(bipartite_lambda(sample.graph))
    lam_edge = float(bipartite_lambda(sub.graph))

    nu = vertex_masses(G)
    mass_a = sum(nu[v] for v in sorted(sample.a))
    mass_b = sum(nu[v] for v in sorted(sample.b))
    side_ok = (
        abs(mass_a - p_split) <= eps * p_split
        and abs(mass_b - p_split) <= eps * p_split
    )
    vertex_ok = True
    for v in sample.a:
        total = 2.0 * nu[v]
        into_b = sum(G.weights[i] for nbr, i in incident(G, v) if nbr in sample.b)
        if abs(into_b - p_split * total) >= eps * p_split * total:
            vertex_ok = False
            break
    return lam_split, lam_edge, side_ok, vertex_ok


def plain_subgroup_closure(group, seeds):
    """Reference closure: BFS under multiplication by seeds and inverses."""
    closure = {0}
    frontier = [0]
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if s not in closure:
            closure.add(s)
            frontier.append(s)
    gens = list(dict.fromkeys(seeds + [group.inv(s) for s in seeds]))
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return tuple(sorted(closure))


def plain_normal_subgroups(group, seed_size=3):
    """Reference normal subgroups: plain closures of small seed sets, kept
    when every scalar conjugate g x g^-1 stays inside."""
    found = {(0,)}
    for size in range(1, seed_size + 1):
        for seeds in itertools.combinations(range(1, group.order), size):
            found.add(plain_subgroup_closure(group, seeds))
    return [
        sub for sub in sorted(found, key=lambda s: (len(s), s))
        if all(group.mul(group.mul(g, x), group.inv(g)) in sub
               for g in group.elements for x in sub)
    ]


def plain_quotient_group(group, normal_elems):
    """Reference quotient of a normal subgroup: cosets as frozensets,
    numbered by their least element; returns (mul table, projection)."""
    cosets = {frozenset(group.mul(g, x) for x in normal_elems) for g in group.elements}
    cosets = sorted(cosets, key=min)
    proj = np.zeros(group.order, dtype=np.int32)
    for cid, coset in enumerate(cosets):
        proj[sorted(coset)] = cid
    reps = [min(c) for c in cosets]
    mul = np.array([[proj[group.mul(a, b)] for b in reps] for a in reps])
    return mul, proj


def plain_class_combos(classes, max_size):
    """Reference enumeration: every combination of classes, by count, then
    filtered by size.  No set of more than max_size classes fits."""
    for k in range(1, min(len(classes), max_size) + 1):
        for picked in itertools.combinations(classes, k):
            elems = tuple(sorted(e for cls in picked for e in cls))
            if len(elems) <= max_size:
                yield elems


def plain_score_genset(group, elems, d):
    """Reference score: build the whole Cayley clique complex and run
    is_hdx over all of its links; None when the complex is impure."""
    try:
        cayley = cayley_clique_complex(group, elems, d)
    except (NotPure, NotSymmetricGenSet):
        return None
    report = is_hdx(cayley.complex, 1.0, mode="two_sided", include_empty_face=False)
    return float(report.worst_value)


def plain_identity_cliques(group, gens, d):
    """Reference clique search: the d-sets of generators spanning a
    (d+1)-clique with the identity, pair by pair; NotPure (with a
    witnessing edge) if some generator is in none."""
    gset = set(gens)
    base = [c for c in itertools.combinations(gens, d) if all(
        group.mul(group.inv(a), b) in gset for a, b in itertools.combinations(c, 2))]
    missing = gset - {s for combo in base for s in combo}
    if missing:
        s = min(missing)
        raise NotPure(
            f"Cayley edge (0, {s}) lies in no {d + 1}-clique", witness=(0, s)
        )
    return base


def plain_identity_star_lambda(group, gens, d):
    """Reference star score: build the star of the identity as a complex
    and take the worst two-sided spectrum over the link skeletons of its
    faces through 0 of dimension 0..d-2."""
    star = build_complex(d, [(0,) + b for b in plain_identity_cliques(group, gens, d)])
    return max(
        adjacency_spectrum(star.link_skeleton(s)).two_sided
        for k in range(d - 1)
        for s in star.faces(k)
        if s[0] == 0
    )


def plain_automorphism_rows(group):
    """Reference automorphism table, as a set of tuples: each conjugation
    x -> g x g^-1 one element at a time, and for an abelian group each
    power map x -> x^u, u coprime to the order, by repeated products."""
    n = group.order
    if not is_abelian(group):
        return {tuple(group.mul(group.mul(g, x), group.inv(g)) for x in range(n))
                for g in range(n)}
    rows = set()
    for u in range(1, n + 1):
        if math.gcd(u, n) == 1:
            row = []
            for x in range(n):
                p = 0
                for _ in range(u):
                    p = group.mul(p, x)
                row.append(p)
            rows.add(tuple(row))
    return rows


def plain_orbit(table, elems):
    """The sorted images of a set under each row of an automorphism table."""
    return {tuple(sorted(int(row[e]) for e in elems)) for row in table}


def plain_scan_gensets(group, d, eta_target=None, max_size=8, counts=None):
    """Reference scan: the per-candidate loop, one plain minimum over the
    automorphism table's rows, one plain closure and one
    plain_identity_star_lambda call per orbit, in scan_gensets' order."""
    tally = dict.fromkeys(("enumerated", "not_generating", "duplicate", "impure",
                           "scored"), 0)
    scored = []
    seen = set()
    table = groups_mod.automorphism_table(group)
    classes = groups_mod._inverse_pair_classes(group)
    for elems in plain_class_combos(classes, max_size):
        tally["enumerated"] += 1
        orbit = plain_orbit(table, elems)
        form = min(orbit)
        if form in seen:
            tally["duplicate"] += 1
            continue
        seen.add(form)
        if len(plain_subgroup_closure(group, form)) != group.order:
            tally["not_generating"] += 1
            continue
        try:
            scored.append((form, plain_identity_star_lambda(group, form, d), len(orbit)))
        except NotPure:
            tally["impure"] += 1
    tally["scored"] = len(scored)
    if counts is not None:
        counts.update(tally)
    return groups_mod._tie_stable(scored, eta_target)


def plain_pruned_measure(pruner, Y, f):
    """Reference pruned measure: every permutation of every top face of Y
    and of the identity link walked in Python, fiber masses in a dict keyed
    by pattern tuple."""
    d = Y.dim
    c_e = pruner.cayley.complex.link((0,))
    pattern_prob = {}
    for face, w in zip(c_e.top_faces, c_e.weights):
        share = w / math.factorial(d)
        for perm in itertools.permutations(face):
            pattern_prob[perm] = share
    labels = label_dict(pruner.X, pruner.s_elems[f])
    fiber_mass = {}
    contributions = []
    fact = math.factorial(d + 1)
    for i, (face, w) in enumerate(zip(Y.top_faces, Y.weights)):
        for perm in itertools.permutations(face):
            pat = tuple(plain_directed_label(pruner.group, labels, perm[0], v)
                        for v in perm[1:])
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


def plain_measure_ratio_audit(pruner, Y, f, sigma):
    """Reference measure ratio at one face: Y's link skeleton built alone,
    vertex measures looked up one by one and edge weights through a dict."""
    sg = pruner.satisfaction_graph(sigma, f)
    if sg.graph is None:
        raise Unmeasurable(f"satisfaction graph at {sigma!r} has no edges")
    yskel = Y.link_skeleton(sigma)
    bound = float(pruner.config.r) ** (15 * pruner.d)

    same = (set(yskel.vertices) == set(sg.graph.vertices)
            and set(yskel.edges) == set(sg.graph.edges))
    worst, witness = 1.0, ()
    if same:
        ynu, gnu = vertex_masses(yskel), vertex_masses(sg.graph)
        for v in yskel.vertices:
            a, b = ynu[v], gnu[v]
            ratio = max(a / b, b / a)
            if ratio > worst:
                worst, witness = ratio, ("vertex", v)
        gw = {e: w for e, w in zip(sg.graph.edges, sg.graph.weights)}
        for e, w in zip(yskel.edges, yskel.weights):
            ratio = max(w / gw[e], gw[e] / w)
            if ratio > worst:
                worst, witness = ratio, ("edge", e)
    return RatioReport(tuple(sorted(sigma)), float(worst), bound, witness, same)


def plain_path_argument(X, C, coloring, y_edges):
    """Reference descent: a dict BFS per target color, neighbor sets from
    X.faces(1), and each step's candidates tested as sorted tuples.  The
    edges are walked in sorted order, so that the first failing edge is
    the witness (the original walked them in set order)."""
    cskel = C.one_skeleton()
    dist = {}
    for src in cskel.vertices:
        seen = {src: 0}
        queue = [src]
        while queue:
            x = queue.pop(0)
            for nb in neighbors(cskel, x):
                if nb not in seen:
                    seen[nb] = seen[x] + 1
                    queue.append(nb)
        dist[src] = seen
    xskel_edges = set(X.faces(1))
    nbrs = {v: set() for v in X.vertices}
    for u, v in xskel_edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    y_edge_set = set(y_edges)

    for u, v in sorted(xskel_edges):
        if (u, v) in y_edge_set:
            continue
        cur, steps = u, 0
        ok = False
        while steps <= len(X.vertices):
            if tuple(sorted((cur, v))) in y_edge_set:
                ok = True
                break
            cu, cv = coloring[cur], coloring[v]
            if cv not in dist.get(cu, {}):
                break
            gap = dist[cu][cv]
            nxt, best = None, np.inf
            for cand in sorted(nbrs[cur] & nbrs[v]):
                if tuple(sorted((cur, cand))) not in y_edge_set:
                    continue
                score = dist[coloring[cand]].get(cv, np.inf)
                if (gap > 0 and score < min(gap, best)) or (
                    gap == 0 and score < best
                ):
                    nxt, best = cand, score
            if nxt is None:
                break
            cur, steps = nxt, steps + 1
        if not ok:
            return False, (u, v)
    return True, None


def same_measure(a, b):
    """Pruned measures with weights equal bit for bit and equal patterns."""
    return a.weights.tobytes() == b.weights.tobytes() and a.patterns == b.patterns


def checked(fast, plain, same, *args):
    """fast(*args), asserting that plain(*args) returns a result equal under
    same, or raises the same exception type, message and witness; the fast
    path's exception is re-raised."""
    try:
        want = plain(*args)
    except Exception as exc:
        want = exc
    try:
        got = fast(*args)
    except Exception as exc:
        assert type(exc) is type(want), (exc, want)
        assert str(exc) == str(want)
        assert getattr(exc, "witness", None) == getattr(want, "witness", None)
        raise
    assert not isinstance(want, Exception), f"plain raised {want!r}"
    assert same(got, want)
    return got


# --- plain mixing references: the bipartite exact enumerator apart from
# the general one, and the sampled draws in two branches ---


def _plain_mask_vertices(mask, items):
    return tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def plain_eml_exact_bipartite(G, limit):
    """Reference exact mixing of a bipartite graph: S over the subsets of
    the left side, T over those of the right, with side measures."""
    left = sorted(G.sides[0])
    right = sorted(G.sides[1])
    if len(left) > limit or len(right) > limit:
        raise TooLargeForExact(
            f"sides {len(left)}x{len(right)} exceed the exact limit {limit}"
        )
    lmass, rmass, a, b = _side_arrays(G)
    W = np.zeros((len(left), len(right)))
    W[a, b] = G.weights
    t_sums = _subset_sums(rmass)
    best = (-1.0, None, None)
    best_ratio = (-1.0, None, None)
    pairs = 0
    for smask in range(1, 1 << len(left)):
        srows = [i for i in range(len(left)) if smask >> i & 1]
        nu_s = lmass[srows].sum()
        cut = _subset_sums(W[srows].sum(axis=0))
        alpha, ratio = _pair_scores(cut[1:], nu_s, t_sums[1:])
        pairs += len(alpha)
        i = int(np.argmax(alpha))
        if alpha[i] > best[0]:
            best = (float(alpha[i]), smask, i + 1)
        j = int(np.argmax(ratio))
        if ratio[j] > best_ratio[0]:
            best_ratio = (float(ratio[j]), smask, j + 1)
    wit = (_plain_mask_vertices(best[1], left), _plain_mask_vertices(best[2], right))
    rwit = (_plain_mask_vertices(best_ratio[1], left),
            _plain_mask_vertices(best_ratio[2], right))
    return EmlReport(best[0], wit, best_ratio[0], rwit, True, pairs)


def plain_eml_exact(G, limit=14):
    """Reference exact mixing: a bipartite graph goes to
    plain_eml_exact_bipartite; otherwise S ranges over the proper subsets
    of the vertices and T over the subsets of S's complement, with the
    vertex measure and half the cut."""
    if G.sides is not None:
        return plain_eml_exact_bipartite(G, limit)
    verts = list(G.vertices)
    n = len(verts)
    if n > limit:
        raise TooLargeForExact(f"{n} vertices exceed the exact limit {limit}")
    vmass = G.vertex_measures()
    W = np.zeros((n, n))
    iu, iv = G.ends
    W[iu, iv] = G.weights
    W[iv, iu] = G.weights
    best = (-1.0, None, None)
    best_ratio = (-1.0, None, None)
    pairs = 0
    for smask in range(1, (1 << n) - 1):
        srows = [i for i in range(n) if smask >> i & 1]
        comp = [i for i in range(n) if not smask >> i & 1]
        nu_s = vmass[srows].sum()
        cut = 0.5 * _subset_sums(W[np.ix_(srows, comp)].sum(axis=0))
        t_sums = _subset_sums(vmass[comp])
        alpha, ratio = _pair_scores(cut[1:], nu_s, t_sums[1:])
        pairs += len(alpha)
        i = int(np.argmax(alpha))
        if alpha[i] > best[0]:
            best = (float(alpha[i]), smask, (comp, i + 1))
        j = int(np.argmax(ratio))
        if ratio[j] > best_ratio[0]:
            best_ratio = (float(ratio[j]), smask, (comp, j + 1))

    def decode(entry):
        smask, (comp, tmask) = entry
        s = _plain_mask_vertices(smask, verts)
        t = tuple(verts[comp[i]] for i in range(len(comp)) if tmask >> i & 1)
        return s, t

    return EmlReport(
        best[0], decode(best[1:]), best_ratio[0], decode(best_ratio[1:]), True, pairs
    )


def plain_eml_sampled(G, samples, rng):
    """Reference sampled mixing: each draw puts every pool vertex in S, then
    in T, with probability 1/2, drawn in two branches, one per graph kind."""
    rng = np.random.default_rng(rng)
    best = (-1.0, ((), ()))
    best_ratio = (-1.0, ((), ()))
    n, (u, v) = G.n, G.ends
    mass = G.vertex_measures()
    if G.sides is not None:
        mass = 2.0 * mass  # the side measures
        left, right = np.flatnonzero(G._left), np.flatnonzero(~G._left)
    for _ in range(samples):
        in_s, in_t = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        if G.sides is not None:
            in_s[left] = [rng.random() < 0.5 for _ in left]
            in_t[right] = [rng.random() < 0.5 for _ in right]
        else:
            in_s[:] = [rng.random() < 0.5 for _ in range(n)]
            in_t[:] = [not x and rng.random() < 0.5 for x in in_s]
        if not in_s.any() or not in_t.any():
            continue
        nu_s, nu_t = (float(np.cumsum(mass[m])[-1]) for m in (in_s, in_t))
        cross = (in_s[u] & in_t[v]) | (in_s[v] & in_t[u])
        cut = float(np.cumsum(G.weights[cross])[-1]) if cross.any() else 0.0
        if G.sides is None:
            cut *= 0.5
        diff = abs(cut - nu_s * nu_t)
        alpha = diff / math.sqrt(nu_s * nu_t)
        if alpha > best[0]:
            best = (alpha, (in_s, in_t))
        denom = nu_s * nu_t * (1 - nu_s) * (1 - nu_t)
        ratio = diff / math.sqrt(denom) if denom > 0 else 0.0  # as the exact scan
        if ratio > best_ratio[0]:
            best_ratio = (ratio, (in_s, in_t))
    if best[0] < 0:  # no draw gave both sides a vertex
        best = best_ratio = (0.0, ((), ()))

    def decode(masks):
        return tuple(tuple(itertools.compress(G.vertices, m)) for m in masks)

    return EmlReport(best[0], decode(best[1]), best_ratio[0], decode(best_ratio[1]),
                     False, samples)
