"""Group-labeled covers of simplicial complexes.

An edge labeling into a finite group that satisfies the triangle condition
on every 2-face determines a cover: vertices are (base vertex, element)
pairs and top faces lift base top faces consistently with the labels.
Cycle label-products at a fixed vertex generate the holonomy subgroup,
which controls how many components the cover splits into.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import PureComplex, build_complex
from .errors import Disconnected, NotACocycle, NotAnEdge

TOL = 1e-9


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


def directed_label(group, labeling, u, v):
    """Label of the oriented edge (u, v): f(uv) if u < v, else its inverse."""
    key = edge_key(u, v)
    try:
        g = labeling[key]
    except KeyError:
        raise NotAnEdge(f"{key!r} carries no label") from None
    return g if u < v else group.inv(g)


def coboundary_labeling(X, group, potential):
    """f(uv) = potential(u)^-1 * potential(v) on every edge; always a cocycle."""
    out = {}
    for u, v in X.faces(1):
        out[(u, v)] = group.mul(group.inv(potential[u]), potential[v])
    return out


def is_cocycle(X, labeling, group):
    """Check the triangle condition on all 2-faces; returns (ok, witness)."""
    if X.dim < 2:
        return True, None
    for i, j, k in X.faces(2):
        lhs = group.mul(labeling[(i, j)], labeling[(j, k)])
        if lhs != labeling[(i, k)]:
            return False, (i, j, k)
    return True, None


@dataclass(frozen=True)
class CoverComplex:
    """The lifted complex together with its covering data."""

    complex: PureComplex
    base: PureComplex
    group: object
    labeling: dict
    legend: dict  # lifted vertex id -> (base vertex, group element)

    def phi(self, vid):
        return self.legend[vid][0]

    def phi_face(self, face):
        return tuple(sorted(self.legend[v][0] for v in face))

    def fiber(self, base_vertex):
        return tuple(
            sorted(v for v, (b, _) in self.legend.items() if b == base_vertex)
        )


def build_cover(X, labeling, group):
    """Construct the cover of X determined by a cocycle labeling.

    Lifted top faces fix the element at the least vertex and propagate
    along directed labels; each carries 1/|group| of its base weight.
    """
    if X.dim < 2:
        raise NotACocycle("covers are built over complexes of dimension >= 2")
    ok, witness = is_cocycle(X, labeling, group)
    if not ok:
        raise NotACocycle(f"triangle condition fails at {witness}", witness=witness)
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
            0 if v == v0 else directed_label(group, labeling, v0, v) for v in face
        ]
        share = w / n_g
        for g in range(n_g):
            row = group.mul_table[g]
            tops.append(tuple(sorted(vid(v, int(row[s])) for v, s in zip(face, shifts))))
            weights.append(share)
    cover = build_complex(X.dim, tops, weights)
    return CoverComplex(cover, X, group, dict(labeling), legend)


def holonomy_subgroup(X, labeling, group, v, order="bfs"):
    """Subgroup of cycle label-products at v, via a spanning tree.

    Tree paths assign each vertex a potential; every non-tree edge then
    contributes one generator.  The traversal order only changes the
    generators, not the subgroup (checked by tests).
    """
    from .groups import subgroup_closure

    skel = X.one_skeleton()
    if not skel.is_connected():
        raise Disconnected("holonomy needs a connected 1-skeleton")
    pot = {v: 0}
    frontier = [v]
    tree_edges = set()
    while frontier:
        x = frontier.pop(0 if order == "bfs" else -1)
        for y in sorted(skel.neighbors(x)):
            if y not in pot:
                pot[y] = group.mul(pot[x], directed_label(group, labeling, x, y))
                tree_edges.add(edge_key(x, y))
                frontier.append(y)
    gens = set()
    for u, w in skel.edges:
        if (u, w) in tree_edges:
            continue
        g = group.mul(
            group.mul(pot[u], directed_label(group, labeling, u, w)),
            group.inv(pot[w]),
        )
        gens.add(g)
    return subgroup_closure(group, gens)


def connected_components(X):
    """Component count and a vertex -> component-id labeling of a complex."""
    if X.dim >= 1:
        skel = X.one_skeleton()
        comps = skel.connected_components()
    else:
        comps = [{v} for v in X.vertices]
    comps = sorted(comps, key=min)
    labels = {}
    for cid, comp in enumerate(comps):
        for v in comp:
            labels[v] = cid
    return len(comps), labels


@dataclass(frozen=True)
class ComponentReport:
    count: int
    expected_index: int
    matches: bool
    labels: dict


def cover_components(cover):
    """Components of a cover, checked against the holonomy index."""
    count, labels = connected_components(cover.complex)
    base_vertex = cover.base.vertices[0]
    h = holonomy_subgroup(cover.base, cover.labeling, cover.group, base_vertex)
    index = cover.group.order // len(h)
    return ComponentReport(count, index, count == index, labels)


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    surjective: bool
    faces_checked: int
    violations: tuple  # (face, reason) pairs


def verify_cover(cover, tol=TOL):
    """Audit that the projection is a genuine cover of the base.

    Checks surjectivity on vertices and top faces, and for every nonempty
    lifted face that the projection restricts to a weighted isomorphism
    between its link and the link of its image.  Works level by level on
    the face indexes of both complexes: in a pure complex each (face, top
    face) pair names one top face of the face's link.
    """
    tilde, base = cover.complex, cover.base
    surj = set(cover.phi(v) for v in tilde.vertices) == set(base.vertices)

    # phi as base positions; an image outside the base gets a position past them
    pos = {v: i for i, v in enumerate(base.vertices)}
    phi = np.array(
        [pos.setdefault(cover.phi(v), len(pos)) for v in tilde.vertices],
        dtype=np.intp,
    )
    # the base top under each lifted top, -1 if its image is none
    top_img = base.face_index(np.sort(phi[tilde.top_positions()], axis=1))
    surj = surj and bool((top_img >= 0).all())
    surj = surj and len(np.unique(top_img)) == len(base.top_faces)

    violations = []
    checked = 0
    for k in range(tilde.dim + 1):
        n_faces, found = _level_violations(cover, k, phi, top_img, tol)
        checked += n_faces
        violations.extend(found)
    return CoverReport(
        ok=surj and not violations,
        surjective=surj,
        faces_checked=checked,
        violations=tuple(violations),
    )


_IMAGE, _NOT_INJECTIVE, _NO_MATCH, _WEIGHT = 1, 2, 3, 4
_FAULTS = {
    _IMAGE: "image is not a face",
    _NOT_INJECTIVE: "projection not injective on the link",
    _NO_MATCH: "link faces do not correspond",
}


def _level_violations(cover, k, phi, top_img, tol):
    """Face count and (face, reason) violations, in face order, of the
    k-dimensional lifted faces."""
    tilde, base = cover.complex, cover.base
    d = tilde.dim
    T = tilde.top_positions()
    lev, blev = tilde.level(k), base.level(k)
    rest_cols = lev.rest
    c = len(rest_cols)
    # pair p is (top face p // c, its face on column subset p % c); inv maps
    # pairs to faces, and a face's pairs come in coface order
    inv, binv = lev.pairs.ravel(), blev.pairs.ravel()
    faces = lev.rows
    nf = len(faces)
    img = base.face_index(np.sort(phi[faces], axis=1))
    reason = np.where(img < 0, _IMAGE, 0)
    if k < d:
        ok = img >= 0
        injective = _injective_on_links(inv, T[:, rest_cols].reshape(-1, d - k), phi)
        reason[ok & ~injective] = _NOT_INJECTIVE
        ok &= injective
        # each link face maps to a link face of the image, and onto them:
        # its lifted top maps to a base top, and the coface counts agree
        n_off = np.bincount(inv, weights=np.repeat(top_img < 0, c), minlength=nf)
        n_base = np.diff(blev.start)[np.maximum(img, 0)]
        match = (n_off == 0) & (np.diff(lev.start) == n_base)
        reason[ok & ~match] = _NO_MATCH
        ok &= match
        # normalized link weights, each sum taken in coface order
        tw = np.repeat(tilde.weights, c)
        ts = np.bincount(inv, weights=tw, minlength=nf)
        bs = np.bincount(binv, weights=np.repeat(base.weights, c))
        pair_ok = ok[inv]
        f = inv[pair_ok]
        bw = base.weights[np.repeat(top_img, c)[pair_ok]]
        bad = np.zeros(len(inv), dtype=bool)
        bad[pair_ok] = np.abs(tw[pair_ok] / ts[f] - bw / bs[img[f]]) > tol
        bad_face, first_bad = np.unique(inv[bad], return_index=True)
        reason[bad_face] = _WEIGHT
        bad_pair = dict(zip(bad_face.tolist(), np.flatnonzero(bad)[first_bad].tolist()))
    found = []
    for f in np.flatnonzero(reason).tolist():
        face = tuple(tilde.vertices[x] for x in faces[f])
        if reason[f] == _WEIGHT:
            p = bad_pair[f]
            lifted = (tilde.vertices[x] for x in T[p // c, rest_cols[p % c]])
            at = tuple(sorted(cover.phi(v) for v in lifted))
            found.append((face, f"link weight mismatch at {at}"))
        else:
            found.append((face, _FAULTS[int(reason[f])]))
    return nf, found


def _injective_on_links(inv, rest, phi):
    """Per face, whether phi is injective on its link's vertices: the
    (face, vertex) pairs and the (face, image) pairs are equally many."""
    nf = int(inv.max()) + 1
    n, nc = int(rest.max()) + 1, int(phi.max()) + 1
    link = np.unique(inv[:, None] * n + rest)
    face = link // n
    n_img = np.bincount(np.unique(face * nc + phi[link % n]) // nc, minlength=nf)
    return np.bincount(face, minlength=nf) == n_img


def cover_to_dict(cover):
    """JSON form: base and group references plus lifted faces as pairs."""
    from .complexes import complex_to_dict
    from .groups import group_to_dict

    return {
        "base": complex_to_dict(cover.base),
        "group": group_to_dict(cover.group),
        "faces": [
            [list(cover.legend[v]) for v in face]
            for face in cover.complex.top_faces
        ],
        "weights": [float(w) for w in cover.complex.weights],
    }


def push_cocycle(X, labeling, group, quotient):
    """Project a cocycle through a quotient map; the image is again a cocycle."""
    ok, witness = is_cocycle(X, labeling, group)
    if not ok:
        raise NotACocycle(f"input fails the triangle condition at {witness}",
                          witness=witness)
    return {e: quotient.project(g) for e, g in labeling.items()}
