"""Group-labeled covers of simplicial complexes.

An edge labeling into a finite group that satisfies the triangle condition
on every 2-face determines a cover: vertices are (base vertex, element)
pairs and top faces lift base top faces consistently with the labels.
Cycle label-products at a fixed vertex generate the holonomy subgroup,
which controls how many components the cover splits into.

A labeling is an int array of group elements, one per edge, aligned with
X.faces(1); the edge from u to v carries f(uv) if u < v, else its inverse.
Base, group and labeling define the cover: they are all cover_to_dict writes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import PureComplex, _from_positions, complex_to_dict
from .errors import BadLabeling, Disconnected, NotACocycle
from .graphs import component_labels
from .groups import group_to_dict, subgroup_closure

TOL = 1e-9


def _elements(values, n, group, what):
    """values as an int array of n group elements, or BadLabeling."""
    values = np.asarray(values)
    if values.shape != (n,) or values.dtype.kind not in "iu":
        raise BadLabeling(f"{what} must be {n} integer group elements, got "
                          f"shape {values.shape} and dtype {values.dtype}")
    if n and not 0 <= values.min() <= values.max() < group.order:
        raise BadLabeling(f"{what} holds an element outside 0..{group.order - 1}")
    return values


def is_cocycle(X, labels, group):
    """Check the triangle condition on all 2-faces; returns (ok, witness),
    the witness being the first failing 2-face in faces(2) order."""
    labels = _elements(labels, X.n_faces(1), group, "a labeling")
    if X.dim < 2:
        return True, None
    rows = X.level(2).rows
    ij, jk, ik = (labels[X.face_index(rows[:, c])] for c in ([0, 1], [1, 2], [0, 2]))
    bad = np.flatnonzero(group.mul_table[ij, jk] != ik)
    if len(bad):
        return False, tuple(X.vertices[x] for x in rows[bad[0]])
    return True, None


def _checked_cocycle(X, labels, group, fault):
    ok, witness = is_cocycle(X, labels, group)
    if not ok:
        raise NotACocycle(f"{fault} at {witness}", witness=witness)
    return np.asarray(labels)


@dataclass(frozen=True)
class CoverComplex:
    """The lifted complex together with its covering data."""

    complex: PureComplex
    base: PureComplex
    group: object
    labeling: np.ndarray  # one element per edge of base, aligned with faces(1)
    legend: dict  # lifted vertex id -> (base vertex, group element)

    def phi(self, vid):
        return self.legend[vid][0]


def build_cover(X, labels, group):
    """Construct the cover of X determined by a cocycle labeling.

    Lifted vertex p * |group| + g is (vertex at position p, element g).  The
    lift of a top face at g puts g at its least vertex and g f(v0 v) at each
    other vertex v; each lift carries 1/|group| of its base weight.
    """
    if X.dim < 2:
        raise NotACocycle("covers are built over complexes of dimension >= 2")
    labels = _checked_cocycle(X, labels, group, "triangle condition fails")
    n_g = group.order
    T = X.top_positions()
    # the edges from column 0 to columns 1..d come first among the pairs
    shift = np.zeros_like(T)
    shift[:, 1:] = labels[X.level(1).pairs[:, : X.dim]]
    lifted = T[:, None, :] * n_g + np.moveaxis(group.mul_table[:, shift], 0, 1)
    legend = {
        p * n_g + g: (v, g) for p, v in enumerate(X.vertices) for g in range(n_g)
    }
    cover = _from_positions(X.dim, range(len(X.vertices) * n_g),
                            lifted.reshape(-1, X.dim + 1), np.repeat(X.weights / n_g, n_g))
    return CoverComplex(cover, X, group, labels, legend)


def holonomy_subgroup(X, labels, group, v):
    """Subgroup of cycle label-products at v, via a spanning tree.

    Potentials spread from v over the edges, one tree layer at a time; every
    edge uw then contributes pot(u) f(uw) pot(w)^-1, which is the identity
    on tree edges.  Which tree is taken changes the generators only.
    """
    labels = _elements(labels, X.n_faces(1), group, "a labeling")
    mul, inv = group.mul_table, group.inv_table
    u, w = X.level(1).rows.T
    # each edge both ways, with the element it carries that way
    tail, head = np.concatenate([u, w]), np.concatenate([w, u])
    step_el = np.concatenate([labels, inv[labels]])
    pot = np.full(len(X.vertices), -1, dtype=np.intp)
    pot[X.positions((v,))[0]] = 0
    while (step := (pot[tail] >= 0) & (pot[head] < 0)).any():
        pot[head[step]] = mul[pot[tail[step]], step_el[step]]
    if (pot < 0).any():
        raise Disconnected("holonomy needs a connected 1-skeleton")
    gens = mul[mul[pot[u], labels], inv[pot[w]]]
    return subgroup_closure(group, np.unique(gens))


def connected_components(X):
    """Component count and a vertex -> component-id labeling of a complex,
    ids ordered by least vertex."""
    ends = X.level(1).rows.T if X.dim >= 1 else np.empty((2, 0), dtype=np.intp)
    comp = component_labels(len(X.vertices), ends)
    return int(comp.max()) + 1, dict(zip(X.vertices, comp.tolist()))


@dataclass(frozen=True)
class ComponentReport:
    count: int
    expected_index: int
    matches: bool
    holonomy: tuple  # the holonomy subgroup at the base's first vertex


def cover_components(cover):
    """Components of a cover, checked against the holonomy index."""
    count, _ = connected_components(cover.complex)
    base_vertex = cover.base.vertices[0]
    h = holonomy_subgroup(cover.base, cover.labeling, cover.group, base_vertex)
    index = cover.group.order // len(h)
    return ComponentReport(count, index, count == index, h)


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    surjective: bool
    faces_checked: int
    violations: tuple  # (face, reason) pairs


def verify_cover(cover):
    """Audit that the projection is a genuine cover of the base.

    Checks surjectivity on vertices and top faces, and for every nonempty
    lifted face that the projection restricts to a weighted isomorphism
    between its link and the link of its image.  Works level by level on
    the face indexes of both complexes: in a pure complex each (face, top
    face) pair names one top face of the face's link.
    """
    tilde, base = cover.complex, cover.base
    # phi as base positions; an image outside the base gets a position past them
    pos = {v: i for i, v in enumerate(base.vertices)}
    phi = np.array(
        [pos.setdefault(cover.phi(v), len(pos)) for v in tilde.vertices],
        dtype=np.intp,
    )
    # the base top under each lifted top, -1 if its image is none
    top_img = base.face_index(np.sort(phi[tilde.top_positions()], axis=1))
    # onto: every lifted top over a base top, every base top (so vertex) hit
    surj = bool((top_img >= 0).all()) and len(np.unique(top_img)) == len(base.weights)

    violations = []
    checked = 0
    for k in range(tilde.dim + 1):
        n_faces, found = _level_violations(cover, k, phi, top_img)
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


def _level_violations(cover, k, phi, top_img):
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
        bad[pair_ok] = np.abs(tw[pair_ok] / ts[f] - bw / bs[img[f]]) > TOL
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
    """Per face, whether phi is injective on its link's vertices: sorted,
    no two adjacent (face, image, vertex) codes share a face and an image
    but not a vertex."""
    n, nc = len(phi), int(phi.max()) + 1
    # these arrays hold every (face, link vertex) pair: all but the sort work in place
    code = (phi * n + np.arange(n))[rest]
    code += inv[:, None] * (nc * n)
    code = np.sort(code, axis=None)
    clash = code[1:] != code[:-1]
    code //= n
    clash &= code[1:] == code[:-1]
    return np.bincount(code[1:][clash] // nc, minlength=int(inv.max()) + 1) == 0


def cover_to_dict(cover):
    """JSON form: base, group and cocycle, one [u, v, g] per base edge in
    faces(1) order, g carried from u to v; build_cover rebuilds the rest."""
    return {
        "base": complex_to_dict(cover.base),
        "group": group_to_dict(cover.group),
        "cocycle": [[u, v, g] for (u, v), g in zip(cover.base.faces(1), cover.labeling.tolist())],
    }


def push_cocycle(X, labels, group, quotient):
    """Project a cocycle through a quotient map; the image is again a cocycle."""
    return quotient.projection[_checked_cocycle(X, labels, group, "input fails the triangle condition")]
