"""Pure weighted simplicial complexes and their derived measures.

A complex is stored by its sorted vertex labels, its top faces as rows of
vertex positions, and a probability measure on them.  Lower faces are
implicit (every subset of a top face is a face) and get the induced measure

    Prob{s} = binom(d+1, |s|)^{-1} * sum of top weights over cofaces of s,

which makes the total mass at every level equal to one.  An oriented
face with k+1 vertices has measure Prob{s} / (k+1)!.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadLevel,
    BadMeasure,
    BadParameter,
    DuplicateFace,
    NonPure,
    NotAFace,
    TooSmallT,
    TopFace,
    ZeroMeasure,
    check_integer,
)
from .graphs import WGraph, label_positions

TOL = 1e-9
_LINK_BLOCK = 32  # faces per block of link_blocks, which bounds its temporaries


def _canon(face):
    t = tuple(face)
    if len(set(t)) != len(t):
        raise NonPure(f"face {t!r} has repeated vertices")
    return tuple(sorted(t))


class FaceLevel(NamedTuple):
    """The k-faces of a complex, indexed off its top-face array.

    A face is a sorted row of vertex positions.  Its code is the index of
    its first k vertices among the (k-1)-faces, times the vertex count,
    plus the position of its last vertex; codes sort like the rows, and
    stay below (number of (k-1)-faces) * (number of vertices).
    """

    rows: np.ndarray  # (faces, k+1) vertex positions, rows in lexicographic order
    codes: np.ndarray  # int64 code of each row, ascending
    pairs: np.ndarray  # (tops, subsets) face of each top face's column subset
    rest: np.ndarray  # (subsets, d-k) the columns outside each column subset
    cof: np.ndarray  # top faces containing each face, grouped by face, ascending
    sub: np.ndarray  # the column subset of each entry of cof
    start: np.ndarray  # face f's entries are cof[start[f]:start[f + 1]]


class PureComplex:
    """A pure d-dimensional complex with a measure on its top faces.

    Instances are immutable after construction.  Lower faces are indexed
    level by level on first use (see :class:`FaceLevel`).
    """

    __slots__ = ("dim", "vertices", "weights", "_tops", "_faces", "_pos", "_levels",
                 "_links")

    def __init__(self, dim, vertices, tops, weights):
        """Use :func:`build_complex` instead of calling this directly."""
        self.dim = dim
        self.vertices = vertices
        self.weights = weights
        self._tops = tops
        self._faces = {}
        self._pos = {}
        self._levels = {}
        self._links = {}

    # --- structure ---

    @property
    def top_faces(self):
        """faces(dim): the top faces as sorted tuples of vertex labels, built
        on first read; row i of ``top_positions()`` is top face i."""
        return self.faces(self.dim)

    def faces(self, k):
        """Sorted tuple of the k-faces as label tuples; k = -1 gives ((),)."""
        if k not in self._faces:
            self._faces[k] = tuple(map(tuple, self.label_rows(k)))
        return self._faces[k]

    def label_rows(self, k):
        """The k-faces as new lists of vertex labels (a tuple label stays a
        tuple) in faces(k) order, from one gather into an array of labels."""
        rows = self._tops if k == self.dim else self.level(k).rows
        return np.fromiter(self.vertices, object, len(self.vertices))[rows].tolist()

    def face_pos(self, k):
        """The index in faces(k) of each k-face, a dict keyed by the face's
        sorted label tuple; built on first use, for that level only."""
        pos = self._pos.get(k)
        if pos is None:
            pos = self._pos[k] = {s: i for i, s in enumerate(self.faces(k))}
        return pos

    def n_faces(self, k):
        return len(self.level(k).codes)

    def has_face(self, s):
        return self._find(_canon(s)) >= 0

    def top_positions(self):
        """The top faces as an int array of positions into ``vertices``.

        Row i is top face i; rows are increasing and in lexicographic
        order, because faces and vertices are both sorted.
        """
        return self._tops

    def level(self, k):
        """The index of the k-dimensional faces, built on first use."""
        if k < -1 or k > self.dim:
            raise BadLevel(f"no faces of dimension {k} in a {self.dim}-complex")
        if k in self._levels:
            return self._levels[k]
        T = self.top_positions()
        nt, d, n = len(T), self.dim, len(self.vertices)
        subsets = list(itertools.combinations(range(d + 1), k + 1))
        if k == -1:
            codes, pairs = np.zeros(1, dtype=np.int64), np.zeros(nt, dtype=np.intp)
            rows = np.empty((1, 0), dtype=np.intp)
        else:
            prev = self.level(k - 1)
            prefixes = list(itertools.combinations(range(d + 1), k))
            prefix = prev.pairs[:, [prefixes.index(s[:-1]) for s in subsets]]
            last = T[:, [s[-1] for s in subsets]]
            codes, pairs = np.unique(
                (prefix.astype(np.int64) * n + last).ravel(), return_inverse=True
            )
            rows = np.column_stack([prev.rows[codes // n], codes % n])
        c = len(subsets)
        # a stable sort of keys of at most 16 bits is a radix sort
        order = np.argsort(pairs.astype(np.min_scalar_type(len(codes))), kind="stable")
        rest = [[j for j in range(d + 1) if j not in s] for s in subsets]
        self._levels[k] = FaceLevel(
            rows=rows,
            codes=codes,
            pairs=pairs.reshape(nt, c),
            rest=np.array(rest, dtype=np.intp).reshape(c, d - k),
            cof=(cof := order // c),
            sub=order - cof * c,  # an int64 % costs over three times a //
            start=np.append(0, np.cumsum(np.bincount(pairs, minlength=len(codes)))),
        )
        return self._levels[k]

    def link_vertices(self, k):
        """The link vertices of every k-face (k < dim), indexed on first
        use: offsets (face f's entries are start[f]:start[f + 1]), each
        entry's position in ``vertices``, ascending within its face, and its
        mass, the weights of the face's cofaces through it summed in coface
        order.  The entries are the (k+1)-faces, each once per k-face it
        holds, and each mass is the coface sum of its (k+1)-face."""
        if k not in self._links:
            lev, up, n = self.level(k), self.level(k + 1), len(self.vertices)
            face = np.repeat(np.arange(len(up.codes)), np.diff(up.start))
            mass = np.bincount(face, weights=self.weights[up.cof], minlength=len(up.codes))
            # the k-face of each (k+1)-face less its column j, read off the
            # pairs of the (k+1)-face's first coface
            subs = list(itertools.combinations(range(self.dim + 1), k + 2))
            lows = list(itertools.combinations(range(self.dim + 1), k + 1))
            less = np.array([[lows.index(s[:j] + s[j + 1:]) for j in range(k + 2)]
                             for s in subs])
            first = up.start[:-1]
            faces = lev.pairs[up.cof[first][:, None], less[up.sub[first]]].T.ravel()
            verts = up.rows.T.ravel()
            order = np.argsort(faces * n + verts)
            start = np.searchsorted(faces[order], np.arange(len(lev.codes) + 1))
            self._links[k] = (start, verts[order], np.tile(mass, k + 2)[order])
        return self._links[k]

    def face_index(self, rows):
        """Index in faces(k) of each row of k+1 vertex positions, or -1.

        Rows must be increasing to name a face; a row with a repeated
        entry or a position outside ``vertices`` is no face and gets -1.
        """
        rows = np.asarray(rows, dtype=np.intp)
        n = len(self.vertices)
        ok = ((rows >= 0) & (rows < n)).all(axis=1)
        f = np.zeros(len(rows), dtype=np.int64)
        for j in range(rows.shape[1]):
            codes = self.level(j).codes
            code = f * n + np.where(ok, rows[:, j], 0)
            f = np.searchsorted(codes, code).clip(max=len(codes) - 1)
            ok &= codes[f] == code
        return np.where(ok, f, -1)

    def vertex_positions(self, labels):
        """The position in ``vertices`` of each entry of a label array, or -1
        where it is no vertex."""
        return label_positions(self.vertices, labels)

    def _find(self, s):
        """Index of the sorted face s in faces(len(s) - 1), or -1."""
        if len(s) > self.dim + 1:
            return -1
        return self.face_pos(len(s) - 1).get(s, -1)

    def _entries(self, s):
        """The level of face s, its index there, and the bounds of its
        entries in the level's cof and sub."""
        s = _canon(s)
        f = self._find(s)
        if f < 0:
            raise NotAFace(f"{s!r} is not a face")
        lev = self.level(len(s) - 1)
        return lev, f, lev.start[f], lev.start[f + 1]

    def positions(self, s):
        """The vertex positions of face s, in increasing order."""
        lev, f, _, _ = self._entries(s)
        return lev.rows[f]

    def cofaces(self, s):
        """Indices of the top faces containing s."""
        lev, _, lo, hi = self._entries(s)
        return lev.cof[lo:hi]

    def link_rows(self, s):
        """The cofaces of s, the vertex positions of s, and the cofaces'
        rows of vertex positions less the columns of s."""
        lev, f, lo, hi = self._entries(s)
        idx = lev.cof[lo:hi]
        rows = self.top_positions()[idx[:, None], lev.rest[lev.sub[lo:hi]]]
        return idx, lev.rows[f], rows

    # --- measures ---

    def face_measure(self, s):
        """Prob{s} under the sampling measure; the empty face has mass 1."""
        s = _canon(s)
        if s == ():
            return 1.0
        idx = self.cofaces(s)
        return float(self.weights[idx].sum()) / math.comb(self.dim + 1, len(s))

    # --- derived complexes ---

    def link(self, s):
        """The link of s with its induced, renormalized measure."""
        s = _canon(s)
        if s == ():
            return self
        idx, _, rows = self.link_rows(s)
        if len(s) == self.dim + 1:
            raise TopFace(f"{s!r} is a top face; its link is empty")
        return _from_positions(self.dim - len(s), self.vertices, rows, self.weights[idx])

    def link_skeleton(self, s):
        """The weighted 1-skeleton of link(s), read off the top faces by
        link_arrays; equals ``link(s).one_skeleton()`` up to the order of
        summation."""
        lev, f, _, _ = self._entries(s)
        k = self.dim - lev.rows.shape[1]  # dimension of the link
        if k < 0:
            raise TopFace(f"{_canon(s)!r} is a top face; its link is empty")
        if k == 0:
            raise BadLevel("a 0-dimensional complex has no 1-skeleton")
        verts, _, ends, mass = self._link_arrays(lev, f, f + 1)
        return WGraph.from_arrays(
            tuple(self.vertices[i] for i in verts.tolist()), ends, mass)

    def link_blocks(self, k):
        """link_arrays of the k-faces (k <= dim - 2), _LINK_BLOCK faces at
        a time in faces(k) order, each after the index of its first face;
        a face's rows are its cofaces less its columns, in coface order."""
        if k > self.dim - 2:
            raise BadLevel(f"links of {k}-faces of a {self.dim}-complex have no edges")
        lev = self.level(k)
        n = len(lev.codes)
        for lo in range(0, n, _LINK_BLOCK):
            yield lo, *self._link_arrays(lev, lo, min(lo + _LINK_BLOCK, n))

    def _link_arrays(self, lev, lo, hi):
        """link_arrays of faces lo..hi-1 of a level."""
        e0, e1 = lev.start[lo], lev.start[hi]
        idx = lev.cof[e0:e1]
        rows = self.top_positions()[idx[:, None], lev.rest[lev.sub[e0:e1]]]
        return link_arrays((lev.start[lo:hi + 1] - e0).tolist(), rows, self.weights[idx],
                           len(self.vertices))

    def one_skeleton(self):
        """The weighted graph on X(0) and X(1)."""
        return self.link_skeleton(())

    def restrict(self, top_indices, weights=None):
        """Sub-complex on a subset of top faces, with the given weights (by
        default the faces' own), normalized."""
        idx = np.asarray(top_indices, dtype=np.intp)
        return _from_positions(self.dim, self.vertices, self._tops[idx],
                               self.weights[idx] if weights is None else weights)

    def __repr__(self):
        return (
            f"PureComplex(dim={self.dim}, vertices={len(self.vertices)}, "
            f"tops={len(self.weights)})"
        )


def link_arrays(start, rows, w, n):
    """The 1-skeletons of the links of consecutive faces, whose link top
    faces are the increasing rows of positions below n, face f's being rows
    start[f]:start[f + 1], with weights w: each link vertex's position, by
    link and ascending; its link; each link edge's ends, sorted, as indices
    into those vertices; and its mass, the shares (weight over the link's
    pairwise weight sum) of the rows holding it, summed in row order, over
    C(k + 1, 2) for a k-dimensional link."""
    face = np.repeat(np.arange(len(start) - 1), np.diff(start))
    total = np.array([w[i:j].sum() for i, j in zip(start, start[1:])])
    keys, vert = np.unique(face[:, None] * n + rows, return_inverse=True)
    vert = vert.reshape(rows.shape)
    a, b = np.triu_indices(rows.shape[1], 1)
    nv = len(keys)
    edges, at = np.unique(vert[:, a] * nv + vert[:, b], return_inverse=True)
    mass = np.bincount(
        at.ravel(), weights=np.repeat(w / total[face], len(a)), minlength=len(edges)
    )
    return (keys % n, keys // n, np.stack([edges // nv, edges % nv]),
            mass / math.comb(rows.shape[1], 2))


def _from_positions(dim, labels, rows, weights=None):
    """The pure complex whose top faces are the rows of positions into the
    sorted sequence ``labels``, checked and normalized as build_complex
    describes; labels no kept row uses are dropped."""
    if not len(rows):
        raise ZeroMeasure("complex needs at least one top face")
    tops = np.sort(rows, axis=1)
    weights = np.ones(len(tops)) if weights is None else np.asarray(
        weights if isinstance(weights, np.ndarray) else list(weights), dtype=float)
    if len(weights) != len(tops):
        raise ValueError("weights length does not match faces")
    if not np.isfinite(weights).all():
        raise ValueError("non-finite face weight")
    if (weights < 0).any():
        raise ValueError("negative face weight")
    # stable, so equal rows keep input order; radix passes on 16-bit keys
    order = np.lexsort(tops.T[::-1].astype(np.min_scalar_type(len(labels))))
    tops, weights = tops[order], weights[order]
    repeats = (tops[1:] == tops[:-1]).all(axis=1)
    if repeats.any():
        first = order[1:][repeats].min()  # the first face, in input order, repeating one
        face = tuple(labels[p] for p in np.sort(rows[first]).tolist())
        raise DuplicateFace(f"face {face!r} appears twice")
    keep = weights > 0
    if not keep.any():
        raise ZeroMeasure("all top faces have zero weight")
    tops, weights = tops[keep], weights[keep]
    total = weights.sum()
    if not math.isfinite(total):
        raise ValueError("face weights overflow when summed")
    weights = weights / total
    if not abs(weights.sum() - 1.0) < 1e-12:
        raise BadMeasure(f"normalized face weights sum to {weights.sum()!r}, not 1")
    used = np.bincount(tops.ravel(), minlength=len(labels)) > 0
    if not used.all():
        tops = (np.cumsum(used) - 1)[tops]
        labels = list(itertools.compress(labels, used))
    return PureComplex(dim, tuple(labels), tops, weights)


def build_complex(dim, faces, weights=None):
    """Validate and construct a pure complex from faces given by their
    vertex labels.

    Every face must have dim+1 vertices.  Weights default to uniform; they
    are normalized to sum one.  Faces given with weight zero are dropped
    (the measure must charge every top face); if nothing remains the
    construction fails with ZeroMeasure.
    """
    faces = [_canon(f) for f in faces]
    for f in faces:
        if len(f) != dim + 1:
            raise NonPure(f"face {f!r} has size {len(f)}, expected {dim + 1}")
    labels = sorted(set(itertools.chain.from_iterable(faces)))
    pos = {v: i for i, v in enumerate(labels)}
    rows = np.fromiter((pos[v] for f in faces for v in f), dtype=np.intp,
                       count=len(faces) * (dim + 1)).reshape(len(faces), dim + 1)
    return _from_positions(dim, labels, rows, weights)


def complete_complex(n, dim):
    """The complete dim-dimensional complex on vertices 0..n-1."""
    if dim < 0:
        raise BadParameter(f"a complex has dimension >= 0, got {dim}")
    if n < dim + 1:
        raise NonPure(f"need at least {dim + 1} vertices")
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), dim + 1))
    rows = np.fromiter(combos, dtype=np.intp, count=math.comb(n, dim + 1) * (dim + 1))
    return _from_positions(dim, range(n), rows.reshape(-1, dim + 1))


# --- tensoring with a complete complex ---


@dataclass(frozen=True)
class TensorComplex:
    """Result of tensoring: the complex plus the (column, base vertex) legend."""

    complex: PureComplex
    legend: dict  # new vertex id -> (column in 1..t, base vertex)
    t: int


def tensor_with_complete(X, t):
    """Tensor X with the complete complex on t columns.

    Vertices are pairs (column, base vertex); top faces are matchings of a
    base top face with a (d+1)-subset of columns.  The measure samples a
    base face, then a uniform column subset, then a uniform matching, so a
    uniform X stays uniform.
    """
    d = X.dim
    if t < d + 1:
        raise TooSmallT(f"need t >= {d + 1}, got {t}")
    nv = len(X.vertices)
    # vertex (col - 1) * nv + p is (column col, the vertex at position p)
    legend = {(c - 1) * nv + p: (c, v) for c in range(1, t + 1)
              for p, v in enumerate(X.vertices)}
    cols = np.array(list(itertools.combinations(range(t), d + 1)), dtype=np.intp)
    perms = np.array(list(itertools.permutations(range(d + 1))), dtype=np.intp)
    # row (face f, subset c, matching m): column cols[c, j] on f's perms[m, j]
    rows = cols[None, :, None, :] * nv + X.top_positions()[:, None, perms]
    share = X.weights / (math.comb(t, d + 1) * math.factorial(d + 1))
    weights = np.repeat(share, len(cols) * len(perms))
    tensor = _from_positions(d, range(t * nv), rows.reshape(-1, d + 1), weights)
    return TensorComplex(tensor, legend, t)


# --- suitability ---


@dataclass
class SuitabilityReport:
    """Outcome of the three suitability conditions, with witnesses."""

    c: float
    r: float
    eta: float
    q: int
    degree_bound: float
    hdx_ok: bool
    hdx_worst_face: tuple
    hdx_worst_value: float
    degree_ok: bool
    degree_witness: tuple | None  # (sigma, vertex, degree)
    weight_ok: bool
    weight_witness: tuple | None  # (sigma, kind, item, value, lo, hi)
    log_base: str = "natural"

    @property
    def passed(self):
        return self.hdx_ok and self.degree_ok and self.weight_ok

    def to_dict(self):
        return {**vars(self), "hdx_worst_face": list(self.hdx_worst_face), "passed": self.passed}


def check_suitable(X, c, r, eta):
    """Check the (c, r, eta) suitability conditions and report witnesses.

    Condition 1 is two-sided link expansion at eta.  Condition 2 asks every
    vertex of every link skeleton (of faces of dimension 0..d-2) for degree
    at least c*(1+log Q) with Q the maximal top-degree of a vertex; the log
    is natural.  Condition 3 brackets link edge and vertex weights around
    uniform within a factor r.
    """
    from .spectral import is_hdx  # local import to avoid a module cycle

    if not (c > 1 and r > 1 and eta > 0):
        raise BadParameter("need c > 1, r > 1, eta > 0")
    q = int(np.diff(X.level(0).start).max())
    bound = c * (1.0 + math.log(q))
    found = {}  # the first degree and weight witnesses

    def witnesses(k, first, verts, vlink, ends, weights, vmass):
        if k < 0:
            return
        faces, at = X.faces(k), X.vertices
        deg = np.bincount(ends.ravel(), minlength=len(verts))
        for i in np.flatnonzero(deg < bound)[:1]:
            found.setdefault("degree", (faces[first + vlink[i]], at[verts[i]], int(deg[i])))
        bad = []  # per kind its first item outside the bracket; edges go first
        for kind, link, w in (("edge", vlink[ends[0]], weights),
                              ("vertex", vlink, 0.5 * vmass)):
            size = np.bincount(link)[link]
            out = np.flatnonzero((w < 1.0 / (r * size) - TOL) | (w > r / size + TOL))
            bad += [(link[i], kind, i, float(w[i]), int(size[i])) for i in out[:1]]
        if bad:
            f, kind, i, w, size = min(bad)
            item = (at[verts[i]] if kind == "vertex"
                    else tuple(at[x] for x in verts[ends[:, i]]))
            found.setdefault("weight", (faces[first + f], kind, item, w,
                                        1.0 / (r * size), r / size))

    hdx = is_hdx(X, eta, mode="two_sided", visit=witnesses)

    return SuitabilityReport(
        c=c,
        r=r,
        eta=eta,
        q=q,
        degree_bound=bound,
        hdx_ok=hdx.passes,
        hdx_worst_face=hdx.worst_face,
        hdx_worst_value=hdx.worst_value,
        degree_ok="degree" not in found,
        degree_witness=found.get("degree"),
        weight_ok="weight" not in found,
        weight_witness=found.get("weight"),
    )


# --- JSON interchange ---


def complex_to_dict(X):
    return {
        "dim": X.dim,
        "faces": X.label_rows(X.dim),
        "weights": [float(w) for w in X.weights],
    }


def complex_from_dict(obj):
    try:
        dim = check_integer("dim", obj["dim"])
        faces = obj["faces"]
    except (KeyError, TypeError) as exc:
        raise NotAFace(f"malformed complex object: {exc}") from exc
    weights = obj.get("weights")
    return build_complex(dim, faces, weights)


def save_complex(X, path):
    with open(path, "w") as fh:
        json.dump(complex_to_dict(X), fh, sort_keys=True, indent=2)
        fh.write("\n")
