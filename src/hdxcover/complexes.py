"""Pure weighted simplicial complexes and their derived measures.

A complex is stored by its top faces and a probability measure on them.
Lower faces are implicit (every subset of a top face is a face) and get
the induced measure

    Prob{s} = binom(d+1, |s|)^{-1} * sum of top weights over cofaces of s,

which makes the total mass at every level equal to one.  An oriented
face with k+1 vertices has measure Prob{s} / (k+1)!.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLevel,
    DuplicateFace,
    NonPure,
    NotAFace,
    TooSmallT,
    TopFace,
    ZeroMeasure,
)
from .graphs import WGraph

TOL = 1e-9


def _canon(face):
    t = tuple(face)
    if len(set(t)) != len(t):
        raise NonPure(f"face {t!r} has repeated vertices")
    return tuple(sorted(t))


class PureComplex:
    """A pure d-dimensional complex with a measure on its top faces.

    Instances are immutable after construction; every operation is a pure
    read and safe to call from multiple threads.
    """

    __slots__ = (
        "dim", "top_faces", "weights", "vertices", "_cofaces", "_levels", "_tops",
        "_vpos",
    )

    def __init__(self, dim, top_faces, weights):
        """Use :func:`build_complex` instead of calling this directly."""
        self.dim = dim
        self.top_faces = top_faces
        self.weights = weights
        cofaces = {}
        for i, face in enumerate(top_faces):
            for size in range(1, dim + 2):
                for sub in itertools.combinations(face, size):
                    cofaces.setdefault(sub, []).append(i)
        self._cofaces = {s: np.array(ix, dtype=np.intp) for s, ix in cofaces.items()}
        self.vertices = tuple(sorted({v for f in top_faces for v in f}))
        self._levels = {}
        self._tops = None
        self._vpos = None

    # --- structure ---

    @property
    def n_vertices(self):
        return len(self.vertices)

    def faces(self, k):
        """Sorted tuple of the k-dimensional faces; k = -1 gives ((),)."""
        if k == -1:
            return ((),)
        if k < -1 or k > self.dim:
            raise BadLevel(f"no faces of dimension {k} in a {self.dim}-complex")
        if k not in self._levels:
            self._levels[k] = tuple(
                sorted(s for s in self._cofaces if len(s) == k + 1)
            )
        return self._levels[k]

    def n_faces(self, k):
        return len(self.faces(k))

    def has_face(self, s):
        s = _canon(s)
        return s == () or s in self._cofaces

    def top_positions(self):
        """The top faces as an int array of positions into ``vertices``.

        Row i is top face i; rows are increasing because faces and
        vertices are both sorted.
        """
        if self._tops is None:
            pos = self._vpos = {v: i for i, v in enumerate(self.vertices)}
            self._tops = np.fromiter(
                (pos[v] for f in self.top_faces for v in f),
                dtype=np.intp,
                count=len(self.top_faces) * (self.dim + 1),
            ).reshape(len(self.top_faces), self.dim + 1)
        return self._tops

    def cofaces(self, s):
        """Indices of the top faces containing s."""
        s = _canon(s)
        if s == ():
            return np.arange(len(self.top_faces), dtype=np.intp)
        try:
            return self._cofaces[s]
        except KeyError:
            raise NotAFace(f"{s!r} is not a face") from None

    # --- measures ---

    def face_measure(self, s):
        """Prob{s} under the sampling measure; the empty face has mass 1."""
        s = _canon(s)
        if s == ():
            return 1.0
        idx = self.cofaces(s)
        return float(self.weights[idx].sum()) / math.comb(self.dim + 1, len(s))

    def oriented_face_measure(self, seq):
        """Prob of an ordered face: Prob{underlying set} / (k+1)!."""
        seq = tuple(seq)
        if len(set(seq)) != len(seq):
            raise NotAFace(f"oriented face {seq!r} has repeated vertices")
        return self.face_measure(seq) / math.factorial(len(seq))

    # --- derived complexes ---

    def link(self, s):
        """The link of s with its induced, renormalized measure."""
        s = _canon(s)
        if s == ():
            return self
        idx = self.cofaces(s)
        if len(s) == self.dim + 1:
            raise TopFace(f"{s!r} is a top face; its link is empty")
        sset = set(s)
        tops = [tuple(v for v in self.top_faces[i] if v not in sset) for i in idx]
        return build_complex(self.dim - len(s), tops, self.weights[idx])

    def link_skeleton(self, s):
        """The weighted 1-skeleton of link(s), read off the top faces.

        The cofaces of s, less the columns of s, are the link's top faces;
        each pair of their columns is a link edge, and an edge's mass sums
        over the link top faces containing it.  Builds no complex, and
        equals ``link(s).one_skeleton()`` up to the order of summation.
        """
        s = _canon(s)
        idx = self.cofaces(s)
        k = self.dim - len(s)  # dimension of the link
        if k < 0:
            raise TopFace(f"{s!r} is a top face; its link is empty")
        if k == 0:
            raise BadLevel("a 0-dimensional complex has no 1-skeleton")
        tops = self.top_positions()[idx]
        if s:
            spos = np.array([self._vpos[v] for v in s])
            keep = (tops[:, :, None] != spos).all(axis=2)
            tops = tops[keep].reshape(len(idx), k + 1)
        w = self.weights[idx]
        verts, local = np.unique(tops, return_inverse=True)
        local = local.reshape(tops.shape)
        a, b = np.triu_indices(k + 1, 1)
        n = len(verts)
        keys, edge = np.unique(local[:, a] * n + local[:, b], return_inverse=True)
        mass = np.bincount(
            edge.ravel(), weights=np.repeat(w / w.sum(), len(a)), minlength=len(keys)
        )
        return WGraph.from_arrays(
            tuple(self.vertices[i] for i in verts),
            np.stack([keys // n, keys % n]),
            mass / math.comb(k + 1, 2),
        )

    def one_skeleton(self):
        """The weighted graph on X(0) and X(1)."""
        return self.link_skeleton(())

    def degree(self, s, level):
        """Number of level-dimensional faces containing s."""
        s = _canon(s)
        if not self.has_face(s):
            raise NotAFace(f"{s!r} is not a face")
        if level < len(s) - 1 or level > self.dim:
            raise BadLevel(f"level {level} out of range for face of size {len(s)}")
        if s == ():
            return self.n_faces(level)
        sset = set(s)
        need = level + 1 - len(s)
        seen = set()
        for i in self.cofaces(s):
            rest = [v for v in self.top_faces[i] if v not in sset]
            for extra in itertools.combinations(rest, need):
                seen.add(tuple(sorted(s + extra)))
        return len(seen)

    def restrict(self, top_indices):
        """Sub-complex on a subset of top faces, measure renormalized."""
        idx = np.asarray(top_indices, dtype=np.intp)
        if len(idx) == 0:
            raise ZeroMeasure("restriction keeps no top face")
        return build_complex(
            self.dim, [self.top_faces[i] for i in idx], self.weights[idx]
        )

    def __repr__(self):
        return (
            f"PureComplex(dim={self.dim}, vertices={self.n_vertices}, "
            f"tops={len(self.top_faces)})"
        )


def build_complex(dim, faces, weights=None):
    """Validate and construct a pure complex.

    Every face must have dim+1 vertices.  Weights default to uniform; they
    are normalized to sum one.  Faces given with weight zero are dropped
    (the measure must charge every top face); if nothing remains the
    construction fails with ZeroMeasure.
    """
    faces = [_canon(f) for f in faces]
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
    assert abs(weights.sum() - 1.0) < 1e-12
    return PureComplex(dim, faces, weights)


def complete_complex(n, dim, weights=None):
    """The complete dim-dimensional complex on vertices 0..n-1."""
    if n < dim + 1:
        raise NonPure(f"need at least {dim + 1} vertices")
    return build_complex(dim, itertools.combinations(range(n), dim + 1), weights)


def cycle_complex(n):
    """The n-cycle as a 1-dimensional complex."""
    return build_complex(1, [tuple(sorted((i, (i + 1) % n))) for i in range(n)])


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
    base_pos = {v: i for i, v in enumerate(X.vertices)}
    nv = len(X.vertices)

    def vid(col, v):
        return (col - 1) * nv + base_pos[v]

    legend = {vid(c, v): (c, v) for c in range(1, t + 1) for v in X.vertices}
    tops = []
    weights = []
    denom = math.comb(t, d + 1) * math.factorial(d + 1)
    for face, w in zip(X.top_faces, X.weights):
        share = w / denom
        for cols in itertools.combinations(range(1, t + 1), d + 1):
            for perm in itertools.permutations(face):
                tops.append(tuple(sorted(vid(c, v) for c, v in zip(cols, perm))))
                weights.append(share)
    return TensorComplex(build_complex(d, tops, weights), legend, t)


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
        return {
            "c": self.c,
            "r": self.r,
            "eta": self.eta,
            "q": self.q,
            "degree_bound": self.degree_bound,
            "log_base": self.log_base,
            "hdx_ok": self.hdx_ok,
            "hdx_worst_face": list(self.hdx_worst_face),
            "hdx_worst_value": self.hdx_worst_value,
            "degree_ok": self.degree_ok,
            "degree_witness": self.degree_witness,
            "weight_ok": self.weight_ok,
            "weight_witness": self.weight_witness,
            "passed": self.passed,
        }


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
        raise ValueError("need c > 1, r > 1, eta > 0")
    q = max(len(X.cofaces((v,))) for v in X.vertices)
    bound = c * (1.0 + math.log(q))

    hdx = is_hdx(X, eta, mode="two_sided")

    degree_ok, degree_witness = True, None
    weight_ok, weight_witness = True, None
    for ell in range(0, X.dim - 1):
        for sigma in X.faces(ell):
            skel = X.link_skeleton(sigma)
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


# --- JSON interchange ---


def complex_to_dict(X):
    return {
        "dim": X.dim,
        "faces": [list(f) for f in X.top_faces],
        "weights": [float(w) for w in X.weights],
    }


def complex_from_dict(obj):
    try:
        dim = int(obj["dim"])
        faces = obj["faces"]
    except (KeyError, TypeError) as exc:
        raise NotAFace(f"malformed complex object: {exc}") from exc
    weights = obj.get("weights")
    return build_complex(dim, faces, weights)


def load_complex(path):
    with open(path) as fh:
        return complex_from_dict(json.load(fh))


def save_complex(X, path):
    with open(path, "w") as fh:
        json.dump(complex_to_dict(X), fh, sort_keys=True, indent=2)
        fh.write("\n")
