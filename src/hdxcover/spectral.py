"""Spectra of normalized adjacency operators and expansion certificates.

The random-walk operator A of a weighted graph is self-adjoint under the
vertex-measure inner product, so its spectrum is computed by symmetrizing
with the similarity transform D^{1/2} A D^{-1/2} and running a dense
symmetric eigensolver.  Bipartite expansion is the second singular value
of the analogously symmetrized side-to-side operator.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadLevel, BadParameter, MisScaled, NonPositiveAlpha, NotBipartite,
                     TooLargeForExact)

TOL = 1e-9


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of the normalized adjacency operator, sorted descending."""

    eigenvalues: tuple

    @property
    def two_sided(self):
        if len(self.eigenvalues) < 2:
            return 0.0
        return max(abs(self.eigenvalues[1]), abs(self.eigenvalues[-1]))


def _symmetrized_matrix(shape, at, weights, root, ends):
    """The operator D^{1/2} A D^{-1/2} of a graph, or a stack of them.

    shape is (n, n), or (graphs, n, n) for a stack; at indexes each edge's
    entry, as (u, v) positions or (graph, u, v) triples; root holds the
    square roots of the vertex measures, and ends the positions in root of
    each edge's two ends.
    """
    *stack, u, v = at
    M = np.zeros(shape)
    val = 0.5 * weights / (root[ends[0]] * root[ends[1]])
    M[(*stack, u, v)] = val
    M[(*stack, v, u)] = val
    return M


def _checked_spectra(M):
    """The eigenvalues of each symmetrized operator in M, descending along
    the last axis and clipped to [-1, 1].

    The raw eigenvalues are checked first: the top one must be 1 and all
    must lie in [-1, 1], both to 1e-8, or the operator is mis-scaled.
    """
    eigs = np.linalg.eigvalsh(M)[..., ::-1]
    bad = np.abs(eigs[..., 0] - 1.0) > 1e-8
    if bad.any():
        raise MisScaled(f"top eigenvalue {eigs[..., 0][bad][0]} != 1")
    if (np.abs(eigs) > 1.0 + 1e-8).any():
        raise MisScaled("eigenvalue outside [-1, 1]")
    return np.clip(eigs, -1.0, 1.0)


def adjacency_spectrum(G):
    """Full spectrum of the normalized adjacency operator of G."""
    root = np.sqrt(G.vertex_measures())
    eigs = _checked_spectra(
        _symmetrized_matrix((G.n, G.n), G.ends, G.weights, root, G.ends))
    return SpectralReport(tuple(float(e) for e in eigs))


def link_measures(vlink, ends, mass):
    """The edge weights and twice the vertex measures of many graphs, laid
    out as for link_spectra, each graph's as its own WGraph.from_arrays
    holds them: weights over the graph's own sum, vertex masses summed
    edge by edge."""
    elink = vlink[ends[0]]
    bounds = np.searchsorted(elink, np.arange(vlink[-1] + 2)).tolist()
    weights = mass / np.array([mass[i:j].sum() for i, j in zip(bounds, bounds[1:])])[elink]
    vmass = np.bincount(ends.T.ravel(), weights=np.repeat(weights, 2), minlength=len(vlink))
    return weights, vmass


def link_spectra(vlink, ends, mass):
    """WGraph.from_arrays and adjacency_spectrum of many graphs at once:
    the weights, normalized per graph, twice the vertex measures, and the
    list of each graph's _checked_spectra.

    Graph vlink[x] holds vertex x; ends holds the (2, m) edge ends as
    vertex indices, each graph's vertices and edges consecutive and sorted.
    Each graph takes the float steps of its own from_arrays and
    _symmetrized_matrix, and graphs of one vertex count share one stacked
    eigensolve, so every value is the graph's own bit for bit."""
    elink = vlink[ends[0]]
    n_verts = np.bincount(vlink)
    weights, vmass = link_measures(vlink, ends, mass)
    root = np.sqrt(0.5 * vmass)
    local = np.arange(len(vlink)) - np.searchsorted(vlink, vlink)
    sizes = sorted(set(n_verts.tolist()))
    if len(sizes) == 1:  # one stack of every graph
        M = _symmetrized_matrix((len(n_verts), sizes[0], sizes[0]),
                                (elink, *local[ends]), weights, root, ends)
        return weights, vmass, list(_checked_spectra(M))
    eigs = [None] * len(n_verts)
    for n in sizes:
        links = np.flatnonzero(n_verts == n)
        sel = np.flatnonzero(n_verts[elink] == n)
        eu, ev = ends[:, sel]
        at = (np.searchsorted(links, elink[sel]), local[eu], local[ev])
        M = _symmetrized_matrix((len(links), n, n), at, weights[sel], root, (eu, ev))
        for i, e in zip(links.tolist(), _checked_spectra(M)):
            eigs[i] = e
    return weights, vmass, eigs


def _side_arrays(G):
    """Side measures of the sorted left and right sides, and the positions
    within them of each edge's left and right ends."""
    # vertices are sorted, so each side in vertex order is that side sorted
    is_left = G._left
    rank = np.empty(G.n, dtype=np.intp)
    rank[is_left] = np.arange(np.count_nonzero(is_left))
    rank[~is_left] = np.arange(G.n - np.count_nonzero(is_left))
    mass = 2.0 * G.vertex_measures()  # the side measures
    u, v = G.ends
    u_left = is_left[u]
    a, b = rank[np.where(u_left, u, v)], rank[np.where(u_left, v, u)]
    return mass[is_left], mass[~is_left], a, b


def bipartite_lambda(G):
    """lambda(B): the norm of the side-to-side operator off the constants.

    Computed as the second singular value of the measure-symmetrized
    bipartite operator; the first singular value is always 1.
    """
    if G._left is None:
        raise NotBipartite("graph has no declared bipartition")
    lmass, rmass, a, b = _side_arrays(G)
    M = np.zeros((len(rmass), len(lmass)))
    M[b, a] = G.weights / np.sqrt(lmass[a] * rmass[b])
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[1]) if len(sv) > 1 else 0.0


# --- high-dimensional expansion ---


@dataclass(frozen=True)
class HdxRow:
    face: tuple
    lambda2: float
    lambda_min: float
    value: float


@dataclass(frozen=True)
class HdxReport:
    threshold: float
    mode: str
    rows: tuple
    passes: bool
    worst_face: tuple
    worst_value: float

    def to_dict(self):
        out = {k: v for k, v in vars(self).items() if k != "rows"}
        return {**out, "worst_face": list(self.worst_face), "n_links": len(self.rows)}


def is_hdx(X, lam, mode="two_sided", include_empty_face=True, visit=None):
    """Certify link expansion for every face of dimension -1..d-2.

    Every link skeleton (including the complex's own, unless
    include_empty_face is False) must have expansion at most lam.  Links
    come from PureComplex.link_blocks and link_spectra; visit, if given,
    gets each block's level, its arrays and link_spectra's weights and
    vertex masses, so that check_suitable reads the same skeletons.  A
    negative, NaN or infinite lam, or a mode other than two_sided or
    one_sided, raises BadParameter."""
    if mode not in ("two_sided", "one_sided"):
        raise BadParameter(f"mode must be 'two_sided' or 'one_sided', got {mode!r}")
    if not lam >= 0:
        raise BadParameter(f"lambda must be a number >= 0, got {lam}")
    if lam == math.inf:
        raise BadParameter(f"lambda must be finite, got {lam}")
    lo = -1 if include_empty_face else 0
    if lo > X.dim - 2:
        raise BadLevel(f"a {X.dim}-complex has no link with edges at dimension {lo}")
    rows = []
    for k in range(lo, X.dim - 1):
        faces = X.faces(k)
        for first, verts, vlink, ends, mass in X.link_blocks(k):
            weights, vmass, eigs = link_spectra(vlink, ends, mass)
            if visit is not None:
                visit(k, first, verts, vlink, ends, weights, vmass)
            for i, ev in enumerate(eigs, first):
                lam2, lam_min = float(ev[1]), float(ev[-1])
                value = lam2 if mode == "one_sided" else max(abs(lam2), abs(lam_min))
                rows.append(HdxRow(faces[i], lam2, lam_min, value))
    worst = max(rows, key=lambda r: r.value)
    # comparisons share the library-wide 1e-9 measure tolerance
    return HdxReport(
        threshold=float(lam),
        mode=mode,
        rows=tuple(rows),
        passes=worst.value <= lam + TOL,
        worst_face=worst.face,
        worst_value=worst.value,
    )


def spectra_csv(report):
    """CSV dump of an HdxReport: face id, lambda_2, lambda_n, two_sided."""
    lines = ["face,lambda2,lambda_min,value"]
    for row in report.rows:
        fid = "-".join(str(v) for v in row.face) if row.face else "*"
        lines.append(f"{fid},{row.lambda2!r},{row.lambda_min!r},{row.value!r}")
    return "\n".join(lines) + "\n"


# --- expander mixing discrepancy ---


@dataclass(frozen=True)
class EmlReport:
    alpha: float
    witness: tuple  # (S, T) as vertex tuples
    eml_ratio: float  # discrepancy over the full mixing denominator
    eml_witness: tuple
    exact: bool
    pairs: int


def _subset_sums(values):
    k = len(values)
    out = np.zeros(1 << k)
    for i in range(k):
        step = 1 << i
        out[step : 2 * step] = out[:step] + values[i]
    return out


def _bits(mask, k):
    """The k low bits of each int in mask as a bool array along a new last
    axis, lowest first."""
    return (mask >> np.arange(k)) & 1 == 1


def eml_discrepancy(G, strategy="exact", samples=2000, rng=None, exact_limit=14):
    """Worst-case mixing discrepancy alpha over disjoint vertex pairs.

    alpha maximizes |nu(E(S,T)) - nu(S)nu(T)| / sqrt(nu(S)nu(T)); for a
    bipartite graph S and T range over the two sides with per-side
    measures and the full cross-edge mass.  For a general graph the cut
    carries the oriented convention nu(u, v) = nu({u, v})/2, matching the
    vertex measure's normalization (this is what the adjacency operator's
    bilinear form actually computes).  The report also carries the
    discrepancy normalized by the full mixing denominator with its
    (1-nu) factors.  The sampled strategy draws random pairs and reports
    a lower bound on alpha.
    """
    if strategy == "exact":
        return _eml_exact(G, exact_limit)
    if strategy == "sampled":
        if samples < 1:
            raise BadParameter(f"sampled mixing needs samples >= 1, got {samples}")
        return _eml_sampled(G, samples, rng)
    raise ValueError(f"unknown strategy {strategy!r}")


def _pair_scores(cut, nu_s, nu_t):
    prod = nu_s * nu_t
    diff = np.abs(cut - prod)
    alpha = diff / np.sqrt(prod)
    denom = prod * (1.0 - nu_s) * (1.0 - nu_t)
    ratio = np.divide(
        diff, np.sqrt(np.maximum(denom, 0.0)), out=np.zeros_like(diff),
        where=denom > 1e-300,
    )
    return alpha, ratio


def _mixing_pools(G):
    """S's pool as a bool mask over vertex positions, T's pool (None for the
    complement of S), the measure on both and the factor on the cut.

    A bipartite graph mixes its left side against its right, with side
    measures and the full cut; any other graph mixes all vertices, with the
    vertex measure and half the cut, the oriented nu(u, v) = nu({u, v})/2.
    """
    if G._left is None:
        return np.ones(G.n, dtype=bool), None, G.vertex_measures(), 0.5
    return G._left, ~G._left, 2.0 * G.vertex_measures(), 1.0


def _eml_exact(G, limit):
    s_pool, t_pool, mass, factor = _mixing_pools(G)
    n, spos = G.n, np.flatnonzero(s_pool)
    right = None if t_pool is None else np.flatnonzero(t_pool)
    if right is None and n > limit:
        raise TooLargeForExact(f"{n} vertices exceed the exact limit {limit}")
    if right is not None and max(len(spos), len(right)) > limit:
        raise TooLargeForExact(f"sides {len(spos)}x{len(right)} exceed the exact limit {limit}")
    W = np.zeros((n, n))
    iu, iv = G.ends
    W[iu, iv] = G.weights
    W[iv, iu] = G.weights
    best = best_ratio = (-1.0, None, None, None)
    pairs = 0
    for take in _bits(np.arange(1, 1 << len(spos))[:, None], len(spos)):
        srows = spos[take]
        tcols = spos[~take] if right is None else right
        if not len(tcols):
            continue
        nu_s = mass[srows].sum()
        cut = factor * _subset_sums(W[np.ix_(srows, tcols)].sum(axis=0))
        alpha, ratio = _pair_scores(cut[1:], nu_s, _subset_sums(mass[tcols])[1:])
        pairs += len(alpha)
        i = int(np.argmax(alpha))
        if alpha[i] > best[0]:
            best = (float(alpha[i]), srows, tcols, i + 1)
        j = int(np.argmax(ratio))
        if ratio[j] > best_ratio[0]:
            best_ratio = (float(ratio[j]), srows, tcols, j + 1)

    def decode(entry):
        _, srows, tcols, tmask = entry
        t = tcols[_bits(tmask, len(tcols))]
        return tuple(G.vertices[i] for i in srows), tuple(G.vertices[i] for i in t)

    return EmlReport(best[0], decode(best), best_ratio[0], decode(best_ratio), True, pairs)


def _eml_sampled(G, samples, rng):
    rng = np.random.default_rng(rng)
    best = best_ratio = (-1.0, ((), ()))
    n, (u, v) = G.n, G.ends
    s_pool, t_pool, mass, factor = _mixing_pools(G)
    for _ in range(samples):
        in_s, in_t = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        in_s[s_pool] = [rng.random() < 0.5 for _ in range(s_pool.sum())]
        pool = ~in_s if t_pool is None else t_pool
        in_t[pool] = [rng.random() < 0.5 for _ in range(pool.sum())]
        if not in_s.any() or not in_t.any():
            continue
        # summed one by one in vertex and edge order, so that no hash order
        # moves the scores
        nu_s, nu_t = (float(np.cumsum(mass[m])[-1]) for m in (in_s, in_t))
        cross = (in_s[u] & in_t[v]) | (in_s[v] & in_t[u])
        cut = factor * float(np.cumsum(G.weights[cross])[-1]) if cross.any() else 0.0
        alpha, ratio = map(float, _pair_scores(np.float64(cut), nu_s, nu_t))
        if alpha > best[0]:
            best = (alpha, (in_s, in_t))
        if ratio > best_ratio[0]:
            best_ratio = (ratio, (in_s, in_t))

    def decode(masks):
        return tuple(tuple(itertools.compress(G.vertices, m)) for m in masks)

    # with no draw giving both sides a vertex, 0.0 and an empty witness
    return EmlReport(max(best[0], 0.0), decode(best[1]), max(best_ratio[0], 0.0),
                     decode(best_ratio[1]), False, samples)


def converse_eml_bound(alpha):
    """Upper bound on expansion recovered from the discrepancy alpha."""
    if alpha <= 0:
        raise NonPositiveAlpha(f"alpha must be positive, got {alpha}")
    return 260.0 * alpha * (1.0 + math.log2(3.0 / alpha))
