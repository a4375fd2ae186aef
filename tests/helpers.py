"""Shared oracles and fixture generators for the test suite.

Oracles here are written from first principles, independent of the
library's linear-algebra paths, so spectra can be cross-checked.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from hdxcover.complexes import TOL, build_complex
from hdxcover.covers import CoverReport
from hdxcover.graphs import WGraph


def sym_walk_matrix(G):
    """Symmetrized random-walk matrix built directly from edge weights."""
    n = G.n
    half = np.zeros(n)
    for (u, v), w in zip(G.edges, G.weights):
        half[G.vertex_index(u)] += w / 2.0
        half[G.vertex_index(v)] += w / 2.0
    M = np.zeros((n, n))
    for (u, v), w in zip(G.edges, G.weights):
        iu, iv = G.vertex_index(u), G.vertex_index(v)
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
    lmass = {v: G.side_measure(v) for v in left}
    rmass = {v: G.side_measure(v) for v in right}
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
        if not connected or G.is_connected():
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
        if G.is_connected():
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


def plain_verify_cover(cover, tol=1e-9):
    """Reference cover audit: a dict of link weights per lifted face."""
    tilde, base = cover.complex, cover.base
    violations = []

    surj = set(cover.phi(v) for v in tilde.vertices) == set(base.vertices)
    image_tops = {cover.phi_face(f) for f in tilde.top_faces}
    surj = surj and image_tops == set(base.top_faces)

    checked = 0
    for k in range(0, tilde.dim + 1):
        for face in tilde.faces(k):
            checked += 1
            img = cover.phi_face(face)
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


def plain_check_suitable(X, c, r):
    """Reference degree and weight conditions of check_suitable, vertex by
    vertex and edge by edge over reference link skeletons; returns
    (degree_ok, degree_witness, weight_ok, weight_witness)."""
    q = max(len(X.cofaces((v,))) for v in X.vertices)
    bound = c * (1.0 + math.log(q))
    degree_ok, degree_witness = True, None
    weight_ok, weight_witness = True, None
    for ell in range(0, X.dim - 1):
        for sigma in X.faces(ell):
            skel = plain_link_skeleton(X, sigma)
            for v in skel.vertices:
                deg = len(skel.neighbors(v))
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
            for v in skel.vertices:
                w = skel.vertex_measure(v)
                if not (lo_v - TOL <= w <= hi_v + TOL) and weight_ok:
                    weight_ok = False
                    weight_witness = (sigma, "vertex", v, float(w), lo_v, hi_v)
    return degree_ok, degree_witness, weight_ok, weight_witness
