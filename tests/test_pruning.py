import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hdxcover.complexes import build_complex, complete_complex
from hdxcover.errors import (
    BadKindForFace,
    HdxError,
    NotAFace,
    Unmeasurable,
    UnsatisfiedBase,
)
from hdxcover.graphs import WGraph
from hdxcover.groups import (
    cayley_clique_complex,
    cyclic,
    dihedral,
    symmetric_group,
    validate_genset,
)
from hdxcover.harness import stage_seed
from hdxcover.pruning import (
    MODES,
    PruneConfig,
    Pruner,
    SatisfactionGraph,
    face_fraction_report,
    measure_ratio_audit,
    ne_verdicts,
    pruned_measure,
    sample_labeling,
)
from hdxcover.spectral import adjacency_spectrum, is_hdx

from helpers import (
    checked,
    coboundary_labeling,
    face_colors,
    label_dict,
    link_table,
    plain_at_table,
    plain_directed_label,
    plain_eval_at,
    plain_eval_bc,
    plain_event_scope,
    plain_first_violated,
    plain_measure_ratio_audit,
    plain_pruned_measure,
    random_complex,
    ratio_ok,
    relabeled,
    same_measure,
)

Z5 = cyclic(5)
Z5_GENS = validate_genset(Z5, [1, 2, 3, 4])


def z5_pruner(X, **cfg):
    config = PruneConfig.empirical(cfg.pop("lambda_target", 0.9), **cfg)
    return Pruner(X, Z5, Z5_GENS, config)


def coboundary_indices(X, potential):
    """Coboundary labeling of a potential keyed by vertex, expressed as
    generator indices for Z5_GENS over X.faces(1)."""
    elems = coboundary_labeling(X, Z5, [potential[v] for v in X.vertices])
    return np.searchsorted(Z5_GENS, elems)


def label_array(X, f):
    """Generator indices given edge by edge, as the array over X.faces(1)."""
    return np.array([f[e] for e in X.faces(1)], dtype=np.int64)


def plain_face_satisfied(pruner, face, f):
    """Triangle-by-triangle check of one face, the reference for the mask."""
    labels = label_dict(pruner.X, pruner.s_elems[f])
    for i, j, k in itertools.combinations(sorted(face), 3):
        if pruner.group.mul(labels[i, j], labels[j, k]) != labels[i, k]:
            return False
    return True


def plain_satisfaction_graph(pruner, sigma, f):
    """Reference satisfaction graph: one face check per link vertex and link
    edge, with edge masses summed into a dict over the cofaces of sigma."""
    X = pruner.X
    sset = set(sigma)
    vert_ok = {}
    edge_mass = {}
    for i in X.cofaces(sigma):
        rest = [v for v in X.top_faces[i] if v not in sset]
        for v in rest:
            if v not in vert_ok:
                vert_ok[v] = plain_face_satisfied(pruner, sigma + (v,), f)
        for key in itertools.combinations(rest, 2):
            if key not in edge_mass:
                ok = plain_face_satisfied(pruner, sigma + key, f)
                edge_mass[key] = 0.0 if ok else None
    for i in X.cofaces(sigma):
        rest = [v for v in X.top_faces[i] if v not in sset]
        for key in itertools.combinations(rest, 2):
            if edge_mass[key] is not None:
                edge_mass[key] += X.weights[i]
    edges = {k: m for k, m in edge_mass.items() if m is not None and m > 0}
    good = tuple(sorted(v for v, ok in vert_ok.items() if ok))

    u0, labels = sigma[0], label_dict(X, pruner.s_elems[f])

    def element(v):
        return plain_directed_label(pruner.group, labels, u0, v)

    a = tuple(sorted({0} | {element(u) for u in sigma[1:]}))
    cc = pruner.cayley.complex
    target = cc.link(a) if cc.has_face(a) else None
    coloring = {v: element(v) for v in good}
    if not edges:
        return SatisfactionGraph(sigma, None, None, None, good)
    link_graph = WGraph([(u, v, m) for (u, v), m in edges.items()])
    dropped = tuple(v for v in good if v not in set(link_graph.vertices))
    if target is None:
        return SatisfactionGraph(sigma, None, link_graph, a, dropped)
    tskel = target.one_skeleton()
    fiber_mass = {}
    for (u, v), m in edges.items():
        key = tuple(sorted((coloring[u], coloring[v])))
        fiber_mass[key] = fiber_mass.get(key, 0.0) + m
    missing = next((e for e in tskel.edges if e not in fiber_mass), None)
    if missing is not None:
        return SatisfactionGraph(sigma, None, link_graph, missing, dropped)
    tw = dict(zip(tskel.edges, tskel.weights))
    colored = []
    for (u, v), m in edges.items():
        key = tuple(sorted((coloring[u], coloring[v])))
        colored.append((u, v, tw[key] * m / fiber_mass[key]))
    return SatisfactionGraph(sigma, WGraph(colored), link_graph, None, dropped)


@pytest.fixture(scope="module")
def fixture30():
    X = complete_complex(30, 2)
    pruner = z5_pruner(X)
    outcome = pruner.run(2)
    assert outcome.status == "clean"
    return X, pruner, outcome


class TestSampleLabeling:
    def test_single_generator_constant(self):
        X = complete_complex(5, 2)
        f = sample_labeling(X, 1, 0)
        assert (f == 0).all()

    def test_deterministic(self):
        X = complete_complex(8, 2)
        a = sample_labeling(X, 4, 123)
        b = sample_labeling(X, 4, 123)
        assert (a == b).all()

    def test_frequencies_within_three_sigma(self):
        X = build_complex(1, itertools.combinations(range(142), 2))
        m = 4
        f = sample_labeling(X, m, 7)
        n = len(f)
        sigma = math.sqrt(n * (1 / m) * (1 - 1 / m))
        for label in range(m):
            assert abs((f == label).sum() - n / m) <= 3 * sigma


class TestIsSatisfied:
    def test_z2_triangle_unsatisfied(self):
        g = cyclic(2)
        X = build_complex(2, [(0, 1, 2)])
        f = {(0, 1): 0, (1, 2): 0, (0, 2): 0}  # every edge labeled by 1
        pruner = Pruner(X, g, (1,), PruneConfig(0.5))
        assert not pruner.face_satisfied((0, 1, 2), label_array(X, f))

    def test_edges_vacuous(self):
        X = complete_complex(4, 2)
        pruner = Pruner(X, cyclic(2), (1,), PruneConfig(0.5))
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        assert pruner.face_satisfied((0, 1), f)
        assert pruner.face_satisfied((2,), f)

    def test_coboundary_satisfied(self):
        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        arr = f
        for face in X.faces(2):
            assert pruner.face_satisfied(face, arr)

    def test_not_a_face(self):
        X = complete_complex(4, 2)
        pruner = Pruner(X, cyclic(2), (1,), PruneConfig(0.5))
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        with pytest.raises(NotAFace):
            pruner.face_satisfied((0, 9), f)


class TestFPruning:
    def test_coboundary_keeps_everything(self):
        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        y, isolated, _ = pruner.f_pruning(f)
        assert y.top_faces == X.top_faces
        assert isolated == ()

    def test_one_flipped_edge_removes_its_triangles(self):
        # a single relabeled edge breaks exactly the two triangles through it
        # (an odd number of broken triangles is impossible on K_4: if all
        # triangles through one vertex hold, the fourth telescopes)
        X = complete_complex(4, 2)
        f = coboundary_indices(X, {i: i for i in range(4)})
        e = X.faces(1).index((2, 3))
        f[e] = (f[e] + 1) % 4
        pruner = z5_pruner(X)
        y, isolated, _ = pruner.f_pruning(f)
        assert set(y.top_faces) == {(0, 1, 2), (0, 1, 3)}
        assert isolated == ()

    def test_adversarial_empty(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        f = {e: 0 for e in X.faces(1)}  # all-ones labeling over Z/2
        pruner = Pruner(X, g, (1,), PruneConfig(0.5))
        y, isolated, _ = pruner.f_pruning(label_array(X, f))
        assert y is None
        assert isolated == tuple(X.vertices)


class TestSatisfactionGraph:
    def test_empty_face_raises(self):
        X = complete_complex(6, 2)
        f = sample_labeling(X, 4, 0)
        with pytest.raises(BadKindForFace):
            z5_pruner(X).satisfaction_graph((), f)

    def test_coboundary_full_link(self):
        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        sg = pruner.satisfaction_graph((0,), f)
        assert set(sg.graph.edges) == set(X.link((0,)).faces(1))
        assert sg.missing is None

    def test_vertex_partition_matches_census(self):
        X = complete_complex(40, 2)
        f = sample_labeling(X, 4, 11)
        pruner = z5_pruner(X)
        _, colors = face_colors(pruner, (3,), f)
        by_color = {}
        for v, c in zip(link_table(pruner, (3,)).verts, colors.tolist()):
            by_color.setdefault(c, set()).add(v)
        # direct enumeration of directed labels out of vertex 3
        expected, labels = {}, label_dict(X, pruner.s_elems[f])
        for v in X.vertices:
            if v == 3:
                continue
            v_label = plain_directed_label(pruner.group, labels, 3, v)
            expected.setdefault(v_label, set()).add(v)
        assert by_color == expected

    def test_unsatisfied_base_raises(self):
        # triangles are the lowest-dimensional faces that can fail, so the
        # base complex needs dimension >= 4 for them to be valid bases
        g = cyclic(2)
        X = complete_complex(6, 4)
        f = {e: 0 for e in X.faces(1)}
        pruner = Pruner(X, g, (1,), PruneConfig(0.5))
        arr = label_array(X, f)
        with pytest.raises(UnsatisfiedBase):
            pruner.satisfaction_graph((0, 1, 2), arr)

    def test_unsatisfied_level_is_no_ne_hit(self):
        # all labels g_0 = 1 in Z5: every triangle fails, so no triangle is a
        # satisfied NE base and its event is False, alone or in a run of
        # faces; a vertex or an edge keeps no link edge, so its event is
        # violated
        X = complete_complex(6, 4)
        pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.5, max_resamples=3))
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        assert not pruner.eval_event("NE", (0, 1, 2), f)
        assert not pruner.ne_sweep(2, slice(None), f).any()
        assert pruner.eval_event("NE", (0,), f)
        ne = {face for kind, face in pruner.all_violations(f) if kind == "NE"}
        assert ne == set(X.faces(0)) | set(X.faces(1))
        assert pruner.run(0).status == "budget_exhausted"
        # nor is a target built for them: Z2's Cayley complex at d = 4 is
        # no pure complex
        z2 = Pruner(X, cyclic(2), (1,), PruneConfig(0.5))
        assert not z2.eval_event("NE", (0, 1, 2), f)

    def test_dimension_guard(self):
        X = complete_complex(5, 2)
        f = sample_labeling(X, 4, 0)
        pruner = z5_pruner(X)
        with pytest.raises(BadKindForFace):
            pruner.satisfaction_graph((0, 1), f)

    def test_coloring_lands_in_link(self):
        X = complete_complex(12, 2)
        f = sample_labeling(X, 4, 5)
        pruner = z5_pruner(X)
        a, colors = face_colors(pruner, (7,), f)
        assert a == (0,)
        assert set(colors.tolist()) <= set(Z5_GENS)


Z13 = cyclic(13)
Z13_GENS = tuple(range(1, 13))


def perturbed_coboundary(X, pruner, rng, flip):
    """Z13 coboundary of an injective potential with a share of edges
    relabeled at random, so top and lower faces are mixed satisfied."""
    elems = coboundary_labeling(X, Z13, [v % 13 for v in X.vertices])
    f = elems.astype(np.int64) - 1
    hit = rng.random(len(f)) < flip
    f[hit] = rng.integers(0, 12, size=int(hit.sum()))
    return f


def multipartite_case(rng, dim, size, flip):
    """Top faces across dim + 1 of five vertex classes, with the Z5
    coboundary of the class index relabeled on a share of edges; links of
    such faces color onto complete Cayley links, so many are not degenerate."""
    faces = [
        face
        for parts in itertools.combinations(range(5), dim + 1)
        for face in itertools.product(*(range(p * size, (p + 1) * size) for p in parts))
    ]
    X = build_complex(dim, faces, 0.2 + rng.random(len(faces)))
    pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.5))
    f = np.array([(w // size - u // size) % 5 - 1 for u, w in pruner.X.faces(1)])
    hit = rng.random(len(f)) < flip
    f[hit] = rng.integers(0, 4, size=int(hit.sum()))
    return pruner, f


def assert_same_graph(got, want):
    assert got.sigma == want.sigma
    for name in ("graph", "link_graph"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is not None:
            assert g.vertices == w.vertices
            assert g.edges == w.edges
            assert np.abs(g.weights - w.weights).max() <= 1e-12
    assert got.missing == want.missing
    assert got.dropped_vertices == want.dropped_vertices


class TestSatisfactionGraphFastPath:
    """The cached-table path against the face-by-face reference."""

    def check_all_bases(self, pruner, f):
        seen = 0
        for ell in range(0, pruner.d - 1):
            for sigma in pruner.X.faces(ell):
                if not plain_face_satisfied(pruner, sigma, f):
                    continue
                want = plain_satisfaction_graph(pruner, sigma, f)
                assert_same_graph(pruner.satisfaction_graph(sigma, f), want)
                seen += 1
        return seen

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_k12_random_labelings(self, seed):
        X = complete_complex(12, 2)
        pruner = z5_pruner(X)
        assert self.check_all_bases(pruner, sample_labeling(X, 4, seed)) == 12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_k12_mixed_coboundary(self, seed):
        X = complete_complex(12, 2)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = perturbed_coboundary(X, pruner, np.random.default_rng(seed), 0.1)
        mask = pruner.satisfied_mask(f)
        assert 0 < mask.sum() < len(mask)
        assert self.check_all_bases(pruner, f) == 12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_dim3_complexes(self, seed):
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 9, dim=3, keep=0.5)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = perturbed_coboundary(X, pruner, rng, 0.1)
        # vertices and edges are always satisfied bases
        n_bases = len(X.vertices) + len(X.faces(1))
        assert self.check_all_bases(pruner, f) == n_bases

    @pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_multipartite_colorings(self, dim, seed):
        pruner, f = multipartite_case(np.random.default_rng(seed), dim, 3, 0.08)
        assert self.check_all_bases(pruner, f) > 0

    def test_dim4_triangle_bases(self):
        X = complete_complex(7, 4)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = perturbed_coboundary(X, pruner, np.random.default_rng(5), 0.05)
        assert self.check_all_bases(pruner, f) > len(X.vertices) + len(X.faces(1))

    def test_face_satisfied_matches_reference(self):
        X = complete_complex(12, 2)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = perturbed_coboundary(X, pruner, np.random.default_rng(7), 0.1)
        mask = pruner.satisfied_mask(f)
        for n, face in enumerate(X.top_faces):
            want = plain_face_satisfied(pruner, face, f)
            assert pruner.face_satisfied(face, f) == want == mask[n]

    @pytest.mark.parametrize("n, dim", [(8, 3), (7, 4)])
    def test_rows_ok_matches_reference(self, n, dim):
        """Rows of every width, as the link tables of NE events on edges and
        triangles pass them, and one face at a time."""
        X = complete_complex(n, dim)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = perturbed_coboundary(X, pruner, np.random.default_rng(7), 0.1)
        for ell in range(dim + 1):
            want = [plain_face_satisfied(pruner, s, f) for s in X.faces(ell)]
            assert pruner.rows_ok(f, X.level(ell).rows).tolist() == want
            assert [pruner.face_satisfied(s, f) for s in X.faces(ell)] == want
            if ell >= 2:  # a face without a triangle is always satisfied
                assert 0 < sum(want) < len(want)

    def test_mask_computed_at_most_once(self, monkeypatch):
        X = complete_complex(12, 2)
        pruner = z5_pruner(X)
        f = sample_labeling(X, 4, 3)
        mask = pruner.satisfied_mask(f)
        calls = []
        real = Pruner.satisfied_mask

        def counted(self, f):
            calls.append(1)
            return real(self, f)

        monkeypatch.setattr(Pruner, "satisfied_mask", counted)
        for v in X.vertices:
            calls.clear()
            pruner.satisfaction_graph((v,), f)
            assert len(calls) <= 1
        calls.clear()
        pruner.satisfaction_graph((0,), f, satisfied=mask)
        for face in X.top_faces:
            pruner.face_satisfied(face, f)
        assert calls == []


class TestEvalEvent:
    def test_at_single_generator_never_fires(self):
        g = cyclic(2)
        X = complete_complex(8, 2)
        config = PruneConfig(0.5, r=1.5)
        pruner = Pruner(X, g, (1,), config)
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        for v in X.vertices:
            assert not pruner.eval_event("AT", (v,), f)

    def test_at_fires_on_missing_tuple(self):
        X = complete_complex(8, 2)
        config = PruneConfig(0.5, r=1.5)
        pruner = Pruner(X, Z5, Z5_GENS, config)
        f = np.zeros(X.n_faces(1), dtype=np.int64)  # only one label used
        assert pruner.eval_event("AT", (0,), f)

    def test_at_top_dimension_rejected(self):
        X = complete_complex(6, 2)
        f = sample_labeling(X, 4, 0)
        pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.5))
        with pytest.raises(BadKindForFace):
            pruner.eval_event("AT", (0, 1, 2), f)

    def test_bc_matches_exhaustive_scan(self):
        group = cyclic(5)
        gens = validate_genset(group, [1, 4], require_generating=False)
        X = build_complex(2, [(0, 1, 2)])
        config = PruneConfig(0.5)
        elems = {0: 1, 1: 4}  # generator index -> element
        for labels in itertools.product(range(2), repeat=3):
            f = {(0, 1): labels[0], (1, 2): labels[1], (0, 2): labels[2]}
            pruner = Pruner(X, group, gens, config)
            realized = set()
            lab = {e: elems[i] for e, i in f.items()}
            for u, w in [(1, 2), (2, 1)]:
                prod = group.mul(
                    group.mul(
                        plain_directed_label(group, lab, 0, u),
                        plain_directed_label(group, lab, u, w),
                    ),
                    plain_directed_label(group, lab, w, 0),
                )
                realized.add(prod)
            expected = any(s not in realized for s in (1, 4))
            assert pruner.eval_bc((0,), label_array(X, f)) == expected

    def test_bc_true_case_exists(self):
        # labels 1,1,4 on the triangle realize only {2,3}, missing S
        group = cyclic(5)
        gens = validate_genset(group, [1, 4], require_generating=False)
        X = build_complex(2, [(0, 1, 2)])
        pruner = Pruner(X, group, gens, PruneConfig(0.5))
        f = label_array(X, {(0, 1): 0, (1, 2): 0, (0, 2): 1})
        assert pruner.eval_event("BC", (0,), f)

    def test_ne_disconnected_link(self):
        X = build_complex(2, [(0, 1, 2), (0, 3, 4)])
        f = coboundary_indices(X, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4})
        pruner = Pruner(X, Z5, Z5_GENS, PruneConfig.empirical(0.9))
        assert pruner.eval_event("NE", (0,), f)

    def test_ne_false_on_good_link(self, fixture30):
        X, pruner, outcome = fixture30
        for v in list(X.vertices)[:5]:
            assert not pruner.eval_ne((v,), outcome.labeling)

    def test_ec_event(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        pruner = Pruner(X, g, (1,), PruneConfig.empirical(0.5))
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        assert pruner.eval_event("EC", (0, 1), f)


class TestEventTables:
    """The array-built event tables and scopes against per-face loops."""

    @pytest.mark.parametrize(
        "X",
        [
            complete_complex(8, 2),
            relabeled(random_complex(np.random.default_rng(2), 9, 2, keep=0.5)),
            relabeled(random_complex(np.random.default_rng(3), 8, 3, keep=0.5)),
            # vertex links of 9 and more vertices with uneven weights, where
            # a pairwise sum of their masses departs from a sequential one
            random_complex(np.random.default_rng(4), 14, 2, keep=0.6),
        ],
    )
    def test_tables_and_scopes_match_loops(self, X):
        pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.9))
        for sigma in itertools.chain(*(X.faces(ell) for ell in range(X.dim))):
            vmeas, eidx, fwd = pruner._at_table(sigma)
            want = plain_at_table(pruner, sigma)
            assert np.array_equal(vmeas, want[0])
            assert np.array_equal(eidx, want[1]) and np.array_equal(fwd, want[2])
        f = sample_labeling(X, pruner.m, 0)
        for v in X.vertices:
            assert pruner.eval_bc((v,), f) == plain_eval_bc(pruner, v, f)
        # AT scopes at d-1 in the formula regime, EC scopes in the empirical
        # one; the BC scopes here are read off plain_bc_table
        for mode in MODES:
            pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.9, mode=mode))
            for kind, face in pruner.events():
                want = plain_event_scope(pruner, kind, face)
                assert pruner.event_scope(kind, face) == want


def test_pruner_memory_follows_the_complex():
    """A Pruner on 200 disjoint triangles keeps tables of its faces, not of
    vertex pairs: an n x n edge table alone would take 2.88 MB."""
    X = build_complex(2, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(200)])
    Pruner(X, Z5, Z5_GENS, PruneConfig(0.9))  # builds the complex's own levels
    tracemalloc.start()
    try:
        Pruner(X, Z5, Z5_GENS, PruneConfig(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3e6


def nonidentity_pruner(X, group, max_resamples=10_000):
    gens = validate_genset(group, range(1, group.order), require_generating=False)
    return Pruner(X, group, gens, PruneConfig.empirical(0.9, max_resamples))


SWEEP_GROUPS = {"S3": symmetric_group(3), "D5": dihedral(5), "Z6": cyclic(6)}


class TestSweeps:
    """The per-scan AT and BC sweeps and the triangle-once satisfied mask
    against the per-face references, on every event."""

    COMPLEXES = [
        complete_complex(8, 2),
        complete_complex(7, 3),
        relabeled(random_complex(np.random.default_rng(4), 9, 2, keep=0.3)),
        relabeled(random_complex(np.random.default_rng(5), 8, 3, keep=0.25)),
    ]

    @staticmethod
    def check(pruner, f, standalone=False):
        """Assert every AT, BC and mask answer equals the reference; returns
        the BC outcomes seen."""
        X = pruner.X
        for ell in range(pruner.d):
            hits = pruner.at_sweep(f, ell)
            for sigma in X.faces(ell):
                want = plain_eval_at(pruner, sigma, f)
                assert pruner.eval_at(sigma, f, hits) == want, sigma
                if standalone:
                    assert pruner.eval_at(sigma, f) == want, sigma
        hits = pruner.bc_sweep(f)
        seen = set()
        for v in X.vertices:
            want = plain_eval_bc(pruner, v, f)
            assert pruner.eval_bc((v,), f, hits) == want, v
            if standalone:
                assert pruner.eval_bc((v,), f) == want, v
            seen.add(want)
        want = [plain_face_satisfied(pruner, t, f) for t in X.top_faces]
        assert pruner.satisfied_mask(f).tolist() == want
        return seen

    @pytest.mark.parametrize("name", sorted(SWEEP_GROUPS))
    def test_random_labelings(self, name):
        seen = set()
        for i, X in enumerate(self.COMPLEXES):
            pruner = nonidentity_pruner(X, SWEEP_GROUPS[name])
            for seed in range(2):
                f = sample_labeling(X, pruner.m, 10 * i + seed)
                seen |= self.check(pruner, f, standalone=seed == 0)
        assert seen == {False, True}

    def test_labelings_along_exhausted_run(self):
        X = self.COMPLEXES[2]
        pruner = nonidentity_pruner(X, SWEEP_GROUPS["D5"], max_resamples=12)
        outcome = pruner.run(3)
        assert outcome.status == "budget_exhausted"
        # replay the run's draws to recover each labeling it scanned
        rng = np.random.default_rng(3)
        f = sample_labeling(X, pruner.m, rng)
        seen = self.check(pruner, f)
        for _, _, _, scope in outcome.transcript:
            f = f.copy()
            f[list(scope)] = rng.integers(0, pruner.m, size=len(scope))
            seen |= self.check(pruner, f)
        assert np.array_equal(f, outcome.labeling)
        assert seen == {False, True}

    def test_each_sweep_runs_at_most_once_per_scan(self, monkeypatch):
        X = self.COMPLEXES[3]
        f = sample_labeling(X, len(Z5_GENS), 1)
        calls = []
        real_at, real_bc = Pruner.at_sweep, Pruner.bc_sweep

        def at_sweep(self, f, ell):
            calls.append(("AT", ell))
            return real_at(self, f, ell)

        def bc_sweep(self, f, tri=None):
            calls.append(("BC",))
            return real_bc(self, f, tri)

        monkeypatch.setattr(Pruner, "at_sweep", at_sweep)
        monkeypatch.setattr(Pruner, "bc_sweep", bc_sweep)
        # AT runs through d-1 = 2 in the formula regime, through 1 otherwise
        for mode, top in (("formula", 2), ("empirical", 1)):
            pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.9, mode=mode))
            want = {ev: pruner.eval_event(*ev, f) for ev in pruner.events()}
            calls.clear()
            found = pruner.all_violations(f)
            assert found == tuple(ev for ev, hit in want.items() if hit)
            assert sorted(calls) == [("AT", ell) for ell in range(top + 1)] + [("BC",)]
            calls.clear()
            pruner.first_violated(f)
            assert len(calls) == len(set(calls)) <= top + 2
            # a standalone evaluation still runs its own sweep and agrees
            for kind, face in (("AT", X.faces(1)[0]), ("BC", X.faces(0)[-1])):
                calls.clear()
                assert pruner.eval_event(kind, face, f) == want[kind, face]
                assert len(calls) == 1


def s3_genset():
    """S3 generated by a 3-cycle, its inverse and a transposition (its own
    inverse), in the order of the group's elements."""
    group = symmetric_group(3)
    cycle = next(g for g in range(1, 6) if group.inv(g) != g)
    swap = next(g for g in range(1, 6) if group.inv(g) == g)
    return group, validate_genset(group, [cycle, group.inv(cycle), swap])


class TestScanPaths:
    """The flat group tables, the shared triangle gather, the EC block, the
    scope memo and the stacked NE solve against their references."""

    GENSETS = {
        "Z6": (cyclic(6), (1, 2, 3, 4, 5)),
        "S3": s3_genset(),
        "Z6-pair": (cyclic(6), (1, 5)),  # one generator the other's inverse
    }

    @pytest.mark.parametrize("name", sorted(GENSETS))
    def test_tables_and_sweeps(self, name):
        group, gens = self.GENSETS[name]
        seen = set()
        for i, X in enumerate(TestSweeps.COMPLEXES):
            pruner = Pruner(X, group, gens, PruneConfig.empirical(0.9))
            s, m = pruner.s_elems.tolist(), pruner.m
            for a, b in itertools.product(range(m), repeat=2):
                assert pruner.gen_mul[a * m + b] == group.mul(s[a], s[b])
                assert pruner.gen_div[a * m + b] == group.mul(s[a], group.inv(s[b]))
            for seed in range(3):
                f = sample_labeling(X, m, 10 * i + seed)
                tri = pruner.triangles(f)
                want = [plain_face_satisfied(pruner, t, f) for t in X.faces(2)]
                assert tri[-1].tolist() == want
                assert pruner.bc_sweep(f, tri).tolist() == pruner.bc_sweep(f).tolist()
                assert pruner.satisfied_mask(f, tri).tolist() == pruner.satisfied_mask(f).tolist()
                seen |= TestSweeps.check(pruner, f)
        assert True in seen or name == "Z6-pair"  # there 1 or 5 closes nearly every loop

    @pytest.mark.parametrize(
        "X",
        [
            complete_complex(8, 2),
            relabeled(random_complex(np.random.default_rng(6), 9, 2, keep=0.4)),
            relabeled(random_complex(np.random.default_rng(7), 8, 3, keep=0.3), 5, 2),
        ],
    )
    def test_ec_block_matches_event_by_event_scan(self, X):
        pruner = nonidentity_pruner(X, cyclic(6))
        # the block is the (d-1)-faces in face order, whatever the labels
        assert [s for kind, s in pruner.events() if kind == "EC"] == list(X.faces(X.dim - 1))
        seen = set()
        for seed in range(6):
            f = sample_labeling(X, pruner.m, seed)
            want = tuple(ev for ev in pruner.events() if pruner.eval_event(*ev, f))
            assert pruner.all_violations(f) == want
            assert pruner.first_violated(f) == plain_first_violated(pruner, f)
            seen |= {kind for kind, _ in want}
        assert "EC" in seen

    def test_ec_block_first(self):
        """With one generator of Z2 no triangle is satisfied, while AT and
        BC cannot fire, so every EC event is violated and the first one is
        the scan's first violation."""
        X = relabeled(random_complex(np.random.default_rng(8), 9, 2, keep=0.4), 7, 3)
        pruner = Pruner(X, cyclic(2), (1,), PruneConfig.empirical(0.9))
        f = sample_labeling(X, 1, 0)
        ec = [ev for ev in pruner.events() if ev[0] == "EC"]
        assert len(ec) == X.n_faces(1)
        assert pruner.first_violated(f) == plain_first_violated(pruner, f) == ec[0]
        # the NE events after them need a Cayley complex that Z2 lacks
        assert list(itertools.islice(pruner.violations(f), len(ec))) == ec

    def test_scopes_computed_once(self, monkeypatch):
        X = TestSweeps.COMPLEXES[3]
        real = Pruner.scope_of
        for mode in MODES:
            pruner = Pruner(X, Z5, Z5_GENS, PruneConfig(0.9, mode=mode, max_resamples=40))
            calls = []

            def scope_of(self, kind, face):
                calls.append((kind, face))
                return real(self, kind, face)

            monkeypatch.setattr(Pruner, "scope_of", scope_of)
            outcome = pruner.run(1)
            monkeypatch.undo()
            drawn = {(kind, face) for _, kind, face, _ in outcome.transcript}
            assert outcome.resamples > len(drawn)  # some event was resampled twice
            assert len(calls) == len(set(calls)) == len(drawn)
            fresh = Pruner(X, Z5, Z5_GENS, PruneConfig(0.9, mode=mode))
            for kind, face in pruner.events():
                got = pruner.event_scope(kind, face)
                assert got is pruner.event_scope(kind, face)
                assert got == real(fresh, kind, face) == plain_event_scope(pruner, kind, face)

    def test_stacked_ne_solve(self, fixture30):
        """ne_verdicts against per-graph adjacency_spectrum verdicts at
        thresholds on and around each graph's own value, face by face and,
        at the target, on the whole level at once, on the clean labeling of
        fixture30 and on copies with a few labels redrawn."""
        X, pruner, outcome = fixture30
        rng, verdicts, lam_t = np.random.default_rng(0), set(), pruner.config.lambda_target
        for flips in (0, 5, 40):
            f = outcome.labeling.copy()
            f[rng.choice(len(f), flips, replace=False)] = rng.integers(0, pruner.m, flips)
            level, want = pruner.satisfaction_arrays(0, slice(None), f), []
            for i, sigma in enumerate(X.faces(0)):
                sa, sg = pruner.satisfaction_arrays(0, slice(i, i + 1), f), \
                    pruner.satisfaction_graph(sigma, f)
                if sg.graph is None or sg.dropped_vertices:
                    assert ne_verdicts(sa, 1.0)[0] and ne_verdicts(sa, 1.0, True)[0]
                    want.append(True)
                    continue
                lam = [adjacency_spectrum(g).two_sided for g in (sg.graph, sg.link_graph)]
                for t in [x + e for x in lam for e in (-2e-9, -1e-9, 0.0, 1e-9)]:
                    assert ne_verdicts(sa, t)[0] == (lam[0] > t + 1e-9)
                    got = ne_verdicts(sa, t, link_measure=True)[0]
                    assert got == any(x > t + 1e-9 for x in lam)
                    verdicts.add(bool(got))
                want.append(any(x > lam_t + 1e-9 for x in lam))
            assert ne_verdicts(level, lam_t, link_measure=True).tolist() == want
        assert verdicts == {False, True}

    def test_rows_without_triangles_gather_no_labels(self, monkeypatch):
        """At d = 2 a vertex and the rows of a vertex link hold no triangle:
        each is satisfied, and keys_ok reads no label for it."""
        X = complete_complex(8, 2)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = np.random.default_rng(0).integers(0, pruner.m, X.n_faces(1))
        tables = [link_table(pruner, (v,)) for v in X.vertices]
        monkeypatch.setattr(Pruner, "triangles", lambda *args: pytest.fail("gathered"))
        for v, table in zip(X.vertices, tables):
            assert pruner.keys_ok(f, table.vert_rows).tolist() == [True] * len(table.verts)
            assert pruner.face_satisfied((v,), f)

    @pytest.mark.parametrize("n, dim", [(8, 3), (7, 4)])
    def test_link_tables_keep_triangle_edges(self, monkeypatch, n, dim):
        """At d >= 3 a level table's rows are kept as their triangles' edge
        positions, so deciding a level's satisfaction graphs looks no edge up."""
        X = complete_complex(n, dim)
        pruner = Pruner(X, Z13, Z13_GENS, PruneConfig(0.5))
        f = perturbed_coboundary(X, pruner, np.random.default_rng(3), 0.1)
        want = {}
        for ell in range(dim - 1):
            for sigma in X.faces(ell):
                table = link_table(pruner, sigma)
                rows = [sigma + (v,) for v in table.verts]
                assert pruner.keys_ok(f, table.vert_rows).tolist() == [
                    plain_face_satisfied(pruner, r, f) for r in rows]
            want[ell] = pruner.satisfaction_arrays(ell, slice(None), f)
        lookups = []
        face_index = type(X).face_index
        monkeypatch.setattr(type(X), "face_index",
                            lambda self, rows: lookups.append(1) or face_index(self, rows))
        for ell in range(dim - 1):
            got = pruner.satisfaction_arrays(ell, slice(None), f)
            assert repr(got) == repr(want[ell])
            assert 0 < got.ok.sum() and len(got.eface) > 0
        assert lookups == []


class TestAuditReadsLevelArrays:
    """measure_ratio_audit reads the satisfaction graphs of a level off one
    satisfaction_arrays call, whatever scan came before, and builds no
    graph of its own."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"satisfaction_graph": [], "satisfaction_arrays": []}
        for name in calls:
            real = getattr(Pruner, name)

            def spy(self, *args, name=name, real=real):
                calls[name].append(args[0])
                return real(self, *args)

            monkeypatch.setattr(Pruner, name, spy)
        return calls

    def test_one_call(self, monkeypatch):
        X = complete_complex(30, 2)
        pruner = z5_pruner(X)
        outcome = pruner.run(2)
        assert outcome.status == "clean"
        f, y = outcome.labeling, outcome.y
        # other labels, and a fresh pruner with no scan behind it, read the
        # level the same way, to the reference's reports
        g = f.copy()
        g[0] = (g[0] + 1) % pruner.m
        y2 = pruner.f_pruning(g)[0]
        cases = [(pruner, y, f.copy()), (pruner, y2, g), (z5_pruner(X), y, f)]
        wants = [plain_ratio_level(*case, 0) for case in cases]
        assert len(wants[0]) == X.n_faces(0) and wants[1] != wants[0]
        calls = self.counted(monkeypatch)
        for case, want in zip(cases, wants):
            assert repr(measure_ratio_audit(*case, 0)) == repr(want)
            assert calls == {"satisfaction_graph": [], "satisfaction_arrays": [0]}
            calls["satisfaction_arrays"].clear()


class TestMoserTardos:
    def test_deterministic_transcript(self):
        X = complete_complex(30, 2)
        config = PruneConfig.empirical(0.9, max_resamples=10_000)
        a = Pruner(X, Z5, Z5_GENS, config).run(1)
        b = Pruner(X, Z5, Z5_GENS, config).run(1)
        assert a.transcript == b.transcript
        assert (a.labeling == b.labeling).all()
        assert a.status == b.status == "clean"

    def test_clean_means_no_event_fires(self, fixture30):
        X, pruner, outcome = fixture30
        assert outcome.status == "clean"
        assert pruner.all_violations(outcome.labeling) == ()

    def test_budget_exhausted_reports_remaining(self):
        X = complete_complex(12, 2)
        config = PruneConfig.empirical(0.9, max_resamples=3)
        out = Pruner(X, Z5, Z5_GENS, config).run(0)
        assert out.status == "budget_exhausted"
        assert out.resamples == 3
        assert out.violations_remaining

    def test_zero_resample_seed(self):
        X = complete_complex(30, 2)
        config = PruneConfig.empirical(0.9, max_resamples=10)
        out = Pruner(X, Z5, Z5_GENS, config).run(37)
        assert out.status == "clean"
        assert out.resamples == 0

    def test_resampling_stays_inside_scope(self, fixture30):
        X, pruner, _ = fixture30
        config = pruner.config
        rng = np.random.default_rng(5)
        f = sample_labeling(X, 4, rng)
        violated = pruner.first_violated(f)
        if violated is None:
            pytest.skip("seed starts clean")
        kind, face = violated
        scope = set(pruner.event_scope(kind, face))
        g = f.copy()
        g[list(scope)] = rng.integers(0, 4, size=len(scope))
        changed = {i for i in range(len(f)) if f[i] != g[i]}
        assert changed <= scope

    def test_clean_links_match_satisfaction_graphs(self, fixture30):
        X, pruner, outcome = fixture30
        y = outcome.y
        for v in list(y.vertices)[:8]:
            sg = pruner.satisfaction_graph((v,), outcome.labeling)
            link = y.link((v,))
            assert set(link.faces(0)) == {(u,) for u in sg.graph.vertices}
            assert set(link.faces(1)) == set(sg.graph.edges)

    def test_clean_is_hdx_at_config_lambda(self, fixture30):
        X, pruner, outcome = fixture30
        rep = is_hdx(outcome.y, pruner.config.lambda_target)
        assert rep.passes


def measured(pruner, Y, f):
    """pruned_measure, checked bit for bit against the dict reference."""
    return checked(pruned_measure, plain_pruned_measure, same_measure, pruner, Y, f)


class TestPrunedMeasure:
    @pytest.mark.parametrize(
        "n, gens, r, seed",
        [(6, [1, 2, 3, 4, 5], 2.0, 1), (5, [1, 2, 3, 4], 1.5, 2)],
        ids=["cover-family-z6", "prune-k30"],
    )
    def test_benchmark_clean_outcomes(self, n, gens, r, seed):
        # the K30 prunes of the cover-family-z6 and prune-k30 benchmarks
        group = cyclic(n)
        pruner = Pruner(complete_complex(30, 2), group, validate_genset(group, gens),
                        PruneConfig.empirical(0.9, r=r))
        outcome = pruner.run(stage_seed(seed, "prune"))
        assert outcome.status == "clean"
        assert measured(pruner, outcome.y, outcome.labeling).total == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_three_dimensional_weighted(self, seed):
        # at d = 3 each orientation adds one of 3! equal shares in turn, and
        # uneven weights make that sum differ from 6 times the share
        rng = np.random.default_rng(seed)
        X = build_complex(3, list(itertools.combinations(range(5), 4)),
                          0.2 + rng.random(5))
        f = coboundary_indices(X, dict(enumerate(rng.permutation(5).tolist())))
        pruner = z5_pruner(X)
        assert measured(pruner, X, f).total == pytest.approx(1.0)

    def test_face_outside_the_complex_raises(self):
        pruner = z5_pruner(complete_complex(5, 2))
        f = np.zeros(pruner.X.n_faces(1), dtype=np.int64)
        with pytest.raises(NotAFace):
            pruned_measure(pruner, build_complex(2, [(3, 4, 5)]), f)

    def test_coboundary_measure_totals_one(self):
        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        pm = measured(pruner, X, f)
        assert pm.total == pytest.approx(1.0, abs=1e-12)
        # every ordered identity-link pattern is realized
        cayley = cayley_clique_complex(Z5, Z5_GENS, 2)
        c_e = cayley.complex.link((0,))
        n_patterns = len(c_e.top_faces) * 2
        assert len(pm.patterns) == n_patterns

    def test_missing_pattern_unmeasurable(self):
        X = build_complex(2, [(0, 1, 2)])
        f = coboundary_indices(X, {0: 0, 1: 1, 2: 2})
        pruner = z5_pruner(X)
        with pytest.raises(Unmeasurable) as err:
            measured(pruner, X, f)
        assert err.value.witness is not None

    def test_clean_run_measures(self, fixture30):
        X, pruner, outcome = fixture30
        pm = measured(pruner, outcome.y, outcome.labeling)
        assert pm.total == pytest.approx(1.0, abs=1e-9)
        assert (pm.weights >= 0).all()

    def test_orientations_exchangeable_on_uniform_fixture(self):
        # on the fully symmetric fixture every orientation of a face has
        # the same probability, so unordered mass = (d+1)! * oriented mass
        import itertools as it

        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        pm = measured(pruner, X, f)
        lab = {e: Z5_GENS[i] for e, i in zip(X.faces(1), f)}

        def dir_el(u, v):
            g = lab[tuple(sorted((u, v)))]
            return g if u < v else Z5.inv(g)

        face = X.top_faces[0]
        w = X.weights[0]
        per_orientation = []
        for perm in it.permutations(face):
            pat = tuple(dir_el(perm[0], x) for x in perm[1:])
            per_orientation.append(
                (1 / 6 / 2) * (w / 6) / pm.patterns[pat]
            )
        assert np.allclose(per_orientation, per_orientation[0])
        idx = X.top_faces.index(face)
        assert pm.weights[idx] == pytest.approx(6 * per_orientation[0])


def face_report(reports, sigma):
    (rep,) = [r for r in reports if r.sigma == sigma]
    return rep


def plain_ratio_level(pruner, Y, f, ell):
    """The per-face reference over faces(ell) as the clean-prune audit took
    it: unsatisfied faces skipped, ending at the first support mismatch."""
    out = []
    for sigma in pruner.X.faces(ell):
        try:
            rep = plain_measure_ratio_audit(pruner, Y, f, sigma)
        except UnsatisfiedBase:
            continue
        out.append(rep)
        if not rep.support_matches:
            break
    return tuple(out)


def ratio_level_matches(pruner, Y, f, ell):
    """measure_ratio_audit at level ell equals the per-face reference bit for
    bit (repr shows every float exactly), or raises its exception type with
    its message; returns the reports or the exception."""
    try:
        want = plain_ratio_level(pruner, Y, f, ell)
    except HdxError as exc:
        with pytest.raises(type(exc)) as err:
            measure_ratio_audit(pruner, Y, f, ell)
        assert str(err.value) == str(exc)
        return err.value
    got = measure_ratio_audit(pruner, Y, f, ell)
    assert got == want and repr(got) == repr(want)
    return got


def z7_pruner(X, r=1.5):
    group = cyclic(7)
    return Pruner(X, group, validate_genset(group, range(1, 7)),
                  PruneConfig.empirical(0.9, r=r))


def z7_coboundary(X):
    """Generator indices of the coboundary of v -> v in Z7 (gens 1..6):
    every face is satisfied."""
    u, v = X.level(1).rows.T
    return (np.asarray(X.vertices)[v] - np.asarray(X.vertices)[u]) % 7 - 1


def uneven_complete(n, dim, seed):
    rng = np.random.default_rng(seed)
    faces = list(itertools.combinations(range(n), dim + 1))
    return build_complex(dim, faces, 0.2 + rng.random(len(faces)))


class TestMeasureRatio:
    def test_coboundary_uniform_ratio_one(self):
        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        y, _, _ = pruner.f_pruning(f)
        rep = face_report(measure_ratio_audit(pruner, y, f, 0), (0,))
        assert rep.support_matches
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_clean_run_within_bound(self, fixture30):
        X, pruner, outcome = fixture30
        rep = face_report(measure_ratio_audit(pruner, outcome.y, outcome.labeling, 0), (4,))
        assert ratio_ok(rep)
        assert rep.max_ratio <= 1.5 ** 30

    def test_bound_monotone_in_r(self):
        X = complete_complex(5, 2)
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner_small = Pruner(X, Z5, Z5_GENS, PruneConfig(0.5, r=1.2))
        pruner_large = Pruner(X, Z5, Z5_GENS, PruneConfig(0.5, r=2.0))
        arr = f
        y, _, _ = pruner_small.f_pruning(arr)
        small = face_report(measure_ratio_audit(pruner_small, y, arr, 0), (0,))
        large = face_report(measure_ratio_audit(pruner_large, y, arr, 0), (0,))
        assert small.bound < large.bound
        assert small.max_ratio == pytest.approx(large.max_ratio)

    @pytest.mark.parametrize("name", ["cover-family-z6", "prune-k30"])
    def test_level_pass_on_benchmark_ys(self, benchmark_prunes, name):
        pruner, out = benchmark_prunes[name]
        reports = ratio_level_matches(pruner, out.y, out.labeling, 0)
        assert len(reports) == 30 and all(r.support_matches for r in reports)
        assert any(r.witness for r in reports)

    @pytest.mark.parametrize("dim, seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_level_pass_uneven_weights(self, dim, seed):
        X = uneven_complete(7, dim, seed)
        pruner = z7_pruner(X)
        f = z7_coboundary(X)
        for ell in range(dim - 1):
            reports = ratio_level_matches(pruner, X, f, ell)
            assert len(reports) == X.n_faces(ell)
            assert all(r.support_matches and r.witness for r in reports)
        # break a few labels: unsatisfied faces drop out, and the rest
        # match, mismatch or fail as face by face
        rng = np.random.default_rng(seed)
        for _ in range(4):
            g = f.copy()
            g[rng.choice(len(g), 2, replace=False)] = rng.integers(0, 6, 2)
            y, _, _ = pruner.f_pruning(g)
            for ell in range(dim - 1):
                ratio_level_matches(pruner, y, g, ell)

    def test_level_pass_off_a_subcomplex(self):
        X = uneven_complete(7, 2, 4)
        pruner, f = z7_pruner(X), z7_coboundary(X)
        # relabeled: no face of X is a face of Y
        err = ratio_level_matches(pruner, relabeled(X), f, 0)
        assert isinstance(err, NotAFace)
        # one extra top face on a new vertex: vertex 0's link differs
        Y = build_complex(2, list(X.top_faces) + [(0, 1, 9)])
        reports = ratio_level_matches(pruner, Y, f, 0)
        assert [r.support_matches for r in reports] == [False]
        # Y misses vertex 0, the first face
        Y = X.restrict([i for i, t in enumerate(X.top_faces) if 0 not in t])
        assert isinstance(ratio_level_matches(pruner, Y, f, 0), NotAFace)

    def test_level_pass_support_mismatch(self):
        X = uneven_complete(7, 2, 5)
        pruner, f = z7_pruner(X), z7_coboundary(X)
        # without top face (2, 3, 4) the links of 2, 3 and 4 lose an edge
        Y = X.restrict([i for i, t in enumerate(X.top_faces) if t != (2, 3, 4)])
        reports = ratio_level_matches(pruner, Y, f, 0)
        assert [r.sigma for r in reports] == [(0,), (1,), (2,)]
        assert [r.support_matches for r in reports] == [True, True, False]
        assert reports[-1].witness == () and reports[-1].max_ratio == 1.0

    def test_level_pass_witness_tie(self):
        # vertex 0's link edges 12 and 34 are equally heavy; every link
        # vertex meets one of them, so vertex ratios are 1 and the first
        # heavy edge is the witness
        faces = list(itertools.combinations(range(5), 3))
        heavy = {(0, 1, 2), (0, 3, 4)}
        X = build_complex(2, faces, [3.0 if t in heavy else 1.0 for t in faces])
        f = coboundary_indices(X, {i: i for i in range(5)})
        pruner = z5_pruner(X)
        rep = face_report(ratio_level_matches(pruner, X, f, 0), (0,))
        skel = X.link_skeleton((0,))
        sg = pruner.satisfaction_graph((0,), f).graph
        ratios = np.maximum(skel.weights / sg.weights, sg.weights / skel.weights)
        assert list(ratios).count(rep.max_ratio) == 2
        assert rep.witness == ("edge", (1, 2))

    def test_level_pass_unmeasurable(self):
        X = build_complex(2, [(0, 1, 2)])
        f = coboundary_indices(X, {0: 0, 1: 1, 2: 2})
        err = ratio_level_matches(z5_pruner(X), X, f, 0)
        assert isinstance(err, Unmeasurable) and err.witness == (0,)

    def test_level_pass_above_d_minus_2(self):
        X = complete_complex(5, 2)
        with pytest.raises(BadKindForFace):
            measure_ratio_audit(z5_pruner(X), X, np.zeros(10, dtype=int), 1)


class TestFractions:
    def test_face_fraction_report(self, fixture30):
        X, pruner, outcome = fixture30
        fr = face_fraction_report(X, outcome.y)
        assert fr[0] == 1.0 and fr[1] == 1.0
        m = len(Z5_GENS)
        assert fr[2] >= (1 / (2 * m**2)) ** 2


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PruneConfig(lambda_target=1.5)
        with pytest.raises(ValueError):
            PruneConfig(lambda_target=0.5, r=0.9)
        with pytest.raises(ValueError):
            PruneConfig(lambda_target=0.5, max_resamples=0)
        with pytest.raises(ValueError, match="unknown prune mode 'exact'"):
            PruneConfig(lambda_target=0.5, mode="exact")

    @staticmethod
    def event_dims(config):
        pruner = Pruner(complete_complex(6, 3), Z5, Z5_GENS, config)
        dims = {}
        for kind, face in pruner.events():
            dims.setdefault(kind, set()).add(len(face) - 1)
        return dims

    def test_formula_defaults(self):
        cfg = PruneConfig(0.6)
        assert cfg.mode == "formula"
        assert self.event_dims(cfg) == {"AT": {0, 1, 2}, "BC": {0}, "NE": {0, 1}}

    def test_empirical_defaults(self):
        cfg = PruneConfig.empirical(0.9)
        assert cfg == PruneConfig(0.9, mode="empirical")
        assert self.event_dims(cfg) == {"AT": {0, 1}, "BC": {0}, "EC": {2}, "NE": {0, 1}}

    def test_at_bounds(self):
        cfg = PruneConfig(0.5, r=2.0)
        lo, hi = cfg.at_bounds(1, 4)
        assert lo == pytest.approx(1 / 64)
        assert hi == pytest.approx(0.25)

    def test_event_ordering(self):
        X = complete_complex(6, 2)
        pruner = z5_pruner(X)
        kinds = [k for k, _ in pruner.events()]
        assert kinds == sorted(kinds)
