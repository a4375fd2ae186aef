import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdxcover.complexes import (
    build_complex,
    check_suitable,
    complete_complex,
    complex_from_dict,
    complex_to_dict,
    tensor_with_complete,
)
from hdxcover.errors import (
    BadLevel,
    BadParameter,
    DuplicateFace,
    NonPure,
    NotAFace,
    TooSmallT,
    TopFace,
    ZeroMeasure,
)
from hdxcover.covers import build_cover
from hdxcover.groups import cayley_clique_complex, cyclic, dihedral, symmetric_group
from hdxcover.spectral import adjacency_spectrum

from helpers import (
    brute_check_suitable,
    brute_face_measure,
    degree,
    coboundary_labeling,
    cycle_complex,
    has_edge,
    oriented_face_measure,
    per_face_link_skeleton,
    plain_cofaces,
    plain_link_skeleton,
    random_complex,
    relabeled,
)


class TestBuild:
    def test_uniform_normalization(self):
        X = build_complex(2, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        assert np.allclose(X.weights, 0.25)
        assert X.dim == 2

    def test_non_pure(self):
        with pytest.raises(NonPure):
            build_complex(2, [(1, 2, 3), (1, 2, 4, 5)])

    def test_negative_complete_dimension(self):
        with pytest.raises(BadParameter, match="dimension >= 0, got -3"):
            complete_complex(6, -3)

    def test_cycle(self):
        X = cycle_complex(6)
        assert X.dim == 1
        assert len(X.top_faces) == 6
        assert np.allclose(X.weights, 1 / 6)

    def test_duplicate_face(self):
        with pytest.raises(DuplicateFace):
            build_complex(1, [(0, 1), (1, 0)])

    def test_zero_measure(self):
        with pytest.raises(ZeroMeasure):
            build_complex(1, [(0, 1), (1, 2)], [0.0, 0.0])

    def test_zero_weight_faces_dropped(self):
        X = build_complex(1, [(0, 1), (1, 2), (2, 3)], [1.0, 0.0, 1.0])
        assert (1, 2) not in X.top_faces
        assert len(X.top_faces) == 2

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            build_complex(1, [(0, 1)], [-1.0])

    def test_infinite_weight_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_complex(1, [(0, 1), (1, 2)], [1.0, np.inf])

    def test_nan_weight_rejected(self):
        # nan fails `weights > 0`, so without the check the face is dropped
        with pytest.raises(ValueError, match="non-finite"):
            build_complex(1, [(0, 1), (1, 2)], [1.0, np.nan])

    def test_overflowing_weights_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            build_complex(1, [(0, 1), (1, 2)], [1e308, 1e308])

    def test_json_roundtrip(self):
        X = random_complex(np.random.default_rng(3), 6, 2)
        Y = complex_from_dict(complex_to_dict(X))
        assert Y.top_faces == X.top_faces
        assert np.allclose(Y.weights, X.weights)


class TestFaceMeasure:
    def test_complete_vertex(self):
        X = complete_complex(4, 2)
        assert X.face_measure((0,)) == pytest.approx(0.25)

    def test_complete_edge(self):
        # each edge lies in 2 of the 4 triangles
        X = complete_complex(4, 2)
        assert X.face_measure((0, 1)) == pytest.approx(1 / 6)

    def test_nonuniform_matches_brute_force(self):
        X = build_complex(2, [(0, 1, 2), (0, 1, 3), (1, 2, 3)], [0.5, 0.3, 0.2])
        for s in [(1,), (0, 1), (1, 2), (0, 1, 2)]:
            assert X.face_measure(s) == pytest.approx(brute_face_measure(X, s))

    def test_not_a_face(self):
        X = complete_complex(4, 2)
        with pytest.raises(NotAFace):
            X.face_measure((0, 9))

    def test_empty_face(self):
        X = complete_complex(5, 2)
        assert X.face_measure(()) == 1.0

    def test_oriented(self):
        X = complete_complex(5, 2)
        assert oriented_face_measure(X, (2, 0)) == pytest.approx(
            X.face_measure((0, 2)) / 2
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2))
    def test_level_mass_is_one(self, seed, dim):
        X = random_complex(np.random.default_rng(seed), 6, dim)
        for k in range(-1, X.dim + 1):
            total = sum(X.face_measure(s) for s in X.faces(k))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestLink:
    def test_complete_link_is_complete(self):
        X = complete_complex(6, 2)
        L = X.link((0,))
        assert L.dim == 1
        assert len(L.top_faces) == math.comb(5, 2)
        assert np.allclose(L.weights, 1 / 10)

    def test_link_of_empty_is_identity(self):
        X = complete_complex(5, 2)
        assert X.link(()) is X

    def test_weighted_link(self):
        X = build_complex(2, [(1, 2, 3), (1, 2, 4), (1, 3, 4)], [0.5, 0.25, 0.25])
        L = X.link((1,))
        got = {f: w for f, w in zip(L.top_faces, L.weights)}
        assert got[(2, 3)] == pytest.approx(0.5)
        assert got[(2, 4)] == pytest.approx(0.25)
        assert got[(3, 4)] == pytest.approx(0.25)

    def test_top_face_link(self):
        X = complete_complex(4, 2)
        with pytest.raises(TopFace):
            X.link((0, 1, 2))

    def test_link_of_link(self):
        X = random_complex(np.random.default_rng(7), 7, 2)
        s, t = (0,), (1,)
        if not X.has_face((0, 1)):
            pytest.skip("fixture lacks the face")
        L1 = X.link(s).link(t)
        L2 = X.link((0, 1))
        assert L1.top_faces == L2.top_faces
        assert np.allclose(L1.weights, L2.weights)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_link_measure_identity(self, seed):
        # oriented prefix identity: P_link(tail) * P(prefix) == P(joint)
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 6, 2)
        face = X.top_faces[int(rng.integers(len(X.top_faces)))]
        u, v, w = face
        left = oriented_face_measure(X.link((u,)), (v, w))
        assert left * oriented_face_measure(X, (u,)) == pytest.approx(
            oriented_face_measure(X, (u, v, w)), abs=1e-9
        )


class TestOneSkeleton:
    def test_complete(self):
        G = complete_complex(6, 2).one_skeleton()
        assert G.n == 6 and G.m == 15
        assert np.allclose(G.weights, 1 / 15)

    def test_cycle_identity(self):
        X = cycle_complex(6)
        G = X.one_skeleton()
        assert set(G.edges) == set(X.top_faces)
        assert np.allclose(G.weights, 1 / 6)

    def test_vertex_measure_halves_edges(self):
        G = random_complex(np.random.default_rng(1), 7, 2).one_skeleton()
        for v, nu in zip(G.vertices, G.vertex_measures()):
            total = sum(
                w for (a, b), w in zip(G.edges, G.weights) if v in (a, b)
            )
            assert nu == pytest.approx(total / 2, abs=1e-9)

    def test_link_composition(self):
        X = random_complex(np.random.default_rng(5), 7, 2)
        v = X.vertices[0]
        G = X.link((v,)).one_skeleton()
        L = X.link((v,))
        for e, w in zip(G.edges, G.weights):
            assert w == pytest.approx(L.face_measure(e), abs=1e-9)

    def test_zero_dim_has_no_skeleton(self):
        X = build_complex(0, [(0,), (1,)])
        with pytest.raises(BadLevel):
            X.one_skeleton()


def _skeleton_inputs():
    rng = np.random.default_rng(11)
    out = []
    for dim, n in ((2, 8), (3, 8), (4, 8)):
        for i in range(2):
            out.append((f"random-d{dim}-{i}", random_complex(rng, n, dim, keep=0.6)))
    for name, g, seeds, dim in (
        ("Z7", cyclic(7), (1, 2), 2),
        ("D5", dihedral(5), (1, 5, 6), 2),
        ("S4", symmetric_group(4), (1, 2, 3, 5), 3),
    ):
        gens = sorted({h for x in seeds for h in (x, g.inv(x))})
        out.append((f"cayley-{name}", cayley_clique_complex(g, gens, dim).complex))
    for dim in (2, 3):
        X = random_complex(rng, 7, dim, keep=0.7)
        g = cyclic(3)
        f = coboundary_labeling(X, g, [int(rng.integers(3)) for v in X.vertices])
        out.append((f"cover-d{dim}", build_cover(X, f, g).complex))
    return out


SKELETON_INPUTS = _skeleton_inputs()


class TestLinkSkeleton:
    """The top-face-array skeleton against the link-complex reference."""

    @pytest.mark.parametrize(
        "X", [x for _, x in SKELETON_INPUTS], ids=[i for i, _ in SKELETON_INPUTS]
    )
    def test_matches_reference(self, X):
        faces = [s for k in range(-1, X.dim - 1) for s in X.faces(k)]
        assert () in faces
        for s in faces:
            new, ref = X.link_skeleton(s), plain_link_skeleton(X, s)
            assert new.vertices == ref.vertices
            assert new.edges == ref.edges
            assert np.abs(new.weights - ref.weights).max() <= 1e-12
            assert np.abs(new.vertex_measures() - ref.vertex_measures()).max() <= 1e-12
            ev_new = np.array(adjacency_spectrum(new).eigenvalues)
            ev_ref = np.array(adjacency_spectrum(ref).eigenvalues)
            assert np.abs(ev_new - ev_ref).max() <= 1e-12

    @pytest.mark.parametrize(
        "X", [x for _, x in SKELETON_INPUTS], ids=[i for i, _ in SKELETON_INPUTS]
    )
    def test_bit_for_bit_per_face(self, X):
        # link_skeleton is the one-face block of link_blocks' arrays
        for s in (s for k in range(-1, X.dim - 1) for s in X.faces(k)):
            new, ref = X.link_skeleton(s), per_face_link_skeleton(X, s)
            assert new.vertices == ref.vertices
            assert np.array_equal(new.ends, ref.ends)
            assert new.weights.tobytes() == ref.weights.tobytes()
            assert new.vertex_measures().tobytes() == ref.vertex_measures().tobytes()

    def test_one_skeleton_is_the_empty_face(self):
        X = random_complex(np.random.default_rng(4), 7, 3)
        G = X.one_skeleton()
        assert G.edges == X.faces(1)
        for e, w in zip(G.edges, G.weights):
            assert w == pytest.approx(X.face_measure(e), abs=1e-12)

    def test_errors_match_link(self):
        X = complete_complex(5, 2)
        with pytest.raises(TopFace):
            X.link_skeleton((0, 1, 2))
        with pytest.raises(BadLevel):
            X.link_skeleton((0, 1))
        with pytest.raises(NotAFace):
            X.link_skeleton((0, 9))


def _face_index_inputs():
    rng = np.random.default_rng(13)
    out = [("K12-d2", complete_complex(12, 2)), ("K9-d3", complete_complex(9, 3))]
    for name, g, seeds, dim in (
        ("Z13", cyclic(13), (1, 3, 4), 2),
        ("S4", symmetric_group(4), (1, 2, 3, 5), 3),
    ):
        gens = sorted({h for x in seeds for h in (x, g.inv(x))})
        out.append((f"cayley-{name}", cayley_clique_complex(g, gens, dim).complex))
    X, z6 = random_complex(rng, 7, 2), cyclic(6)
    f = coboundary_labeling(X, z6, [int(rng.integers(6)) for v in X.vertices])
    out.append(("cover-Z6", build_cover(X, f, z6).complex))
    out.append(("relabeled", relabeled(random_complex(rng, 8, 3, keep=0.5))))
    faces = list(itertools.combinations(range(7), 3))
    weights = 0.2 + rng.random(len(faces))
    weights[::3] = 0.0
    out.append(("zero-weights-dropped", build_complex(2, faces, weights)))
    return out


FACE_INDEX_INPUTS = _face_index_inputs()


class TestFaceIndex:
    """The lazily built face index against the subset-enumerating reference."""

    @pytest.mark.parametrize(
        "X", [x for _, x in FACE_INDEX_INPUTS], ids=[i for i, _ in FACE_INDEX_INPUTS]
    )
    def test_matches_reference(self, X):
        ref = plain_cofaces(X)
        levels = [
            tuple(sorted(s for s in ref if len(s) == k + 1)) for k in range(X.dim + 1)
        ]
        for k, expected in enumerate(levels):
            assert X.faces(k) == expected
            assert X.n_faces(k) == len(expected)
        for s, idx in ref.items():
            got = X.cofaces(s)
            assert got.dtype == np.intp
            assert got.tolist() == idx.tolist()
            assert X.has_face(s)
        for faces in levels:
            for s in faces[:3]:
                for level in range(len(s) - 1, X.dim + 1):
                    expected = sum(1 for t in levels[level] if set(s) <= set(t))
                    assert degree(X, s, level) == expected

    @pytest.mark.parametrize(
        "X", [x for _, x in FACE_INDEX_INPUTS], ids=[i for i, _ in FACE_INDEX_INPUTS]
    )
    def test_link_vertices_match_per_face(self, X):
        """The level-wide link-vertex index against one np.unique and one
        bincount of coface weights per face, bit for bit."""
        for k in range(X.dim):
            start, verts, mass = X.link_vertices(k)
            assert len(start) == X.n_faces(k) + 1
            for i, s in enumerate(X.faces(k)):
                idx, _, rows = X.link_rows(s)
                want, inv = np.unique(rows, return_inverse=True)
                w = np.bincount(inv.ravel(), weights=np.repeat(X.weights[idx], rows.shape[1]))
                entries = slice(start[i], start[i + 1])
                assert verts[entries].tolist() == want.tolist()
                assert mass[entries].tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "X", [x for _, x in FACE_INDEX_INPUTS], ids=[i for i, _ in FACE_INDEX_INPUTS]
    )
    def test_lookups_on_random_rows(self, X):
        ref = plain_cofaces(X)
        rng = np.random.default_rng(2)
        n = len(X.vertices)
        for k in range(X.dim + 1):
            rows = np.sort(rng.integers(0, n, size=(200, k + 1)), axis=1)
            got = X.face_index(rows)
            index = {s: i for i, s in enumerate(X.faces(k))}
            for row, f in zip(rows.tolist(), got.tolist()):
                s = tuple(X.vertices[i] for i in row)
                assert f == index.get(s, -1)
                if len(set(s)) == len(s):
                    assert X.has_face(s) == (s in ref)
            assert X.face_index(X.level(k).rows).tolist() == list(range(X.n_faces(k)))

    def test_face_index_rejects_non_faces(self):
        X = build_complex(2, [(0, 1, 2), (1, 2, 3)])
        rows = [[0, 1, 2], [1, 2, 3], [0, 1, 3], [1, 1, 2], [0, 2, 4], [0, 1, -1]]
        rows.append([2, 1, 0])
        # a face, a face, a non-face, a repeat, out of range twice, unsorted
        assert X.face_index(rows).tolist() == [0, 1, -1, -1, -1, -1, -1]
        # (1, 2) has code 1 * 4 + 2, the code a range-blind (0, 6) would get
        assert X.face_index([[1, 2], [0, 6], [2, 2]]).tolist() == [2, -1, -1]
        assert X.face_index([[0], [3], [4], [-1]]).tolist() == [0, 3, -1, -1]
        assert X.face_index(np.empty((2, 0), dtype=int)).tolist() == [0, 0]

    def test_unknown_vertex_and_bad_level(self):
        X = complete_complex(5, 2)
        assert not X.has_face((0, 9))
        assert not X.has_face((0, 1, 2, 3))
        for s in ((9,), (0, 9), (0, 1, 2, 3)):
            with pytest.raises(NotAFace):
                X.cofaces(s)
        for k in (-2, 3):
            with pytest.raises(BadLevel):
                X.faces(k)
            with pytest.raises(BadLevel):
                X.n_faces(k)
        assert X.faces(-1) == ((),)
        assert X.n_faces(-1) == 1
        assert X.cofaces(()).tolist() == list(range(10))


def _face_pos_inputs():
    rng = np.random.default_rng(17)
    K8 = complete_complex(8, 2)
    keep = [i for i, t in enumerate(K8.top_faces) if 0 not in t and 5 not in t and i % 3]
    words = [("a", "b", "c"), ("a", "c", "d"), ("b", "c", "e"), ("c", "d", "e"), ("d", "e", "f")]
    X, z4 = random_complex(rng, 7, 2), cyclic(4)
    f = coboundary_labeling(X, z4, [int(rng.integers(4)) for v in X.vertices])
    return [("K7-d3", complete_complex(7, 3)), ("strings", build_complex(2, words)),
            ("restricted", K8.restrict(keep)), ("cover-Z4", build_cover(X, f, z4).complex)]


FACE_POS_INPUTS = _face_pos_inputs()


class TestFacePos:
    """The scalar lookups (face_pos, has_face, positions) against the array
    lookup face_index, at every level from -1 to d."""

    @pytest.mark.parametrize(
        "X", [x for _, x in FACE_POS_INPUTS], ids=[i for i, _ in FACE_POS_INPUTS]
    )
    def test_faces(self, X):
        for k in range(-1, X.dim + 1):
            pos = X.face_pos(k)
            assert len(pos) == X.n_faces(k)
            for i, s in enumerate(X.faces(k)):
                assert X.has_face(s)
                assert pos[s] == i
                rows = X.positions(s)
                assert [X.vertices[p] for p in rows.tolist()] == list(s)
                assert X.face_index(rows[None, :]).tolist() == [i]

    @pytest.mark.parametrize(
        "X", [x for _, x in FACE_POS_INPUTS], ids=[i for i, _ in FACE_POS_INPUTS]
    )
    def test_non_faces(self, X):
        V, d = X.vertices, X.dim
        unknown = (["zz"] if isinstance(V[0], str)
                   else [v for v in (0, 5, max(V) + 1) if v not in V])
        missing = [next((s for s in itertools.combinations(V, k + 1)
                         if s not in X.face_pos(k)), None) for k in range(1, d + 1)]
        cases = [(u,) for u in unknown] + [(V[0], u) for u in unknown]
        cases += [s for s in missing if s is not None]
        if X.n_faces(d) < math.comb(len(V), d + 1):
            assert any(s is not None for s in missing)
        for s in cases:
            assert not X.has_face(s)
            assert X.face_pos(len(s) - 1).get(s, -1) == -1
            rows = X.vertex_positions(np.array(s))[None, :]
            assert X.face_index(rows).tolist() == [-1]
            with pytest.raises(NotAFace):
                X.positions(s)
        longer = V[:d + 2]
        assert not X.has_face(longer)
        with pytest.raises(NotAFace):
            X.cofaces(longer)


class TestDegree:
    def test_complete_vertex(self):
        X = complete_complex(8, 2)
        assert degree(X, (0,), 2) == math.comb(7, 2)

    def test_self(self):
        X = complete_complex(6, 2)
        assert degree(X, (0, 1), 1) == 1

    def test_sparse_matches_scan(self):
        X = random_complex(np.random.default_rng(11), 7, 2)
        e = X.faces(1)[3]
        expected = sum(1 for f in X.faces(2) if set(e) <= set(f))
        assert degree(X, e, 2) == expected

    def test_bad_level(self):
        X = complete_complex(5, 2)
        with pytest.raises(BadLevel):
            degree(X, (0, 1), 0)


class TestTensor:
    def test_vertex_count(self):
        X = complete_complex(5, 2)
        T = tensor_with_complete(X, 4)
        assert len(T.complex.vertices) == 4 * 5

    def test_single_triangle(self):
        X = build_complex(2, [(0, 1, 2)])
        T = tensor_with_complete(X, 3)
        assert len(T.complex.top_faces) == 6
        assert np.allclose(T.complex.weights, 1 / 6)

    def test_max_degree_exact_and_upper_bound(self):
        # exact count is d! C(t-1, d) Q; the cruder d! C(t, d) Q still bounds it
        X = complete_complex(5, 2)
        t = 4
        T = tensor_with_complete(X, t)
        q = max(len(X.cofaces((v,))) for v in X.vertices)
        degrees = [len(T.complex.cofaces((v,))) for v in T.complex.vertices]
        exact = math.factorial(2) * math.comb(t - 1, 2) * q
        assert max(degrees) == exact
        assert max(degrees) <= math.factorial(2) * math.comb(t, 2) * q

    def test_too_small(self):
        with pytest.raises(TooSmallT):
            tensor_with_complete(complete_complex(4, 2), 2)

    def test_uniform_stays_uniform(self):
        X = complete_complex(4, 2)
        T = tensor_with_complete(X, 4)
        assert np.allclose(T.complex.weights, T.complex.weights[0])

    def test_link_is_graph_tensor(self):
        # link of a vertex in X^t matches the product rule:
        # (j, u) ~ (k, w) iff j != k and u ~ w in the base link
        X = build_complex(2, [(0, 1, 2)])
        T = tensor_with_complete(X, 4)
        legend = T.legend
        vid = {pair: i for i, pair in legend.items()}
        base_vertex = vid[(1, 0)]
        L = T.complex.link((base_vertex,))
        skel = L.one_skeleton()
        base_link = X.link((0,)).one_skeleton()
        for a, b in itertools.combinations(sorted(skel.vertices), 2):
            (ca, va), (cb, vb) = legend[a], legend[b]
            expected = ca != cb and (
                va != vb and has_edge(base_link, *sorted((va, vb)))
            )
            assert has_edge(skel, a, b) == expected


class TestSuitability:
    def test_complete_complex_passes(self):
        X = complete_complex(20, 2)
        rep = check_suitable(X, c=1.1, r=1.01, eta=0.3)
        assert rep.passed
        assert rep.hdx_ok and rep.degree_ok and rep.weight_ok
        assert rep.q == math.comb(19, 2)

    def test_degree_failure_witnessed(self):
        # link of vertex 3 is the single edge {1, 2}: degree 1 there
        X = build_complex(2, [(1, 2, 3), (1, 2, 4)])
        rep = check_suitable(X, c=1.1, r=5.0, eta=0.99)
        assert not rep.degree_ok
        assert rep.degree_witness is not None

    def test_uniform_weights_pass_any_r(self):
        X = complete_complex(8, 2)
        rep = check_suitable(X, c=1.01, r=1.0001, eta=0.9)
        assert rep.weight_ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_suitable(complete_complex(5, 2), c=0.5, r=1.5, eta=0.3)

    @pytest.mark.parametrize("c, r, eta", [(0.5, 1.5, 0.3), (1.1, 1.0, 0.3), (1.1, 1.5, 0.0)])
    def test_parameter_rejection_is_a_library_error(self, c, r, eta):
        with pytest.raises(BadParameter, match="need c > 1, r > 1, eta > 0"):
            check_suitable(complete_complex(5, 2), c=c, r=r, eta=eta)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("keep", [0.6, 1.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_witnesses_match_reference(self, seed, keep, dim):
        X = random_complex(np.random.default_rng(seed), 8, dim, keep=keep)
        for c, r in ((1.1, 1.5), (1.5, 3.0), (1.01, 10.0)):
            rep = check_suitable(X, c=c, r=r, eta=0.5)
            ref = brute_check_suitable(X, c, r)
            assert (rep.degree_ok, rep.degree_witness) == ref[:2]
            assert rep.weight_ok == ref[2]
            if ref[3] is None:
                assert rep.weight_witness is None
            else:
                assert rep.weight_witness[:3] == ref[3][:3]
                assert rep.weight_witness[3:] == pytest.approx(ref[3][3:], abs=1e-12)
