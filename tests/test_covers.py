import numpy as np
import pytest

from hdxcover.complexes import build_complex, complete_complex
from hdxcover.covers import (
    build_cover,
    coboundary_labeling,
    connected_components,
    cover_components,
    directed_label,
    holonomy_subgroup,
    is_cocycle,
    push_cocycle,
    verify_cover,
)
from hdxcover.errors import Disconnected, NotACocycle, NotAnEdge
from hdxcover.groups import cyclic, quotient_group, symmetric_group


def annulus_complex():
    """Three triangles around a hole; one independent non-triangle cycle."""
    return build_complex(2, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])


def annulus_cocycle(group, hole_element):
    """Cocycle on the annulus whose holonomy is generated by hole_element."""
    X = annulus_complex()
    f = {e: 0 for e in X.faces(1)}
    f[(0, 2)] = hole_element  # chord of the free cycle 0-2-4-0
    # keep the triangles consistent: (0,1,2) forces f(01)*f(12) = f(02)
    f[(1, 2)] = hole_element
    return X, f


class TestDirectedLabels:
    def test_self_inverse_same_both_ways(self):
        g = cyclic(2)
        f = {(1, 3): 1}
        assert directed_label(g, f, 1, 3) == directed_label(g, f, 3, 1) == 1

    def test_inverse_arithmetic(self):
        g = cyclic(5)
        f = {(1, 3): 2}
        assert directed_label(g, f, 3, 1) == 3

    def test_round_trip_is_identity(self):
        g = cyclic(7)
        f = {(0, 4): 3}
        assert g.mul(directed_label(g, f, 0, 4), directed_label(g, f, 4, 0)) == 0

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            directed_label(cyclic(3), {}, 0, 1)


class TestCocycles:
    def test_coboundary_is_cocycle(self):
        g = cyclic(5)
        X = complete_complex(5, 2)
        f = coboundary_labeling(X, g, {i: (2 * i + 1) % 5 for i in range(5)})
        ok, witness = is_cocycle(X, f, g)
        assert ok and witness is None

    def test_constant_one_fails_with_witness(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        f = {e: 1 for e in X.faces(1)}
        ok, witness = is_cocycle(X, f, g)
        assert not ok
        assert witness in X.faces(2)

    def test_no_triangles_vacuous(self):
        g = cyclic(2)
        X = annulus_complex()
        f, _ = {}, None
        # a labeling violating nothing because we only flip a chordless cycle
        X2, f = annulus_cocycle(g, 1)
        assert is_cocycle(X2, f, g)[0]


class TestBuildCover:
    def test_trivial_group(self):
        g = cyclic(1)
        X = complete_complex(5, 2)
        f = {e: 0 for e in X.faces(1)}
        cover = build_cover(X, f, g)
        assert len(cover.complex.top_faces) == len(X.top_faces)
        assert cover_components(cover).count == 1

    def test_three_disjoint_triangles(self):
        g = cyclic(3)
        X = build_complex(2, [(0, 1, 2)])
        f = {e: 0 for e in X.faces(1)}
        cover = build_cover(X, f, g)
        assert len(cover.complex.top_faces) == 3
        count, _ = connected_components(cover.complex)
        assert count == 3

    def test_vertex_count_scales(self):
        g = symmetric_group(3)
        X = complete_complex(6, 2)
        f = coboundary_labeling(X, g, {i: i for i in range(6)})
        cover = build_cover(X, f, g)
        assert len(cover.complex.vertices) == 6 * 6
        assert len(cover.complex.top_faces) == len(X.top_faces) * 6

    def test_rejects_non_cocycle(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        f = {e: 1 for e in X.faces(1)}
        with pytest.raises(NotACocycle):
            build_cover(X, f, g)

    def test_fiber_sizes(self):
        g = cyclic(4)
        X = complete_complex(4, 2)
        f = coboundary_labeling(X, g, {i: i % 4 for i in range(4)})
        cover = build_cover(X, f, g)
        for v in X.vertices:
            assert len(cover.fiber(v)) == 4

    def test_measure_pushforward(self):
        rng = np.random.default_rng(0)
        X = build_complex(
            2,
            [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
            rng.random(4) + 0.2,
        )
        g = cyclic(3)
        f = coboundary_labeling(X, g, {i: int(rng.integers(3)) for i in range(4)})
        cover = build_cover(X, f, g)
        push = {}
        for face, w in zip(cover.complex.top_faces, cover.complex.weights):
            img = cover.phi_face(face)
            push[img] = push.get(img, 0.0) + w
        for face, w in zip(X.top_faces, X.weights):
            assert push[face] == pytest.approx(w, abs=1e-12)


class TestHolonomy:
    def test_coboundary_trivial(self):
        g = cyclic(6)
        X = complete_complex(5, 2)
        f = coboundary_labeling(X, g, {i: (i * 5) % 6 for i in range(5)})
        assert holonomy_subgroup(X, f, g, 0) == (0,)

    def test_complete_complex_always_trivial(self):
        # triangle boundaries generate all cycles of a complete complex
        g = symmetric_group(3)
        X = complete_complex(5, 2)
        rng = np.random.default_rng(1)
        f = coboundary_labeling(X, g, {i: int(rng.integers(6)) for i in range(5)})
        assert holonomy_subgroup(X, f, g, 0) == (0,)

    def test_annulus_full_holonomy(self):
        g = cyclic(5)
        X, f = annulus_cocycle(g, 2)
        hol = holonomy_subgroup(X, f, g, 0)
        assert hol == tuple(range(5))

    def test_annulus_partial_holonomy(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 2)
        assert holonomy_subgroup(X, f, g, 0) == (0, 2, 4)

    def test_tree_choice_irrelevant(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 3)
        assert holonomy_subgroup(X, f, g, 0, order="bfs") == holonomy_subgroup(
            X, f, g, 0, order="dfs"
        )

    def test_root_choice_gives_same_index(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 2)
        sizes = {len(holonomy_subgroup(X, f, g, v)) for v in X.vertices}
        assert len(sizes) == 1

    def test_disconnected_raises(self):
        X = build_complex(2, [(0, 1, 2), (3, 4, 5)])
        f = {e: 0 for e in X.faces(1)}
        with pytest.raises(Disconnected):
            holonomy_subgroup(X, f, cyclic(2), 0)


class TestComponents:
    def test_component_count_matches_index(self):
        g = cyclic(6)
        for hole in (1, 2, 3):
            X, f = annulus_cocycle(g, hole)
            cover = build_cover(X, f, g)
            rep = cover_components(cover)
            assert rep.matches
            assert rep.count == 6 // len(subgroup := holonomy_subgroup(X, f, g, 0))

    def test_connected_cover(self):
        g = cyclic(5)
        X, f = annulus_cocycle(g, 1)
        cover = build_cover(X, f, g)
        assert cover_components(cover).count == 1


class TestVerifyCover:
    def test_clean_cover_passes(self):
        g = cyclic(4)
        X, f = annulus_cocycle(g, 1)
        cover = build_cover(X, f, g)
        rep = verify_cover(cover)
        assert rep.ok and rep.surjective
        assert rep.violations == ()

    def test_deleted_face_fails(self):
        from hdxcover.covers import CoverComplex

        g = cyclic(3)
        X = complete_complex(4, 2)
        f = coboundary_labeling(X, g, {i: i % 3 for i in range(4)})
        cover = build_cover(X, f, g)
        tops = list(cover.complex.top_faces)
        broken = build_complex(
            2, tops[1:], cover.complex.weights[1:]
        )
        damaged = CoverComplex(broken, X, g, f, cover.legend)
        rep = verify_cover(damaged)
        assert not rep.ok
        assert rep.violations

    def test_trivial_cover_is_global_isomorphism(self):
        g = cyclic(1)
        X = complete_complex(5, 2)
        f = {e: 0 for e in X.faces(1)}
        rep = verify_cover(build_cover(X, f, g))
        assert rep.ok

    def test_no_size_limit(self):
        # 6,500 base vertices: 6500**5 exceeds int64, so base-n codes of the
        # five-vertex faces would overflow
        from helpers import plain_cofaces

        X = build_complex(4, [tuple(range(5 * i, 5 * i + 5)) for i in range(1300)])
        cover = build_cover(X, {e: 0 for e in X.faces(1)}, cyclic(2))
        rep = verify_cover(cover)
        assert rep.ok and rep.violations == ()
        ref = plain_cofaces(X)
        assert X.faces(4) == tuple(sorted(s for s in ref if len(s) == 5))
        for s, idx in ref.items():
            assert X.cofaces(s).tolist() == idx.tolist()

    @pytest.mark.parametrize(
        "damage", ["none", "delete", "unhit", "reweight", "merge", "outside"]
    )
    @pytest.mark.parametrize("case", ["annulus-Z4", "K6-Z3", "K7-d3-Z2"])
    def test_matches_reference(self, case, damage):
        from hdxcover.covers import CoverComplex

        from helpers import plain_verify_cover

        rng = np.random.default_rng(len(case) + len(damage))
        if case == "annulus-Z4":
            g = cyclic(4)
            X, f = annulus_cocycle(g, 1)
        else:
            n, dim, order = {"K6-Z3": (6, 2, 3), "K7-d3-Z2": (7, 3, 2)}[case]
            g = cyclic(order)
            X = complete_complex(n, dim)
            potential = {v: int(rng.integers(order)) for v in X.vertices}
            f = coboundary_labeling(X, g, potential)
        cover = build_cover(X, f, g)
        tops, weights = list(cover.complex.top_faces), cover.complex.weights.copy()
        legend = dict(cover.legend)
        i = int(rng.integers(len(tops)))
        if damage == "delete":
            del tops[i]
            weights = np.delete(weights, i)
        elif damage == "unhit":
            # every lift of one base top face goes
            lost = [j for j, t in enumerate(tops) if cover.phi_face(t) == X.top_faces[0]]
            tops = [t for j, t in enumerate(tops) if j not in lost]
            weights = np.delete(weights, lost)
        elif damage == "reweight":
            weights[i] *= 3.0
        elif damage == "merge":
            # two vertices of one top face's link over distinct base
            # vertices now project to the same one
            y, z = tops[i][1:3]
            legend[z] = (legend[y][0], legend[z][1])
        elif damage == "outside":
            y = tops[i][0]
            legend[y] = (max(X.vertices) + 100, legend[y][1])
        tilde = build_complex(X.dim, tops, weights)
        damaged = CoverComplex(tilde, X, g, f, legend)
        rep, ref = verify_cover(damaged), plain_verify_cover(damaged)
        assert rep.ok == ref.ok
        assert rep.surjective == ref.surjective
        assert rep.faces_checked == ref.faces_checked
        assert rep.violations == ref.violations
        assert rep.ok == (damage == "none")

    def test_link_spectra_inherited(self):
        from hdxcover.spectral import adjacency_spectrum

        g = cyclic(3)
        X, f = annulus_cocycle(g, 1)
        cover = build_cover(X, f, g)
        for vid in cover.complex.vertices:
            up = adjacency_spectrum(cover.complex.link((vid,)).one_skeleton())
            down = adjacency_spectrum(
                X.link((cover.phi(vid),)).one_skeleton()
            )
            assert np.allclose(up.eigenvalues, down.eigenvalues, atol=1e-9)


class TestComponentCovers:
    def test_each_component_covers_the_base(self):
        from hdxcover.covers import CoverComplex

        g = cyclic(6)
        X, f = annulus_cocycle(g, 2)  # holonomy index 2: two components
        cover = build_cover(X, f, g)
        count, labels = connected_components(cover.complex)
        assert count == 2
        for cid in range(count):
            keep = [
                i
                for i, face in enumerate(cover.complex.top_faces)
                if labels[face[0]] == cid
            ]
            part = build_complex(
                2,
                [cover.complex.top_faces[i] for i in keep],
                cover.complex.weights[keep],
            )
            piece = CoverComplex(part, X, g, f, cover.legend)
            assert verify_cover(piece).ok


class TestCoverExport:
    def test_round_trip_fields(self):
        from hdxcover.covers import cover_to_dict

        g = cyclic(3)
        X, f = annulus_cocycle(g, 1)
        cover = build_cover(X, f, g)
        obj = cover_to_dict(cover)
        assert obj["base"]["dim"] == 2
        assert len(obj["faces"]) == len(cover.complex.top_faces)
        pair = obj["faces"][0][0]
        assert len(pair) == 2  # (base vertex, group element)


class TestPushCocycle:
    def test_full_quotient_trivializes(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 1)
        q = quotient_group(g, list(range(6)))
        pushed = push_cocycle(X, f, g, q)
        assert set(pushed.values()) == {0}
        cover = build_cover(X, pushed, q.group)
        assert len(cover.complex.top_faces) == len(X.top_faces)

    def test_trivial_quotient_preserves(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 5)
        q = quotient_group(g, [0])
        pushed = push_cocycle(X, f, g, q)
        relabel = {q.project(v): k for v, k in enumerate(range(6))}
        assert all(pushed[e] == q.project(f[e]) for e in f)

    def test_z6_to_z3_cover(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 1)
        q = quotient_group(g, [0, 3])
        pushed = push_cocycle(X, f, g, q)
        assert is_cocycle(X, pushed, q.group)[0]
        cover = build_cover(X, pushed, q.group)
        assert len(cover.complex.vertices) == len(X.vertices) * 3

    def test_rejects_non_cocycle_input(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        q = quotient_group(g, [0])
        with pytest.raises(NotACocycle):
            push_cocycle(X, {e: 1 for e in X.faces(1)}, g, q)
