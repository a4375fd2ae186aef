import functools
import itertools
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdxcover import harness
from hdxcover.complexes import build_complex, complete_complex, complex_from_dict, complex_to_dict
from hdxcover.covers import (
    CoverComplex,
    _injective_on_links,
    build_cover,
    connected_components,
    cover_components,
    cover_to_dict,
    holonomy_subgroup,
    is_cocycle,
    push_cocycle,
    verify_cover,
)
from hdxcover.errors import BadLabeling, Disconnected, HdxError, NotACocycle
from hdxcover.graphs import component_labels
from hdxcover.groups import (
    cyclic,
    dihedral,
    group_to_dict,
    make_group,
    normal_subgroups,
    product_group,
    quotient_group,
    symmetric_group,
    validate_genset,
)
from hdxcover.harness import run_experiment, stage_seed
from hdxcover.pruning import PruneConfig, PruneOutcome, Pruner
from hdxcover.spectral import adjacency_spectrum, is_hdx

from helpers import (
    built_members,
    checked,
    fiber,
    coboundary_labeling,
    is_abelian,
    label_dict,
    link_pair_arrays,
    neighbors,
    phi_face,
    plain_build_cover,
    plain_connected_components,
    plain_graph_components,
    plain_holonomy_subgroup,
    plain_injective_on_links,
    plain_is_cocycle,
    plain_push_cocycle,
    plain_verify_cover,
    random_complex,
    relabeled,
    same_cover,
    sym_walk_matrix,
)


def labels_of(X, f):
    """A labeling given edge by edge, as the label array over X.faces(1)."""
    return np.array([f[e] for e in X.faces(1)], dtype=np.int64)


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
    return X, labels_of(X, f)


def triangle_cover(group, f):
    """The cover of one triangle under labels given edge by edge."""
    X = build_complex(2, [tuple(sorted({v for e in f for v in e}))])
    return build_cover(X, labels_of(X, f), group)


def lift_step(cover, u, g, v):
    """The element over v of the cover vertex next to the lift of u at g."""
    skel = cover.complex.one_skeleton()
    (start,) = [x for x, pair in cover.legend.items() if pair == (u, g)]
    (h,) = [cover.legend[y][1] for y in neighbors(skel, start) if cover.phi(y) == v]
    return h


class TestDirectedLabels:
    """The edge from u to v carries f(uv) if u < v and its inverse if not;
    the cover's edges and the holonomy read labels by that rule."""

    def test_self_inverse_same_both_ways(self):
        g = cyclic(2)
        cover = triangle_cover(g, {(1, 2): 1, (1, 3): 1, (2, 3): 0})
        assert lift_step(cover, 1, 0, 3) == lift_step(cover, 3, 0, 1) == 1

    def test_inverse_arithmetic(self):
        g = cyclic(5)
        cover = triangle_cover(g, {(1, 2): 2, (1, 3): 2, (2, 3): 0})
        assert lift_step(cover, 1, 0, 3) == 2
        assert lift_step(cover, 3, 0, 1) == 3

    def test_round_trip_is_identity(self):
        g = cyclic(7)
        cover = triangle_cover(g, {(0, 2): 3, (0, 4): 3, (2, 4): 0})
        for h in range(7):
            assert lift_step(cover, 4, lift_step(cover, 0, h, 4), 0) == h
        assert holonomy_subgroup(cover.base, cover.labeling, g, 0) == (0,)

    def test_not_an_edge(self):
        # a labeling that leaves an edge without a label is rejected
        X = build_complex(2, [(0, 1, 2)])
        short = np.zeros(2, dtype=np.int64)
        for call in (is_cocycle, build_cover):
            with pytest.raises(BadLabeling):
                call(X, short, cyclic(3))
        with pytest.raises(BadLabeling):
            holonomy_subgroup(X, short, cyclic(3), 0)


class TestCocycles:
    def test_coboundary_is_cocycle(self):
        g = cyclic(5)
        X = complete_complex(5, 2)
        f = coboundary_labeling(X, g, [(2 * i + 1) % 5 for i in range(5)])
        ok, witness = is_cocycle(X, f, g)
        assert ok and witness is None

    def test_constant_one_fails_with_witness(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        f = np.ones(X.n_faces(1), dtype=np.int64)
        ok, witness = is_cocycle(X, f, g)
        assert not ok
        assert witness in X.faces(2)

    def test_no_triangles_vacuous(self):
        g = cyclic(2)
        # a labeling violating nothing because we only flip a chordless cycle
        X2, f = annulus_cocycle(g, 1)
        assert is_cocycle(X2, f, g)[0]


K4 = complete_complex(4, 2)


def k4_labels(f01):
    """f(0,1) = f01, f(1,2) = f(1,3) = 1 and 0 elsewhere: over Z3 a cocycle
    exactly when f01 is 2."""
    return labels_of(K4, {(0, 1): f01, (0, 2): 0, (0, 3): 0, (1, 2): 1, (1, 3): 1,
                          (2, 3): 0})


K4_LABELS = k4_labels(2)
MALFORMED = {
    "2-D": K4_LABELS.reshape(2, 3),
    "float": K4_LABELS.astype(float),
    "bool": K4_LABELS.astype(bool),
    "dict": label_dict(K4, K4_LABELS),
    "short": K4_LABELS[:-1],
    "long": np.append(K4_LABELS, 0),
    "negative": k4_labels(-1),
    "too-large": k4_labels(5),
}
ENTRY_POINTS = {
    "is_cocycle": lambda f: is_cocycle(K4, f, cyclic(3)),
    "build_cover": lambda f: build_cover(K4, f, cyclic(3)),
    "holonomy_subgroup": lambda f: holonomy_subgroup(K4, f, cyclic(3), 0),
    "push_cocycle": lambda f: push_cocycle(
        K4, f, cyclic(3), quotient_group(cyclic(3), [0])),
}


class TestMalformedLabels:
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_rejected(self, case, entry):
        with pytest.raises(BadLabeling):
            ENTRY_POINTS[entry](MALFORMED[case])

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_well_formed_accepted(self, entry):
        ENTRY_POINTS[entry](K4_LABELS)

    def test_negative_label_does_not_wrap(self):
        # read modulo 3, f(0,1) = -1 would be the cocycle K4_LABELS, whose
        # 12-vertex cover verify_cover accepts
        cover = build_cover(K4, K4_LABELS, cyclic(3))
        assert len(cover.complex.vertices) == 12 and verify_cover(cover).ok
        with pytest.raises(BadLabeling):
            is_cocycle(K4, k4_labels(-1), cyclic(3))

    @pytest.mark.parametrize("potential", [[0, 1, 2], [0, 1, 2, 3], [0, -1, 2, 1],
                                           [0.0, 1.0, 2.0, 1.0]])
    def test_bad_potential(self, potential):
        with pytest.raises(BadLabeling):
            coboundary_labeling(K4, cyclic(3), potential)


class TestBuildCover:
    def test_trivial_group(self):
        g = cyclic(1)
        X = complete_complex(5, 2)
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        cover = build_cover(X, f, g)
        assert len(cover.complex.top_faces) == len(X.top_faces)
        assert cover_components(cover).count == 1

    def test_three_disjoint_triangles(self):
        g = cyclic(3)
        X = build_complex(2, [(0, 1, 2)])
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        cover = build_cover(X, f, g)
        assert len(cover.complex.top_faces) == 3
        count, _ = connected_components(cover.complex)
        assert count == 3

    def test_vertex_count_scales(self):
        g = symmetric_group(3)
        X = complete_complex(6, 2)
        f = coboundary_labeling(X, g, list(range(6)))
        cover = build_cover(X, f, g)
        assert len(cover.complex.vertices) == 6 * 6
        assert len(cover.complex.top_faces) == len(X.top_faces) * 6

    def test_rejects_non_cocycle(self):
        g = cyclic(2)
        X = complete_complex(4, 2)
        f = np.ones(X.n_faces(1), dtype=np.int64)
        with pytest.raises(NotACocycle):
            build_cover(X, f, g)

    def test_fiber_sizes(self):
        g = cyclic(4)
        X = complete_complex(4, 2)
        f = coboundary_labeling(X, g, [i % 4 for i in range(4)])
        cover = build_cover(X, f, g)
        for v in X.vertices:
            assert len(fiber(cover, v)) == 4

    def test_measure_pushforward(self):
        rng = np.random.default_rng(0)
        X = build_complex(
            2,
            [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
            rng.random(4) + 0.2,
        )
        g = cyclic(3)
        f = coboundary_labeling(X, g, [int(rng.integers(3)) for i in range(4)])
        cover = build_cover(X, f, g)
        push = {}
        for face, w in zip(cover.complex.top_faces, cover.complex.weights):
            img = phi_face(cover, face)
            push[img] = push.get(img, 0.0) + w
        for face, w in zip(X.top_faces, X.weights):
            assert push[face] == pytest.approx(w, abs=1e-12)


class TestHolonomy:
    def test_coboundary_trivial(self):
        g = cyclic(6)
        X = complete_complex(5, 2)
        f = coboundary_labeling(X, g, [(i * 5) % 6 for i in range(5)])
        assert holonomy_subgroup(X, f, g, 0) == (0,)

    def test_complete_complex_always_trivial(self):
        # triangle boundaries generate all cycles of a complete complex
        g = symmetric_group(3)
        X = complete_complex(5, 2)
        rng = np.random.default_rng(1)
        f = coboundary_labeling(X, g, [int(rng.integers(6)) for i in range(5)])
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
        # the layered array tree gives the subgroup of a bfs and a dfs tree
        g = cyclic(6)
        for hole in range(6):
            X, f = annulus_cocycle(g, hole)
            for order in ("bfs", "dfs"):
                assert holonomy_subgroup(X, f, g, 0) == plain_holonomy_subgroup(
                    X, f, g, 0, order
                )

    def test_root_choice_gives_same_index(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 2)
        sizes = {len(holonomy_subgroup(X, f, g, v)) for v in X.vertices}
        assert len(sizes) == 1

    def test_disconnected_raises(self):
        X = build_complex(2, [(0, 1, 2), (3, 4, 5)])
        f = np.zeros(X.n_faces(1), dtype=np.int64)
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

    def test_components_match_plain(self):
        # covers of two, three and six components, disjoint triangles in
        # label order and not, and a 0-complex
        g = cyclic(6)
        for hole in (0, 1, 2, 3):
            X, f = annulus_cocycle(g, hole)
            assert_components_match(build_cover(X, f, g).complex)
        assert_components_match(build_complex(2, [(7, 8, 9), (0, 4, 5), (1, 2, 3)]))
        assert_components_match(build_complex(1, [(5, 9), (0, 9), (1, 2), (3, 4), (2, 4)]))
        X = build_complex(0, [(3,), (1,), (2,)])
        assert connected_components(X) == plain_connected_components(X) == (
            3, {1: 0, 2: 1, 3: 2})


class TestVerifyCover:
    def test_clean_cover_passes(self):
        g = cyclic(4)
        X, f = annulus_cocycle(g, 1)
        cover = build_cover(X, f, g)
        rep = verify_cover(cover)
        assert rep.ok and rep.surjective
        assert rep.violations == ()

    def test_deleted_face_fails(self):
        g = cyclic(3)
        X = complete_complex(4, 2)
        f = coboundary_labeling(X, g, [i % 3 for i in range(4)])
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
        f = np.zeros(X.n_faces(1), dtype=np.int64)
        rep = verify_cover(build_cover(X, f, g))
        assert rep.ok

    def test_no_size_limit(self):
        # 6,500 base vertices: 6500**5 exceeds int64, so base-n codes of the
        # five-vertex faces would overflow
        from helpers import plain_cofaces

        X = build_complex(4, [tuple(range(5 * i, 5 * i + 5)) for i in range(1300)])
        cover = build_cover(X, np.zeros(X.n_faces(1), dtype=np.int64), cyclic(2))
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
        rng = np.random.default_rng(len(case) + len(damage))
        if case == "annulus-Z4":
            g = cyclic(4)
            X, f = annulus_cocycle(g, 1)
        else:
            n, dim, order = {"K6-Z3": (6, 2, 3), "K7-d3-Z2": (7, 3, 2)}[case]
            g = cyclic(order)
            X = complete_complex(n, dim)
            potential = [int(rng.integers(order)) for v in X.vertices]
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
            lost = [j for j, t in enumerate(tops) if phi_face(cover, t) == X.top_faces[0]]
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


class TestInjectiveOnLinks:
    """_injective_on_links' one sort against the two hash uniques of
    plain_injective_on_links, face by face at every level k < d."""

    @staticmethod
    def assert_matches(cover):
        for k in range(cover.complex.dim):
            args = link_pair_arrays(cover, k)
            assert (_injective_on_links(*args).tolist()
                    == plain_injective_on_links(*args).tolist())

    @pytest.mark.parametrize("name", ["cover-family-z6", "prune-k30"])
    def test_benchmark_covers(self, benchmark_covers, name):
        for cover in benchmark_covers[name][1]:
            self.assert_matches(cover)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_covers(self, seed, dim):
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 7, dim, keep=0.7)
        for g in (cyclic(3), dihedral(3)):
            self.assert_matches(
                build_cover(X, coboundary_labeling(X, g, rng.integers(g.order, size=7)), g))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_folded_legend(self, dim):
        # two vertices of one lifted top face project to one base vertex,
        # so the links holding both are not injective
        X = complete_complex(6, dim)
        g = cyclic(3)
        cover = build_cover(X, coboundary_labeling(X, g, [v % 3 for v in X.vertices]), g)
        y, z = cover.complex.top_faces[0][1:3]
        legend = dict(cover.legend)
        legend[z] = (legend[y][0], legend[z][1])
        folded = CoverComplex(cover.complex, X, g, cover.labeling, legend)
        self.assert_matches(folded)
        reason = "projection not injective on the link"
        got = [f for f, why in verify_cover(folded).violations if why == reason]
        assert got == [f for f, why in plain_verify_cover(folded).violations if why == reason]
        assert got


class TestComponentCovers:
    def test_each_component_covers_the_base(self):
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
        g = cyclic(3)
        X, f = annulus_cocycle(g, 1)
        cover = build_cover(X, f, g)
        obj = cover_to_dict(cover)
        assert obj["base"]["dim"] == 2
        assert set(obj) == {"base", "group", "cocycle"}
        assert obj["cocycle"] == [[u, v, int(e)] for (u, v), e in zip(X.faces(1), f)]

    @pytest.mark.parametrize("name", [lambda v: f"v{v:02d}", lambda v: ("v", v),
                                      lambda v: 0.5 * v - 3])
    def test_labels_that_are_no_ints(self, name):
        # the defining data rebuild the cover whatever the vertex labels
        g = symmetric_group(3)
        X0, f = annulus_cocycle(g, 1)
        X = build_complex(2, [tuple(name(v) for v in t) for t in X0.top_faces])
        cover = build_cover(X, f, g)
        obj = cover_to_dict(cover)
        base = complex_from_dict(obj["base"])
        again = build_cover(base, [e for _, _, e in obj["cocycle"]], make_group(obj["group"]))
        assert [(u, v) for u, v, _ in obj["cocycle"]] == list(base.faces(1)) == list(X.faces(1))
        assert again.complex.top_faces == cover.complex.top_faces
        assert again.legend == cover.legend


class TestPushCocycle:
    def test_full_quotient_trivializes(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 1)
        q = quotient_group(g, list(range(6)))
        pushed = push_cocycle(X, f, g, q)
        assert set(pushed.tolist()) == {0}
        cover = build_cover(X, pushed, q.group)
        assert len(cover.complex.top_faces) == len(X.top_faces)

    def test_trivial_quotient_preserves(self):
        g = cyclic(6)
        X, f = annulus_cocycle(g, 5)
        q = quotient_group(g, [0])
        pushed = push_cocycle(X, f, g, q)
        assert pushed.tolist() == [int(q.projection[h]) for h in f]

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
            push_cocycle(X, np.ones(X.n_faces(1), dtype=np.int64), g, q)


def agree(fast, plain, same, *args):
    """checked, counting a library error that both raise alike as agreement;
    returns the fast result, or None on such an error."""
    try:
        return checked(fast, plain, same, *args)
    except HdxError:
        return None


def assert_components_match(X):
    """Array components of X and of its 1-skeleton equal the DFS references."""
    assert connected_components(X) == plain_connected_components(X)
    if X.dim >= 1:
        skel = X.one_skeleton()
        labels = component_labels(skel.n, skel.ends)
        assert [set(itertools.compress(skel.vertices, labels == c))
                for c in range(labels.max() + 1)] == plain_graph_components(skel)


def assert_matches_plain(X, labels, group, quotients=()):
    """The array cocycle layer against the dict references: the cocycle
    check and its witness, the cover with its components, the
    holonomy under both tree orders, and the pushed labeling with
    everything built from it."""
    agree(is_cocycle, plain_is_cocycle, operator.eq, X, labels, group)
    cover = agree(build_cover, plain_build_cover, same_cover, X, labels, group)
    assert_components_match(X)
    if cover is not None:
        assert_components_match(cover.complex)
    for order in ("bfs", "dfs"):
        plain = functools.partial(plain_holonomy_subgroup, order=order)
        for root in (X.vertices[0], X.vertices[len(X.vertices) // 2], X.vertices[-1]):
            agree(holonomy_subgroup, plain, operator.eq, X, labels, group, root)
    for q in quotients:
        pushed = agree(push_cocycle, plain_push_cocycle,
                       lambda got, want: label_dict(X, got) == want,
                       X, labels, group, q)
        if pushed is not None:
            assert_matches_plain(X, pushed, q.group)


DIFF_GROUPS = [cyclic(2), cyclic(5), cyclic(6), dihedral(3), symmetric_group(3),
               product_group(cyclic(2), cyclic(2))]


def quotients_of(group):
    return [quotient_group(group, sub) for sub in normal_subgroups(group)]


class TestArrayCocycles:
    """The array cocycle layer against the dict code it replaced."""

    @pytest.mark.parametrize(
        "n, gens, r, seed",
        [(6, [1, 2, 3, 4, 5], 2.0, 1), (5, [1, 2, 3, 4], 1.5, 2)],
        ids=["cover-family-z6", "prune-k30"],
    )
    def test_benchmark_clean_y(self, n, gens, r, seed):
        # the K30 prunes of the cover-family-z6 and prune-k30 benchmarks
        group = cyclic(n)
        pruner = Pruner(complete_complex(30, 2), group, validate_genset(group, gens),
                        PruneConfig.empirical(0.9, r=r))
        outcome = pruner.run(stage_seed(seed, "prune"))
        assert outcome.status == "clean"
        y = outcome.y
        labels = pruner.elements_on(y, outcome.labeling)
        on_x = dict(zip(pruner.X.faces(1), pruner.s_elems[outcome.labeling].tolist()))
        assert label_dict(y, labels) == {e: on_x[e] for e in y.faces(1)}
        assert is_cocycle(y, labels, group) == (True, None)
        assert_matches_plain(y, labels, group, quotients_of(group))

    @pytest.mark.parametrize("seed", range(6))
    def test_relabeled_complexes(self, seed):
        # vertex labels that are no positions, cocycles and not
        rng = np.random.default_rng(seed)
        group = DIFF_GROUPS[seed % len(DIFF_GROUPS)]
        X = relabeled(random_complex(rng, 7, 2 + seed % 2, keep=0.6))
        potential = rng.integers(group.order, size=len(X.vertices))
        f = coboundary_labeling(X, group, potential)
        assert_matches_plain(X, f, group, quotients_of(group))
        noise = rng.integers(group.order, size=len(f))
        assert_matches_plain(X, np.where(rng.random(len(f)) < 0.2, noise, f), group,
                             quotients_of(group))

    def test_witness_is_first_bad_triangle(self):
        g = cyclic(5)
        X = relabeled(complete_complex(6, 3))
        f = coboundary_labeling(X, g, [1, 4, 0, 2, 3, 1])
        for e in (0, 7, len(f) - 1):
            bad = f.copy()
            bad[e] = (bad[e] + 1) % 5
            ok, witness = is_cocycle(X, bad, g)
            assert not ok and (ok, witness) == plain_is_cocycle(X, bad, g)
            with pytest.raises(NotACocycle) as err:
                build_cover(X, bad, g)
            assert err.value.witness == witness

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(DIFF_GROUPS), st.integers(4, 7), st.integers(2, 3),
           st.data())
    def test_drawn_coboundaries(self, group, n, dim, data):
        X = complete_complex(n, dim)
        potential = data.draw(st.lists(st.integers(0, group.order - 1),
                                       min_size=n, max_size=n))
        f = coboundary_labeling(X, group, potential)
        flip = data.draw(st.none() | st.integers(0, len(f) - 1))
        if flip is not None:
            f[flip] = data.draw(st.integers(0, group.order - 1))
        assert_matches_plain(X, f, group, quotients_of(group))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(DIFF_GROUPS), st.booleans(), st.data())
    def test_drawn_annulus_cocycles(self, group, strip, data):
        # the annulus cocycle, or the zero labeling of a strip of triangles,
        # changed by the gauge f(uv) -> p(u)^-1 f(uv) p(v): labels on every
        # edge, and potentials that spread several layers from most roots
        if strip:
            X = relabeled(build_complex(2, [(i, i + 1, i + 2) for i in range(8)]))
            f = np.zeros(X.n_faces(1), dtype=np.int64)
        else:
            X, f = annulus_cocycle(group, data.draw(st.integers(0, group.order - 1)))
        p = data.draw(st.lists(st.integers(0, group.order - 1),
                               min_size=len(X.vertices), max_size=len(X.vertices)))
        p = np.array(p)
        u, v = X.level(1).rows.T
        mul = group.mul_table
        f = mul[group.inv_table[p[u]], mul[f, p[v]]]
        assert is_cocycle(X, f, group) == (True, None)
        assert_matches_plain(X, f, group, quotients_of(group))


def torus_complex(a, b):
    """The a x b grid triangulation of the torus (a, b >= 3); vertex (i, j)
    is i * b + j."""
    def v(i, j):
        return i % a * b + j % b

    tops = [t for i, j in itertools.product(range(a), range(b))
            for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    return build_complex(2, [tuple(sorted(t)) for t in tops])


def torus_cocycle(X, a, b, group, alpha, beta):
    """alpha^di beta^dj on each edge of torus_complex(a, b), (di, dj) its
    step from its lower vertex to its higher; for commuting alpha and beta
    a cocycle whose holonomy is generated by alpha^a and beta^b."""
    mul, inv = group.mul_table, group.inv_table

    def power(x, k):
        return functools.reduce(lambda acc, _: mul[acc, x if k > 0 else inv[x]], range(abs(k)), 0)

    steps = [((v // b - u // b + 1) % a - 1, (v % b - u % b + 1) % b - 1) for u, v in X.faces(1)]
    return np.array([mul[power(alpha, di), power(beta, dj)] for di, dj in steps])


def family_run(monkeypatch, Y, group, elems, lam=0.9):
    """The cover-family report of Y with elems on its edges, put in place of
    a prune run, and the Y the pipeline read back from its spec; checks
    that no member solved its links densely, the audit's y_is_hdx being
    the one is_hdx call."""
    seen, solved = [], []
    monkeypatch.setattr(harness, "is_hdx", lambda *a, **kw: solved.append(a) or is_hdx(*a, **kw))

    def run(self, rng):
        seen.append(self.X)
        return PruneOutcome("clean", np.zeros(self.X.n_faces(1), dtype=np.intp), self.X,
                            (), 0, (), (), self.config)

    monkeypatch.setattr(Pruner, "run", run)
    monkeypatch.setattr(Pruner, "elements_on", lambda self, y, f: elems)
    params = {"complex": complex_to_dict(Y), "group": group_to_dict(group),
              "genset": list(range(1, group.order)), "lambda": lam}
    rep = run_experiment({"kind": "cover-family", "params": params, "seed": 0})
    assert [a[0] for a in solved] == seen
    return rep, seen[0]


def dense_members(Y, group, elems, lam=0.9):
    """Each family member's record from its built cover (built_members),
    and its new lambda solved densely: the largest |eigenvalue| of the
    skeleton operator off the functions constant on fibers, None for the
    quotient by all of G."""
    members, built = built_members(Y, elems, group, lam)
    out = []
    for member, cover in zip(members, built):
        skel = cover.complex.one_skeleton()
        M = sym_walk_matrix(skel)
        order = cover.group.order
        # lifted vertex p * |Q| + g lies over base position p
        fiber = np.array([v // order for v in skel.vertices])
        P = (fiber[:, None] == fiber[None, :]) / order
        off = np.eye(len(M)) - P
        new = np.abs(np.linalg.eigvalsh(off @ M @ off)).max() if order > 1 else None
        out.append((member, new))
    return out


def family_members(rep):
    """A cover-family report's member table and its members' audit details."""
    (members,) = [s["result"]["members"] for s in rep.stages if s["name"] == "cover_family"]
    audits = [a["detail"] for a in rep.audits if a["name"].startswith("cover_family_index_")]
    return members, audits


Z2_Z3 = product_group(cyclic(2), cyclic(3))
Z3_Z4 = product_group(cyclic(3), cyclic(4))


class TestCoverFamilySpectra:
    """The cover-family members' skeleton spectra from the characters of an
    abelian G, and their link verdicts from Y's, against each built cover
    solved densely."""

    def assert_dense(self, rep, Y, group, elems):
        members, audits = family_members(rep)
        want = dense_members(Y, group, elems)
        assert len(members) == len(audits) == len(want)
        for m, a, (ref, new) in zip(members, audits, want):
            assert m["verified"]
            # every field but the skeleton's is the built cover's exactly
            assert {**m, "skeleton_lambda": None} == {**ref, "skeleton_lambda": None}
            assert m["skeleton_lambda"] == a["skeleton_lambda"]
            assert m["skeleton_lambda"] == pytest.approx(ref["skeleton_lambda"], abs=1e-9)
            assert a["components"] == m["components"]
            if new is None or not is_abelian(group):  # characters give new_lambda
                assert a["new_lambda"] is None
            else:
                assert a["new_lambda"] == pytest.approx(new, abs=1e-9)
        return members, audits

    @pytest.mark.parametrize("group, alpha, beta", [
        (cyclic(6), 1, 2), (Z2_Z3, 3, 1), (Z3_Z4, 4, 1),
        (product_group(cyclic(2), cyclic(4)), 4, 1),
    ], ids=["Z6", "Z2xZ3", "Z3xZ4", "Z2xZ4"])
    def test_torus_covers(self, monkeypatch, group, alpha, beta):
        X = torus_complex(5, 7)
        elems = torus_cocycle(X, 5, 7, group, alpha, beta)
        rep, Y = family_run(monkeypatch, X, group, elems)
        members, _ = self.assert_dense(rep, Y, group, elems)
        assert [m["components"] for m in members] == [1] * len(members)
        # every link of the torus is a hexagon, whose -1 fails lambda 0.9
        assert not any(m["links_within_lambda"] for m in members)

    @pytest.mark.parametrize("alpha, beta, components", [
        (0, 2, [2, 1, 2, 1]), (3, 0, [3, 3, 1, 1]),
    ], ids=["H_order_3", "H_order_2"])
    def test_proper_holonomy(self, monkeypatch, alpha, beta, components):
        # Z6 on the 5 x 7 torus with holonomy <5 alpha, 7 beta> = <2> or <3>:
        # HN is G for some N and H for others, and G/N's cover has
        # |G| / |HN| components
        group = cyclic(6)
        X = torus_complex(5, 7)
        elems = torus_cocycle(X, 5, 7, group, alpha, beta)
        rep, Y = family_run(monkeypatch, X, group, elems)
        members, _ = self.assert_dense(rep, Y, group, elems)
        assert [m["subgroup_order"] for m in members] == [1, 2, 3, 6]
        assert [m["components"] for m in members] == components

    @pytest.mark.parametrize("seed_set", ["default", "held-out"])
    def test_benchmark_specs(self, monkeypatch, seed_set):
        # the member table of every cover-family benchmark spec, against its
        # members built from the audit's cover of Y
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import workloads

        specs = [spec for name in workloads.WORKLOADS
                 for spec in workloads.specs(name, seed_set) if spec["kind"] == "cover-family"]
        assert specs
        for spec in specs:
            built = []
            monkeypatch.setattr(harness.covers_mod, "build_cover",
                                lambda *a: built.append(build_cover(*a)) or built[-1])
            rep = run_experiment(spec)
            assert rep.status == "clean" and len(built) == 1  # the audit's cover only
            full = built[0]
            want, _ = built_members(full.base, full.labeling, full.group,
                                    spec["params"]["lambda"])
            members, _ = family_members(rep)
            assert [{**m, "skeleton_lambda": None} for m in members] == [
                {**m, "skeleton_lambda": None} for m in want]
            for m, ref in zip(members, want):
                assert m["skeleton_lambda"] == pytest.approx(ref["skeleton_lambda"], abs=1e-9)

    def test_disconnected_y_is_bad_input(self, monkeypatch):
        # the audit's holonomy raises on a disconnected Y before any member
        # runs: the run is bad input, not a member table
        tops = [t for part in (range(5), range(5, 10)) for t in itertools.combinations(part, 3)]
        Y = build_complex(2, tops)
        elems = np.zeros(Y.n_faces(1), dtype=np.int64)
        rep, _ = family_run(monkeypatch, Y, cyclic(6), elems)
        assert rep.exit_code == 4 and rep.status == "input_error"
        assert rep.stages[-1] == {"name": "error", "result": {
            "message": "holonomy needs a connected 1-skeleton", "type": "Disconnected",
            "stage": "audit.cover_components"}}
        assert not any(s["name"] == "cover_family" for s in rep.stages)
        assert not any(k.startswith("cover_family") for k in rep.timings)

    def test_pruned_y(self, monkeypatch, benchmark_ys):
        y, elems, group = benchmark_ys["cover-family-z6"]
        rep, Y = family_run(monkeypatch, y, group, elems)
        members, audits = self.assert_dense(rep, Y, group, elems)
        assert all(m["links_within_lambda"] for m in members)
        # Y's own skeleton lambda is the G/G member's, below the new ones
        assert audits[-1]["skeleton_lambda"] < min(a["new_lambda"] for a in audits[:-1])

    def test_identity_labeling_is_disconnected(self, monkeypatch):
        X = torus_complex(5, 7)
        elems = np.zeros(X.n_faces(1), dtype=np.int64)
        rep, Y = family_run(monkeypatch, X, Z3_Z4, elems)
        members, audits = self.assert_dense(rep, Y, Z3_Z4, elems)
        for m, a in zip(members, audits):
            assert m["components"] == m["quotient_order"]
            if m["quotient_order"] > 1:
                assert m["skeleton_lambda"] == a["new_lambda"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("group", [dihedral(3), symmetric_group(3)], ids=["D3", "S3"])
    def test_non_abelian_group_is_solved_densely(self, monkeypatch, group):
        pruner = Pruner(complete_complex(30, 2), group, validate_genset(group, range(1, 6)),
                        PruneConfig.empirical(0.9))
        outcome = pruner.run(stage_seed(1, "prune"))
        elems = pruner.elements_on(outcome.y, outcome.labeling)

        def no_characters(*args):
            raise AssertionError("a non-abelian group has no character spectra")

        monkeypatch.setattr(harness, "twisted_spectra", no_characters)
        rep, Y = family_run(monkeypatch, outcome.y, group, elems)
        members, _ = self.assert_dense(rep, Y, group, elems)
        assert [m["quotient_order"] for m in members] == [6, 2, 1]
        # the dense solve is today's: the same value bit for bit
        assert [m["skeleton_lambda"] for m in members] == [m["skeleton_lambda"] for m, _ in
                                                           dense_members(Y, group, elems)]

