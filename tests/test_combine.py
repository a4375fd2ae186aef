from dataclasses import replace

import numpy as np
import pytest

from hdxcover.combine import (
    CombineConfig,
    Combiner,
    verify_combine,
)
from hdxcover.combine import _path_argument
from hdxcover.complexes import build_complex, complete_complex
from hdxcover.errors import BadKindForFace
from hdxcover.harness import stage_seed
from hdxcover.spectral import is_hdx

from helpers import as_array, plain_path_argument


K5_TARGET = complete_complex(5, 2)


def combiner(X, C=K5_TARGET, config=CombineConfig(0.5)):
    return Combiner(X, C, config)


class TestCSatisfied:
    def test_complete_target_distinct_colors(self):
        X = complete_complex(6, 2)
        comb = combiner(X)
        col = as_array(comb, {v: v % 5 for v in X.vertices})
        assert comb.face_satisfied((0, 1, 2), col)

    def test_repeated_color_unsatisfied(self):
        X = complete_complex(6, 2)
        comb = combiner(X)
        col = as_array(comb, {v: v % 5 for v in X.vertices})
        assert not comb.face_satisfied((0, 5, 2), col)

    def test_color_outside_target_unsatisfied(self):
        X = complete_complex(6, 2)
        comb = combiner(X)
        col = as_array(comb, {v: v for v in X.vertices})  # 5 is no target vertex
        assert comb.face_satisfied((0, 1, 2), col)
        assert not comb.face_satisfied((0, 1, 5), col)
        assert not comb.face_satisfied((5,), col)

    def test_missing_target_face(self):
        target = build_complex(2, [(0, 1, 2), (0, 1, 3)])  # no face (1, 2, 3)
        X = complete_complex(4, 2)
        comb = combiner(X, target)
        col = as_array(comb, {0: 1, 1: 2, 2: 3, 3: 0})
        # image of (0, 1, 2) is (1, 2, 3): not a target face
        assert not comb.face_satisfied((0, 1, 2), col)
        # image of (0, 1, 3) is (0, 1, 2): a target face
        assert comb.face_satisfied((0, 1, 3), col)


class TestCPruning:
    def test_injective_coloring_keeps_everything(self):
        X = complete_complex(5, 2)
        comb = combiner(X)
        y, kind, _ = comb.c_pruning(as_array(comb, {v: v for v in X.vertices}))
        assert y.top_faces == X.top_faces
        assert kind == "coloring"

    def test_constant_coloring_empty(self):
        X = complete_complex(5, 2)
        comb = combiner(X)
        y, kind, _ = comb.c_pruning(as_array(comb, {v: 0 for v in X.vertices}))
        assert y is None and kind == "empty"

    def test_satisfied_count_matches_enumeration(self):
        rng = np.random.default_rng(3)
        X = complete_complex(20, 2)
        coloring = {v: int(rng.integers(5)) for v in X.vertices}
        comb = combiner(X)
        y, _, _ = comb.c_pruning(as_array(comb, coloring))
        expected = sum(
            1
            for f in X.faces(2)
            if len({coloring[v] for v in f}) == 3
        )
        assert len(y.top_faces) == expected

    def test_coloring_measure_marginals(self):
        rng = np.random.default_rng(5)
        X = complete_complex(15, 2)
        coloring = {v: int(rng.integers(5)) for v in X.vertices}
        comb = combiner(X)
        y, kind, _ = comb.c_pruning(as_array(comb, coloring))
        assert kind == "coloring"
        mass = {}
        for face, w in zip(y.top_faces, y.weights):
            img = tuple(sorted(coloring[v] for v in face))
            mass[img] = mass.get(img, 0.0) + w
        for t, w in zip(K5_TARGET.top_faces, K5_TARGET.weights):
            assert mass[t] == pytest.approx(w, abs=1e-9)


    @pytest.mark.parametrize("case", ["coloring", "restricted", "empty"])
    def test_matches_reference(self, case):
        from helpers import assert_same_complex, plain_c_pruning, random_complex

        rng = np.random.default_rng(7)
        X = random_complex(rng, 20, 2)
        comb = Combiner(X, K5_TARGET, CombineConfig(0.5))
        n_colors = {"coloring": 5, "restricted": 3, "empty": 1}[case]
        for _ in range(5):
            col = rng.integers(0, n_colors, size=len(X.vertices))
            y, kind, _ = comb.c_pruning(col)
            y_ref, kind_ref = plain_c_pruning(comb, col)
            assert kind == kind_ref == case
            if case == "empty":
                assert y is y_ref is None
                continue
            assert_same_complex(y, y_ref)


class TestEvents:
    def test_ac_false_when_all_colors_present(self):
        X = complete_complex(12, 2)
        comb = combiner(X, config=CombineConfig(1 / 3))
        col = as_array(comb, {v: v % 5 for v in X.vertices})
        for v in X.vertices:
            assert not comb.eval_event("AC", (v,), col)

    def test_ac_true_when_color_missing(self):
        X = complete_complex(8, 2)
        comb = combiner(X, config=CombineConfig(1 / 3))
        col = as_array(comb, {v: v % 4 for v in X.vertices})  # color 4 never used
        assert comb.eval_event("AC", (0,), col)

    def test_ac_false_on_unsatisfied_face(self):
        X = complete_complex(8, 2)
        comb = combiner(X, config=CombineConfig(1 / 3))
        col = as_array(comb, {v: 0 for v in X.vertices})
        assert not comb.eval_event("AC", (0, 1), col)

    @pytest.mark.parametrize("holed", [False, True])
    def test_ac_with_passed_flags_agrees(self, holed):
        # K20 colored onto K5, or onto K5 less one triangle
        target = build_complex(2, K5_TARGET.top_faces[holed:])
        X = complete_complex(20, 2)
        comb = Combiner(X, target, CombineConfig(0.5))
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(3):
            # rare colors leave some links without a completion
            col = rng.choice(5, size=len(X.vertices), p=[0.3, 0.3, 0.3, 0.05, 0.05])
            for k in comb.kind_dims["AC"]:
                flags = comb.rows_ok(col, X.level(k).rows).tolist()
                hits = comb.ac_sweep(col, k)
                for face, ok in zip(X.faces(k), flags):
                    hit = comb.eval_ac(face, col, hits)
                    assert hit == comb.eval_ac(face, col), face
                    seen.add((ok, hit))
        assert {(False, False), (True, False), (True, True)} <= seen

    def test_ne_true_on_disconnected(self):
        X = build_complex(2, [(0, 1, 2), (0, 3, 4)])
        comb = combiner(X, config=CombineConfig(0.9))
        col = as_array(comb, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4})
        assert comb.eval_event("NE", (0,), col)

    def test_ne_exact_value_on_blowup(self):
        # complete multipartite links have the target's spectrum exactly
        X = complete_complex(20, 2)
        coloring = {v: v % 5 for v in X.vertices}
        comb = Combiner(X, K5_TARGET, CombineConfig(1 / 3))
        sg = comb.satisfaction_graph((0,), as_array(comb, coloring))
        from hdxcover.spectral import adjacency_spectrum

        assert adjacency_spectrum(sg.graph).two_sided == pytest.approx(
            1 / 3, abs=1e-9
        )

    def test_kind_guard(self):
        X = complete_complex(6, 2)
        comb = combiner(X)
        col = as_array(comb, {v: v % 5 for v in X.vertices})
        with pytest.raises(BadKindForFace):
            comb.eval_event("NE", (0, 1), col)


class TestMoserTardosCombine:
    def test_clean_quickly_on_complete(self):
        X = complete_complex(25, 2)
        config = CombineConfig(1 / 3, max_resamples=5000)
        out = Combiner(X, K5_TARGET, config).run(0)
        assert out.status == "clean"
        assert out.measure_kind == "coloring"

    def test_deterministic(self):
        X = complete_complex(20, 2)
        config = CombineConfig(1 / 3, max_resamples=5000)
        a = Combiner(X, K5_TARGET, config).run(3)
        b = Combiner(X, K5_TARGET, config).run(3)
        assert a.transcript == b.transcript
        assert a.coloring == b.coloring

    def test_clean_means_no_events(self):
        X = complete_complex(20, 2)
        config = CombineConfig(1 / 3, max_resamples=5000)
        out = Combiner(X, K5_TARGET, config).run(1)
        assert out.status == "clean"
        comb = Combiner(X, K5_TARGET, config)
        col = as_array(comb, out.coloring)
        for kind, face in comb.events():
            assert not comb.eval_event(kind, face, col)

    def test_clean_links_equal_satisfaction_graphs(self):
        X = complete_complex(20, 2)
        config = CombineConfig(1 / 3, max_resamples=5000)
        out = Combiner(X, K5_TARGET, config).run(2)
        assert out.status == "clean"
        comb = Combiner(X, K5_TARGET, config)
        col = as_array(comb, out.coloring)
        for v in X.vertices:
            sg = comb.satisfaction_graph((v,), col)
            link = out.y.link((v,))
            assert set(link.faces(1)) == set(sg.graph.edges)
            assert {(u,) for u in sg.graph.vertices} == set(link.faces(0))


@pytest.fixture(scope="module")
def clean_outcome():
    X = complete_complex(25, 2)
    config = CombineConfig(1 / 3, max_resamples=5000)
    out = Combiner(X, K5_TARGET, config).run(7)
    assert out.status == "clean"
    return X, out


class TestVerifyCombine:

    def test_all_five_checks(self, clean_outcome):
        X, out = clean_outcome
        rep = verify_combine(X, K5_TARGET, out)
        assert rep.homomorphism_ok
        assert rep.nondegenerate_ok
        assert rep.hdx_ok
        assert rep.connected_ok and rep.path_argument_ok
        assert rep.fraction_ok
        assert rep.ok

    def test_margins_reported(self, clean_outcome):
        X, out = clean_outcome
        rep = verify_combine(X, K5_TARGET, out)
        lam = out.config.lambda_target
        assert rep.hdx_threshold == pytest.approx(2 * lam / (1 - 2 * lam))
        assert rep.hdx_threshold_alt == pytest.approx(2 * lam / (1 - lam))

    def test_missing_preimage_detected(self, clean_outcome):
        X, out = clean_outcome
        # drop every face colored by one specific target face
        bad = K5_TARGET.top_faces[0]
        keep = [
            i
            for i, face in enumerate(out.y.top_faces)
            if tuple(sorted(out.coloring[v] for v in face)) != bad
        ]
        hacked = replace(out, y=out.y.restrict(keep))
        rep = verify_combine(X, K5_TARGET, hacked)
        assert not rep.nondegenerate_ok
        assert rep.nondegenerate_witness == bad

    @pytest.mark.parametrize("colors", [{3: 99}, {3: -1, 7: 99}])
    def test_color_outside_target(self, clean_outcome, colors):
        # a color that is no target vertex maps no face through it and lies
        # at no distance from any color, so only the first and the descent
        # checks change: the first fails at the first kept face through a
        # recolored vertex, the second at an unkept edge there
        X, out = clean_outcome
        hacked = replace(out, coloring={**out.coloring, **colors})
        rep = verify_combine(X, K5_TARGET, hacked)
        first = next(f for f in out.y.top_faces if set(f) & set(colors))
        assert rep == replace(verify_combine(X, K5_TARGET, out), homomorphism_ok=False,
                              homomorphism_witness=first, path_argument_ok=False)
        assert not plain_path_argument(X, K5_TARGET, hacked.coloring, out.y.faces(1))[0]

    def test_identity_case_matches_is_hdx(self):
        X = complete_complex(5, 2)
        config = CombineConfig(1 / 3, max_resamples=10)
        comb = Combiner(X, K5_TARGET, config)
        coloring = {v: v for v in X.vertices}
        y, kind, _ = comb.c_pruning(as_array(comb, coloring))
        from hdxcover.combine import CombineOutcome

        out = CombineOutcome(
            status="clean",
            coloring=coloring,
            y=y,
            measure_kind=kind,
            resamples=0,
            transcript=(),
            violations_remaining=(),
            config=config,
        )
        rep = verify_combine(X, K5_TARGET, out)
        direct = is_hdx(y, min(rep.hdx_threshold, 1.0))
        assert rep.hdx_ok == direct.passes


def path_argument(X, C, coloring, y):
    """_path_argument on a coloring dict and a subcomplex y of X."""
    col = C.vertex_positions(np.array([coloring[v] for v in X.vertices]))
    u, v = np.searchsorted(X.vertices, y.vertices)[y.level(1).rows.T]
    return _path_argument(X, C, col, u * len(X.vertices) + v)


def path_matches(X, C, coloring, y):
    got = path_argument(X, C, coloring, y)
    assert got == plain_path_argument(X, C, coloring, y.faces(1))
    return got


class TestPathArgument:
    """The descent on arrays against the dict reference, witness included."""

    def test_clean_outcomes(self, clean_outcome):
        X, out = clean_outcome
        assert path_matches(X, K5_TARGET, out.coloring, out.y) == (True, None)
        X = complete_complex(40, 2)
        lam = is_hdx(K5_TARGET, 1.0).worst_value
        out = Combiner(X, K5_TARGET, CombineConfig(lam)).run(stage_seed(0, "combine"))
        assert out.status == "clean"
        assert path_matches(X, K5_TARGET, out.coloring, out.y) == (True, None)

    def test_failing_descent(self):
        # y keeps one triangle of K5: edge 34 has no kept edge at 3
        X = complete_complex(5, 2)
        y = build_complex(2, [(0, 1, 2)])
        coloring = {v: v for v in X.vertices}
        assert path_matches(X, K5_TARGET, coloring, y) == (False, (0, 3))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_subcomplexes(self, seed):
        # colors at distance 0, 1, 2 and none (two disjoint target triangles),
        # kept faces dense and sparse
        rng = np.random.default_rng(seed)
        C = K5_TARGET if seed % 2 else build_complex(2, [(0, 1, 2), (2, 3, 4), (5, 6, 7)])
        X = complete_complex(6 + seed % 5, 2)
        coloring = {v: int(rng.choice(C.vertices)) for v in X.vertices}
        keep = np.flatnonzero(rng.random(len(X.top_faces)) < (0.3, 0.6, 0.9)[seed % 3])
        y = X.restrict(keep if len(keep) else [0])
        path_matches(X, C, coloring, y)

    def test_both_verdicts_drawn(self):
        verdicts = set()
        for seed in range(24):
            rng = np.random.default_rng(seed)
            X = complete_complex(7, 2)
            coloring = {v: int(rng.integers(5)) for v in X.vertices}
            keep = np.flatnonzero(rng.random(len(X.top_faces)) < 0.5)
            verdicts.add(path_matches(X, K5_TARGET, coloring, X.restrict(keep))[0])
        assert verdicts == {True, False}
