"""The shared resampling engine against the plain references it replaced."""
import itertools
import tracemalloc

import numpy as np
import pytest

from hdxcover import combine, pruning
from hdxcover.combine import CombineConfig, Combiner
from hdxcover.complexes import build_complex, complete_complex
from hdxcover.errors import NotAFace
from hdxcover.groups import cyclic, validate_genset
from hdxcover.harness import stage_seed
from hdxcover.pruning import PruneConfig, Pruner, build_satisfaction_graph
from hdxcover.spectral import adjacency_spectrum, is_hdx

from helpers import (
    as_array,
    plain_build_satisfaction_graph,
    plain_color_satisfaction_graph,
    plain_combine_run,
    plain_eval_ac,
    plain_prune_run,
    random_complex,
    relabeled,
)

Z5 = cyclic(5)
Z5_GENS = validate_genset(Z5, [1, 2, 3, 4])
K5 = complete_complex(5, 2)
# K5 less two triangles: every edge still lies in a triangle
HOLES = {(0, 1, 2), (1, 3, 4)}
K5_HOLED = build_complex(
    2, [t for t in itertools.combinations(range(5), 3) if t not in HOLES]
)


def assert_same_run(outcome, state, want):
    status, x, resamples, transcript, remaining = want
    assert outcome.status == status
    assert outcome.resamples == resamples
    assert outcome.transcript == transcript
    assert (state == x).all()
    assert outcome.violations_remaining == remaining


class TestPruneLoop:
    @pytest.mark.parametrize(
        "X, config, seed",
        [
            (complete_complex(12, 2), PruneConfig.empirical(0.9, max_resamples=3), 0),
            (complete_complex(12, 2), PruneConfig.empirical(0.9, max_resamples=3), 1),
            (complete_complex(12, 2), PruneConfig.empirical(0.9, max_resamples=200), 2),
            (relabeled(complete_complex(12, 2)), PruneConfig.empirical(0.9, 50), 3),
            (complete_complex(20, 2), PruneConfig.empirical(0.9, r=2.0), 1),
            (complete_complex(8, 2), PruneConfig(0.9, max_resamples=4), 0),
        ],
    )
    def test_matches_plain_loop(self, X, config, seed):
        pruner = Pruner(X, Z5, Z5_GENS, config)
        outcome = pruner.run(seed)
        assert_same_run(outcome, outcome.labeling, plain_prune_run(pruner, seed))


# K5's vertex links are K4, of lambda 1/3: onto K5, K8 and K9 end clean at
# 0.34 after 2-3 resamples on these seeds, and K7 and K9 never at 0.3
CLEAN, NEVER = 0.34, 0.3
K7, K9 = complete_complex(7, 2), complete_complex(9, 2)


class TestCombineLoop:
    @pytest.mark.parametrize(
        "X, C, config, seed",
        [
            (K9, K5, CombineConfig(NEVER, max_resamples=5), 0),
            (K9, K5, CombineConfig(CLEAN), 3),
            (relabeled(complete_complex(8, 2)), K5, CombineConfig(CLEAN), 1),
            (K9, K5, CombineConfig(NEVER, max_resamples=3), 2),
            (K7, K5, CombineConfig(NEVER, max_resamples=4), 1),
            (complete_complex(8, 2), K5, CombineConfig(0.34), 2),
            (complete_complex(10, 2), K5_HOLED, CombineConfig(0.9, max_resamples=9), 0),
            (complete_complex(10, 3), complete_complex(5, 3), CombineConfig(0.5), 3),
        ],
    )
    def test_matches_plain_loop(self, X, C, config, seed):
        comb = Combiner(X, C, config)
        outcome = comb.run(seed)
        col = as_array(comb, outcome.coloring)
        assert_same_run(outcome, col, plain_combine_run(comb, seed))

    def test_budget_exhausted_reports_violated_events(self):
        comb = Combiner(K7, K5, CombineConfig(NEVER, max_resamples=4))
        outcome = comb.run(1)
        assert outcome.status == "budget_exhausted"
        assert outcome.resamples == 4
        assert outcome.violations_remaining
        col = as_array(comb, outcome.coloring)
        for kind, face in outcome.violations_remaining:
            assert comb.eval_event(kind, face, col)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_config_rejects_empty_budget(self, budget):
        with pytest.raises(ValueError):
            CombineConfig(0.5, max_resamples=budget)


class TestEvalEvent:
    @pytest.mark.parametrize("name", ["prune", "combine"])
    def test_non_face_raises_for_every_kind(self, name):
        X = complete_complex(8, 2)
        if name == "prune":
            sampler = Pruner(X, Z5, Z5_GENS, PruneConfig.empirical(0.9))
            x = np.zeros(X.n_faces(1), dtype=np.int64)
        else:
            sampler = Combiner(X, K5, CombineConfig(0.9))
            x = np.arange(len(X.vertices)) % 5
        for kind, dims in sampler.kind_dims.items():
            for ell in dims:
                # an unknown vertex, and from dimension 1 a repeated one
                unknown, repeated = tuple(range(ell)) + (99,), (0,) * (ell + 1)
                for face in (unknown, repeated) if ell else (unknown,):
                    with pytest.raises(NotAFace):
                        sampler.eval_event(kind, face, x)


def assert_same_build(got, want):
    """The same satisfaction graph field by field, with weights and the
    spectra of both graphs equal bit for bit."""
    assert got.sigma == want.sigma
    assert got.missing == want.missing
    assert got.dropped_vertices == want.dropped_vertices
    for name in ("graph", "link_graph"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is not None:
            assert g.vertices == w.vertices
            assert g.edges == w.edges
            assert np.array_equal(g.weights, w.weights)
            assert adjacency_spectrum(g).eigenvalues == adjacency_spectrum(w).eigenvalues


def compare_all_bases(X, C, seed, palette):
    """Compare the builder with the coface walk on every satisfied face of
    dimension 0 to d-2, under a random coloring from the first `palette`
    target vertices, and with the dict builder too, also as if the face's
    image were no target face (`absent`); returns the outcome kinds."""
    comb = Combiner(X, C, CombineConfig(0.5))
    col = np.random.default_rng(seed).integers(0, palette, len(X.vertices))
    kinds = set()
    for ell in range(X.dim - 1):
        for sigma in X.faces(ell):
            if not comb.face_satisfied(sigma, col):
                continue
            tskel = pruning.target_link(C, comb.image(sigma, col), {})
            colors = np.asarray(C.vertices)[col[comb.link_table(sigma).pos]]
            for args in ((comb, sigma, col, None, colors, tskel),
                         (comb, sigma, col, None, colors, None, "absent")):
                sg = build_satisfaction_graph(*args)
                assert_same_build(sg, plain_build_satisfaction_graph(*args))
            if sg.missing == "absent":
                kinds.add("absent")
            got = comb.satisfaction_graph(sigma, col)
            want = plain_color_satisfaction_graph(comb, sigma, col)
            for name in ("graph", "link_graph"):
                g, w = getattr(got, name), getattr(want, name)
                assert (g is None) == (w is None)
                if g is not None:
                    assert g.vertices == w.vertices
                    assert g.edges == w.edges
                    assert np.array_equal(g.weights, w.weights)
            assert got.missing == want.missing
            assert got.dropped_vertices == want.dropped_vertices
            if got.link_graph is None:
                kinds.add("no edges")
            elif got.missing is not None:
                kinds.add("missing")
            elif got.graph is not None:
                kinds.add("dropped" if got.dropped_vertices else "graph")
    return kinds


K5_3 = complete_complex(5, 3)
SAT_CASES = [
    (complete_complex(20, 2), K5, 0, 5),
    (complete_complex(20, 2), K5, 1, 3),
    (relabeled(complete_complex(12, 2)), K5, 8, 4),
    (complete_complex(25, 2), K5, 2, 5),
    (complete_complex(12, 2), K5, 3, 2),
    (complete_complex(15, 2), K5_HOLED, 4, 5),
    (complete_complex(15, 2), K5_HOLED, 5, 4),
    (complete_complex(9, 3), K5_3, 6, 5),
    (complete_complex(9, 3), K5_3, 7, 4),
    # sparse and unevenly weighted, so some satisfied link vertices drop out
    (random_complex(np.random.default_rng(0), 12, 2, keep=0.3), K5, 0, 5),
    # unevenly weighted at d = 3, where cofaces meet link edges out of order
    (random_complex(np.random.default_rng(1), 9, 3, keep=0.6), K5_3, 1, 5),
    # labels that are no positions, so colors are no labels
    (complete_complex(12, 2), relabeled(K5), 9, 5),
]


class TestColorSatisfactionGraph:
    @pytest.mark.parametrize("X, C, seed, palette", SAT_CASES)
    def test_matches_coface_walk(self, X, C, seed, palette):
        assert compare_all_bases(X, C, seed, palette)

    def test_cases_reach_every_outcome(self):
        kinds = set().union(*(compare_all_bases(*case) for case in SAT_CASES))
        assert kinds == {"no edges", "missing", "dropped", "graph", "absent"}


class TestAcSweep:
    """ac_sweep against the face-by-face AC event it replaced."""

    @staticmethod
    def compare(X, C, seed, palette):
        comb = Combiner(X, C, CombineConfig(0.5))
        col = np.random.default_rng(seed).integers(0, palette, len(X.vertices))
        hits = []
        for k in range(X.dim):
            got = comb.ac_sweep(col, k).tolist()
            assert got == [plain_eval_ac(comb, face, col) for face in X.faces(k)], k
            hits += got
        return hits

    @pytest.mark.parametrize("X, C, seed, palette", SAT_CASES)
    def test_matches_plain_eval_ac(self, X, C, seed, palette):
        self.compare(X, C, seed, palette)

    def test_cases_reach_hits_and_misses(self):
        hits = [h for case in SAT_CASES for h in self.compare(*case)]
        assert 0 < sum(hits) < len(hits)


def recorded_builds(monkeypatch, run):
    """The arguments and result of every satisfaction graph that run()
    builds through a Pruner or a Combiner."""
    calls = []

    def record(*args, **kw):
        args = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        calls.append((args, kw, build_satisfaction_graph(*args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(pruning, "build_satisfaction_graph", record)
    monkeypatch.setattr(combine, "build_satisfaction_graph", record)
    run()
    return calls


K40 = complete_complex(40, 2)


def k40_combiner():
    """K40 onto K5 at the target's own link expansion, as the harness runs it."""
    lam = max(min(is_hdx(K5, 1.0).worst_value, 0.999), 1e-6)
    return Combiner(K40, K5, CombineConfig(lam))


class TestArrayBuilder:
    """build_satisfaction_graph against the dict builder it replaced, on
    every satisfaction graph two full NE scans build, and by hand."""

    def test_k30_over_z6_prune(self, monkeypatch):
        z6 = cyclic(6)
        pruner = Pruner(complete_complex(30, 2), z6, validate_genset(z6, [1, 2, 3, 4, 5]),
                        PruneConfig.empirical(0.9, r=2.0))
        calls = recorded_builds(monkeypatch, lambda: pruner.run(stage_seed(1, "prune")))
        assert len(calls) == 390  # one per NE event the 765 resamples evaluate
        for args, kw, got in calls:
            assert_same_build(got, plain_build_satisfaction_graph(*args, **kw))

    def test_k40_onto_k5_combine(self, monkeypatch):
        comb = k40_combiner()
        calls = recorded_builds(monkeypatch, lambda: comb.run(stage_seed(0, "combine")))
        assert len(calls) == 40
        for args, kw, got in calls:
            assert_same_build(got, plain_build_satisfaction_graph(*args, **kw))

    def test_edge_to_no_target_edge_raises(self):
        comb = Combiner(complete_complex(9, 2), K5, CombineConfig(0.5))
        col = as_array(comb, {v: v % 5 for v in range(9)})
        tskel = pruning.target_link(K5, (0,), {})
        colors = np.ones(len(comb.link_table((0,)).verts), dtype=np.int64)
        with pytest.raises(ValueError, match="maps to no target edge"):
            build_satisfaction_graph(comb, (0,), col, None, colors, tskel)

    def test_memory_is_bounded(self):
        comb = k40_combiner()
        col = as_array(comb, {v: v % 5 for v in K40.vertices})
        args = (comb, (0,), col, comb.satisfied_mask(col), col[comb.link_table((0,)).pos],
                pruning.target_link(K5, (0,), {}))
        build_satisfaction_graph(*args)  # the link table is cached, as in a scan
        tracemalloc.start()
        try:
            sg = build_satisfaction_graph(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 32 link vertices of colors 1-4, joined across colors
        assert sg.graph.m == 32 * 31 // 2 - 4 * (8 * 7 // 2)
        assert peak < 1e6
