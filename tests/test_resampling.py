"""The shared resampling engine against the plain references it replaced."""
import collections
import itertools
import tracemalloc

import numpy as np
import pytest

from hdxcover import pruning
from hdxcover.combine import CombineConfig, Combiner
from hdxcover.complexes import build_complex, complete_complex
from hdxcover.covers import build_cover
from hdxcover.errors import NotAFace
from hdxcover.groups import cyclic, validate_genset
from hdxcover.harness import stage_seed
from hdxcover.pruning import PruneConfig, Pruner, ne_verdicts
from hdxcover.spectral import adjacency_spectrum, is_hdx

from helpers import (
    as_array,
    coboundary_labeling,
    face_colors,
    link_table,
    plain_build_link_table,
    plain_build_satisfaction_graph,
    plain_color_satisfaction_graph,
    plain_combine_run,
    plain_eval_ac,
    plain_ne_violated,
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


def no_target(C, face, cache):
    """target_link as if no face were a face of C."""
    return None, np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("C", [relabeled(K5), K5_HOLED, complete_complex(5, 3)])
def test_target_link_codes_its_edges(C):
    """target_link's edge codes over C's vertex positions, on every vertex
    link of C, ascending in its edges' order; none for a face of no C."""
    n, cache = len(C.vertices), {}
    for v in C.vertices:
        skel, codes = pruning.target_link(C, (v,), cache)
        want = [C.vertices.index(a) * n + C.vertices.index(b) for a, b in skel.edges]
        assert codes.tolist() == want == sorted(want)
        assert pruning.target_link(C, (v,), cache)[1] is codes
    skel, codes = pruning.target_link(C, (-1,), {})
    assert skel is None and codes.dtype == np.int64 and not len(codes)


def plain_build(sampler, sigma, x, satisfied=None, absent=False):
    """plain_build_satisfaction_graph of sigma on the sampler's own image
    and colors, as if the image were no target face if absent."""
    image, colors = face_colors(sampler, sigma, x)
    tskel = None if absent else pruning.target_link(sampler.target, image, {})[0]
    return plain_build_satisfaction_graph(sampler, sigma, x, satisfied, colors, tskel, image)


def compare_all_bases(X, C, seed, palette):
    """Compare the satisfaction graph of every satisfied face of dimension
    0 to d-2, under a random coloring from the first `palette` target
    vertices, with the coface walk and with the dict builder, also as if
    the face's image were no target face (`absent`); returns the outcome
    kinds."""
    comb = Combiner(X, C, CombineConfig(0.5))
    col = np.random.default_rng(seed).integers(0, palette, len(X.vertices))
    bases = [s for ell in range(X.dim - 1) for s in X.faces(ell) if comb.face_satisfied(s, col)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pruning, "target_link", no_target)
        absent = [comb.satisfaction_graph(sigma, col) for sigma in bases]
    kinds = set()
    for sigma, sg in zip(bases, absent):
        assert_same_build(sg, plain_build(comb, sigma, col, absent=True))
        if sg.missing is not None:
            kinds.add("absent")
        got = comb.satisfaction_graph(sigma, col)
        assert_same_build(got, plain_build(comb, sigma, col))
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


def check_level(sampler, ell, x, satisfied=None):
    """The sampler's NE verdicts on the ell-faces, from one level sweep,
    against plain_build_satisfaction_graph and plain_ne_violated face by
    face, and each satisfaction graph built from the same arrays against
    the plain builder's bit for bit; returns the verdicts."""
    got = sampler.ne_sweep(ell, slice(None), x, satisfied)
    want = []
    for sigma in sampler.X.faces(ell):
        if not sampler.face_satisfied(sigma, x):
            want.append(False)
            continue
        sg = plain_build(sampler, sigma, x, satisfied)
        assert_same_build(sampler.satisfaction_graph(sigma, x, satisfied), sg)
        want.append(plain_ne_violated(sg, *sampler.ne_rule))
    assert got.tolist() == want
    return want


class TestNeVerdicts:
    """ne_verdicts on level sweeps of both samplers, both prune modes and
    d = 2 and 3, against the plain builder and NE test."""

    @staticmethod
    def verdicts(X, C, seed, palette):
        rng = np.random.default_rng(seed)
        comb = Combiner(X, C, CombineConfig(0.5))
        col = rng.integers(0, palette, len(X.vertices))
        out = {"combine": [v for ell in range(X.dim - 1) for v in check_level(comb, ell, col)]}
        # over Z_n, n the vertex count, every nonzero element generating: the
        # coboundary of the vertex positions satisfies every face, and a link
        # colors onto a whole Cayley link unless it misses vertices; under an
        # odd seed a tenth of the labels is redrawn, which empties fibers
        n = len(X.vertices)
        zn = cyclic(n)
        f = coboundary_labeling(X, zn, range(n)).astype(np.int64) - 1
        flip = rng.random(len(f)) < 0.1 * (seed % 2)
        f[flip] = rng.integers(0, n - 1, flip.sum())
        for mode in pruning.MODES:
            pruner = Pruner(X, zn, validate_genset(zn, range(1, n)), PruneConfig(0.9, mode=mode))
            out[mode] = [v for ell in range(X.dim - 1) for v in check_level(pruner, ell, f)]
        return out

    @pytest.mark.parametrize("X, C, seed, palette", SAT_CASES)
    def test_matches_plain(self, X, C, seed, palette):
        self.verdicts(X, C, seed, palette)

    def test_cases_reach_hits_and_misses(self):
        runs = [self.verdicts(*case) for case in SAT_CASES]
        for name in ("combine", *pruning.MODES):
            hits = [h for out in runs for h in out[name]]
            assert 0 < sum(hits) < len(hits), name


def test_combine_level_with_no_satisfied_face():
    """One color on every vertex satisfies no edge: the NE events of
    dimension 1 are False, swept or alone, and every vertex, which keeps no
    link edge, is violated."""
    X = complete_complex(7, 3)
    comb = Combiner(X, K5_3, CombineConfig(0.5))
    col = np.zeros(len(X.vertices), dtype=np.int64)
    assert check_level(comb, 1, col) == [False] * X.n_faces(1)
    assert not any(comb.eval_event("NE", edge, col) for edge in X.faces(1))
    ne = [face for kind, face in comb.all_violations(col) if kind == "NE"]
    assert ne == list(X.faces(0))


def cover_complex():
    X = complete_complex(6, 2)
    z3 = cyclic(3)
    return build_cover(X, coboundary_labeling(X, z3, [0, 1, 2, 0, 1, 2]), z3).complex


LEVEL_CASES = [
    complete_complex(7, 3),
    build_complex(2, [[f"v{a}", f"v{b}", f"v{c}"]
                      for a, b, c in itertools.combinations(range(7), 3)]),
    complete_complex(8, 2).restrict(np.arange(0, 56, 3)),
    cover_complex(),
]


class TestLevelTable:
    """Every slice of a level table against the link table built for its
    face alone, bit for bit, under both samplers' row keys."""

    @pytest.mark.parametrize("X", LEVEL_CASES, ids=["k7-d3", "strings", "restricted", "cover"])
    def test_slices_match_plain(self, X):
        samplers = [Pruner(X, Z5, Z5_GENS, PruneConfig(0.9)),
                    Combiner(X, complete_complex(X.dim + 2, X.dim), CombineConfig(0.5))]
        for sampler, ell in itertools.product(samplers, range(X.dim - 1)):
            for sigma in X.faces(ell):
                got = link_table(sampler, sigma)
                want = plain_build_link_table(X, sigma, sampler.row_keys)
                assert got.verts == want.verts
                for name in got._fields[1:]:
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a is None) == (b is None), name
                    if a is not None:
                        assert a.dtype == b.dtype and np.array_equal(a, b), name


def recorded_sweeps(monkeypatch, run):
    """The arguments and result of every satisfaction_arrays call that
    run() makes through a Pruner or a Combiner."""
    calls, real = [], pruning.Sampler.satisfaction_arrays

    def record(self, ell, faces, x, satisfied=None):
        args = (self, ell, faces, x.copy(), None if satisfied is None else satisfied.copy())
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pruning.Sampler, "satisfaction_arrays", record)
    run()
    monkeypatch.undo()
    return calls


def check_sweeps(calls):
    """Each recorded sweep's NE verdicts and graphs against the plain
    builder and NE test, face by face; returns the faces checked."""
    checked = 0
    for (sampler, ell, faces, x, satisfied), sa in calls:
        verdicts = ne_verdicts(sa, *sampler.ne_rule)
        for s, sigma in enumerate(sampler.X.faces(ell)[faces]):
            if not sa.ok[s]:
                continue
            sg = plain_build(sampler, sigma, x, satisfied)
            assert_same_build(sampler.satisfaction_graph(sigma, x, satisfied), sg)
            assert verdicts[s] == plain_ne_violated(sg, *sampler.ne_rule)
            checked += 1
    return checked


K40 = complete_complex(40, 2)


def k40_combiner():
    """K40 onto K5 at the target's own link expansion, as the harness runs it."""
    lam = max(min(is_hdx(K5, 1.0).worst_value, 0.999), 1e-6)
    return Combiner(K40, K5, CombineConfig(lam))


class TestArrayBuilder:
    """The satisfaction arrays that full NE scans decide, against the dict
    builder, and by hand."""

    def test_k30_over_z6_prune(self, monkeypatch):
        z6 = cyclic(6)
        pruner = Pruner(complete_complex(30, 2), z6, validate_genset(z6, [1, 2, 3, 4, 5]),
                        PruneConfig.empirical(0.9, r=2.0))
        calls = recorded_sweeps(monkeypatch, lambda: pruner.run(stage_seed(1, "prune")))
        # the 39 scans that reach an NE event decide runs of 1, 2, 4, ...
        # vertices from vertex 0, 508 faces for the 390 events they evaluate
        runs = collections.Counter((args[2].start, args[2].stop) for args, _ in calls)
        assert runs == {(0, 1): 39, (1, 3): 34, (3, 7): 30, (7, 15): 22, (15, 31): 7}
        assert check_sweeps(calls) == 508

    def test_k40_onto_k5_combine(self, monkeypatch):
        comb = k40_combiner()
        calls = recorded_sweeps(monkeypatch, lambda: comb.run(stage_seed(0, "combine")))
        # the clean scan decides its 40 vertices in runs of 1, 2, 4, ...
        assert [(args[2].start, args[2].stop) for args, _ in calls] == [
            (0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 63)]
        assert check_sweeps(calls) == 40

    def test_edge_to_no_target_edge_raises(self, monkeypatch):
        comb = Combiner(complete_complex(9, 2), K5, CombineConfig(0.5))
        col = as_array(comb, {v: v % 5 for v in range(9)})
        real = comb.link_colors

        def one_color(*args):  # every link vertex colored 1
            images, colors = real(*args)
            return images, np.ones_like(colors)

        monkeypatch.setattr(comb, "link_colors", one_color)
        with pytest.raises(ValueError, match="maps to no target edge"):
            comb.satisfaction_graph((0,), col)

    def test_memory_is_bounded(self):
        comb = k40_combiner()
        col = as_array(comb, {v: v % 5 for v in K40.vertices})
        satisfied = comb.satisfied_mask(col)
        comb.satisfaction_graph((0,), col, satisfied)  # the level table is cached, as in a scan
        tracemalloc.start()
        try:
            sg = comb.satisfaction_graph((0,), col, satisfied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 32 link vertices of colors 1-4, joined across colors
        assert sg.graph.m == 32 * 31 // 2 - 4 * (8 * 7 // 2)
        assert peak < 1e6
