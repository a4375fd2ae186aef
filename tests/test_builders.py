"""The array complex builders against the per-face tuple build they replaced.

Every builder that makes a complex from rows of vertex positions must give
the complex `helpers.plain_build_complex` gives on the same faces as label
tuples: the same vertices, top faces and top positions, and weights equal
bit for bit.  The label-level `build_complex` must raise what the tuple
build raises, with the same message.
"""
import itertools
import math
import sys

import numpy as np
import pytest

from hdxcover import complexes
from hdxcover.combine import CombineConfig, Combiner
from hdxcover.complexes import (
    build_complex,
    complete_complex,
    complex_from_dict,
    tensor_with_complete,
)
from hdxcover.covers import build_cover, push_cocycle
from hdxcover.errors import DuplicateFace, NonPure, ZeroMeasure
from hdxcover.graphs import WGraph, label_positions
from hdxcover.groups import (
    cayley_clique_complex,
    cyclic,
    normal_subgroups,
    quotient_group,
    symmetric_group,
)
from hdxcover.harness import run_experiment, stage_seed
from hdxcover.spectral import is_hdx

from helpers import (
    as_array,
    assert_same_complex,
    plain_build_complex,
    plain_build_cover,
    plain_c_pruning,
    plain_identity_cliques,
    random_complex,
    relabeled,
)

K30 = {"kind": "complete", "n": 30, "dim": 2}
# the prune-k30 and combine experiments of the benchmark
PIPELINE_SPECS = [
    {"kind": "prune", "seed": 2,
     "params": {"complex": K30, "group": {"kind": "cyclic", "n": 5},
                "genset": [1, 2, 3, 4], "lambda": 0.9}},
    {"kind": "combine", "seed": 0,
     "params": {"complex": {"kind": "complete", "n": 40, "dim": 2},
                "target": {"kind": "complete", "n": 5, "dim": 2}}},
]


def symmetric_gens(group, seeds):
    return sorted({h for x in seeds for h in (x, group.inv(x))})


class TestCompleteAndRestrict:
    @pytest.mark.parametrize("n", [4, 5, 7, 12, 20, 30, 40])
    def test_complete(self, n):
        for dim in (1, 2, 3) if n < 20 else (2,):
            want = plain_build_complex(dim, itertools.combinations(range(n), dim + 1))
            assert_same_complex(complete_complex(n, dim), want)

    def test_complete_with_weights(self):
        # a weighted complete complex is the complete one restricted to all
        # of its top faces with the new weights
        def weighted(n, weights):
            X = complete_complex(n, 2)
            return X.restrict(range(len(X.weights)), weights)

        rng = np.random.default_rng(3)
        w = rng.random(math.comb(9, 3))
        w[[0, 5, 17]] = 0.0
        for weights in (w, w.tolist()):
            want = plain_build_complex(2, itertools.combinations(range(9), 3), weights)
            assert_same_complex(weighted(9, weights), want)
        # faces through vertex 0 carry no weight, so vertex 0 is dropped
        w = np.array([0.0 if 0 in f else 1.0
                      for f in itertools.combinations(range(6), 3)])
        X = weighted(6, w)
        assert X.vertices == (1, 2, 3, 4, 5)
        assert_same_complex(X, plain_build_complex(2, itertools.combinations(range(6), 3), w))

    @pytest.mark.parametrize("seed", range(4))
    def test_restrict(self, seed):
        rng = np.random.default_rng(seed)
        X = relabeled(random_complex(rng, 9, 2 + seed % 2))
        idx = np.flatnonzero(rng.random(len(X.weights)) < 0.5)
        if not len(idx):
            idx = np.array([0])
        want = plain_build_complex(X.dim, [X.top_faces[i] for i in idx], X.weights[idx])
        assert_same_complex(X.restrict(idx), want)
        weights = rng.random(len(idx))
        want = plain_build_complex(X.dim, [X.top_faces[i] for i in idx], weights)
        assert_same_complex(X.restrict(idx, weights), want)


class TestBenchmarkComplexes:
    def test_pruned_ys(self, benchmark_prunes):
        for pruner, out in benchmark_prunes.values():
            X = pruner.X
            idx = np.flatnonzero(pruner.satisfied_mask(out.labeling))
            want = plain_build_complex(X.dim, [X.top_faces[i] for i in idx], X.weights[idx])
            assert_same_complex(out.y, want)

    def test_full_and_quotient_covers(self, benchmark_ys):
        for y, labels, group in benchmark_ys.values():
            cases = [(labels, group)]
            for sub in normal_subgroups(group):
                q = quotient_group(group, sub)
                cases.append((push_cocycle(y, labels, group, q), q.group))
            for lab, g in cases:
                got, want = build_cover(y, lab, g), plain_build_cover(y, lab, g)
                assert_same_complex(got.complex, want.complex)
                assert got.legend == want.legend

    def test_combine_colored_y(self):
        X, C = complete_complex(40, 2), complete_complex(5, 2)
        lam = max(min(is_hdx(C, 1.0).worst_value, 0.999), 1e-6)
        comb = Combiner(X, C, CombineConfig(lam))
        out = comb.run(stage_seed(0, "combine"))
        col = as_array(comb, out.coloring)
        for colors, kind in ((col, "coloring"), (col % 3, "restricted")):
            y, got_kind, _ = comb.c_pruning(colors)
            want, want_kind = plain_c_pruning(comb, colors)
            assert got_kind == want_kind == kind
            assert_same_complex(y, want)
        assert_same_complex(out.y, plain_c_pruning(comb, col)[0])


def plain_link(X, s):
    """The link of s from its cofaces' label tuples."""
    idx = X.cofaces(s)
    tops = [tuple(v for v in X.top_faces[i] if v not in s) for i in idx]
    return plain_build_complex(X.dim - len(s), tops, X.weights[idx])


def plain_cayley(group, gens, d):
    """The Cayley clique complex from a set of sorted label tuples."""
    tops = set()
    for g in group.elements:
        row = group.mul_table[g]
        for combo in plain_identity_cliques(group, gens, d):
            tops.add(tuple(sorted([g] + [int(row[s]) for s in combo])))
    return plain_build_complex(d, sorted(tops))


def plain_tensor(X, t):
    """The tensor's top faces and weights, one sorted tuple per matching."""
    d, nv = X.dim, len(X.vertices)
    base_pos = {v: i for i, v in enumerate(X.vertices)}
    tops, weights = [], []
    denom = math.comb(t, d + 1) * math.factorial(d + 1)
    for face, w in zip(X.top_faces, X.weights):
        for cols in itertools.combinations(range(1, t + 1), d + 1):
            for perm in itertools.permutations(face):
                tops.append(tuple(sorted((c - 1) * nv + base_pos[v]
                                         for c, v in zip(cols, perm))))
                weights.append(w / denom)
    return plain_build_complex(d, tops, weights)


class TestDerivedComplexes:
    @pytest.mark.parametrize("seed", range(3))
    def test_links_of_uneven_dim3(self, seed):
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 8, 3, keep=0.6)
        if seed:
            X = relabeled(X)
        for s in X.faces(0) + X.faces(1)[::3]:
            assert_same_complex(X.link(s), plain_link(X, s))

    @pytest.mark.parametrize("name, group, seeds, d", [
        ("Z6", cyclic(6), (1, 2, 3), 2),
        ("S4-d2", symmetric_group(4), (1, 2, 3, 5), 2),
        ("S4-d3", symmetric_group(4), (1, 2, 3, 5), 3),
    ])
    def test_cayley(self, name, group, seeds, d):
        gens = symmetric_gens(group, seeds)
        got = cayley_clique_complex(group, gens, d).complex
        assert_same_complex(got, plain_cayley(group, gens, d))

    @pytest.mark.parametrize("seed", range(3))
    def test_tensor(self, seed):
        rng = np.random.default_rng(seed)
        X = relabeled(random_complex(rng, 6, 1 + seed % 2, keep=0.6))
        for t in (X.dim + 1, X.dim + 3):
            assert_same_complex(tensor_with_complete(X, t).complex, plain_tensor(X, t))


class TestBuildComplex:
    @pytest.mark.parametrize("faces, weights", [
        ([("a", "b", "c"), ("d", "c", "b"), ("a", "e", "d")], None),
        ([("a", "b", "c"), ("d", "c", "b"), ("a", "e", "d")], [0.0, 2.0, 1.0]),
        ([((0, 1), (0, 2), (1, 1)), ((1, 1), (0, 1), (2, 0))], [1.5, 0.5]),
        ([(5, 3, 9), (9, 1, 3), (2, 4, 6), (1, 2, 3)], [1.0, 0.0, 0.0, 3.0]),
        ([[7, 1], [1, 3], [3, 7]], np.array([1, 2, 3])),
    ])
    def test_labels_and_zero_weights(self, faces, weights):
        dim = len(faces[0]) - 1
        assert_same_complex(build_complex(dim, faces, weights),
                            plain_build_complex(dim, faces, weights))

    def test_weights_from_a_generator(self):
        faces = [(0, 1), (1, 2), (2, 0)]
        got = build_complex(1, faces, (w for w in (1.0, 2.0, 3.0)))
        assert_same_complex(got, plain_build_complex(1, faces, [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("dim, faces, weights, exc", [
        (2, [(1, 2, 3), (4, 4, 5)], None, NonPure),
        (2, [(0, 1, 2), (2, 1, 2)], None, NonPure),
        (2, [(1, 2), (3, 3, 4), (5, 6, 7)], None, NonPure),
        (2, [(1, 2, 3), (1, 2, 4, 5)], None, NonPure),
        (2, [(1, 2, 3), (3, 1), (4, 5, 6, 7)], None, NonPure),
        (1, [(1, 2, 3), (4, 5, 6)], None, NonPure),
        (2, [(1, 2, 3), (3, 2, 1), (1, 2, 4), (4, 2, 1)], None, DuplicateFace),
        (2, [(1, 2, 4), (1, 2, 3), (4, 2, 1), (3, 2, 1)], None, DuplicateFace),
        (1, [("b", "a"), ("a", "c"), ("c", "a"), ("a", "b")], None, DuplicateFace),
        (2, [(1, 2, 3), (1, 2, 3)], [1.0, -1.0], ValueError),
        (2, [(1, 2, 3), (1, 2, 4)], [1.0, float("nan")], ValueError),
        (2, [(1, 2, 3), (1, 2, 4)], [float("inf"), 1.0], ValueError),
        (2, [(1, 2, 3), (1, 2, 4)], [1.0, -0.5], ValueError),
        (2, [(1, 2, 3), (1, 2, 4)], [1.0], ValueError),
        (2, [(1, 2, 3), (1, 2, 4)], [0.0, 0.0], ZeroMeasure),
        (2, [(1, 2, 3), (1, 2, 4)], [1e308, 1e308], ValueError),
        (2, [], None, ZeroMeasure),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_same_errors(self, dim, faces, weights, exc):
        with pytest.raises(exc) as want:
            plain_build_complex(dim, faces, weights)
        with pytest.raises(exc) as got:
            build_complex(dim, faces, weights)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestLabelPositions:
    def test_misses_are_minus_one(self):
        labels = (2, 5, 9, 14)
        query = np.array([[2, 14, 0], [3, 9, 20], [-1, 5, 15]])
        want = [[labels.index(x) if x in labels else -1 for x in row] for row in query]
        assert label_positions(labels, query).tolist() == want

    def test_image_index_of_colors_outside_the_target(self):
        C = build_complex(2, [(1, 3, 5), (3, 5, 7), (1, 5, 7)])
        X = complete_complex(6, 2)
        comb = Combiner(X, C, CombineConfig(0.5))
        labels = [1, 3, 5, 7, 0, 9]  # vertices 4 and 5 get no vertex of C
        col = C.vertex_positions(np.array(labels))
        assert col.tolist() == [0, 1, 2, 3, -1, -1]
        for k in range(3):
            rows = X.level(k).rows
            faces = list(C.faces(k))
            want = []
            for r in rows.tolist():
                img = tuple(sorted(labels[p] for p in r))
                want.append(faces.index(img) if img in faces else -1)
            assert comb.image_index(col, rows).tolist() == want
        assert comb.satisfied_mask(col).tolist() == [
            tuple(sorted(labels[p] for p in f)) in C.top_faces for f in X.top_faces]


def test_pipelines_build_no_complex_from_labels(monkeypatch):
    """Past the `complete` input, every complex the prune and combine
    pipelines make comes from positions, never through build_complex."""
    calls = []
    original = complexes.build_complex

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hdxcover") and getattr(module, "build_complex", None) is original:
            monkeypatch.setattr(module, "build_complex", counted)
    for spec in PIPELINE_SPECS:
        report = run_experiment(spec)
        assert report.exit_code == 0, report.status
    assert calls == []
    complex_from_dict({"dim": 1, "faces": [[0, 1]]})  # the count sees label builds
    assert calls == [1]
