import itertools
import math

import numpy as np
import pytest

from hdxcover import sparsify
from hdxcover.errors import BadParameter, EmptyResult, EmptySide
from hdxcover.graphs import WGraph, complete_graph
from hdxcover.sparsify import (
    bipartite_vertex_split,
    edge_subsample,
    near_uniform_r,
    split_vertex_sets,
    sparsify_trial,
)
from hdxcover.spectral import bipartite_lambda

from helpers import (
    incident,
    mask_edge_subgraph,
    neighbors,
    plain_bipartite_vertex_split,
    plain_edge_subsample,
    plain_near_uniform_r,
    plain_one_trial,
    plain_split_vertex_sets,
    random_wgraph,
    vertex_masses,
)


class TestSplit:
    def test_marginals_within_three_sigma(self):
        n, p, trials = 100, 0.3, 10_000
        rng = np.random.default_rng(0)
        hits_a = hits_b = 0
        for _ in range(trials):
            in_a, in_b = split_vertex_sets(n, p, rng)
            hits_a += in_a[0]
            hits_b += in_b[0]
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits_a - trials * p) <= 3 * sigma
        assert abs(hits_b - trials * p) <= 3 * sigma

    def test_sides_disjoint(self):
        in_a, in_b = split_vertex_sets(50, 0.4, 1)
        assert in_a.shape == in_b.shape == (50,)
        assert not (in_a & in_b).any()

    def test_seeded_reproducible(self):
        G = complete_graph(40)
        s1 = bipartite_vertex_split(G, 0.3, 5)
        s2 = bipartite_vertex_split(G, 0.3, 5)
        assert np.array_equal(s1.in_a, s2.in_a) and np.array_equal(s1.in_b, s2.in_b)
        _same_graph(s1.graph, s2.graph)

    def test_expected_size_small_p(self):
        # p = 0.01 on n = 100 gives one expected pick per side
        rng = np.random.default_rng(2)
        sizes = [split_vertex_sets(100, 0.01, rng)[0].sum() for _ in range(2000)]
        assert np.mean(sizes) == pytest.approx(1.0, abs=0.15)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            split_vertex_sets(10, 0.7, 0)

    def test_empty_side_raises(self):
        # tiny p on a tiny graph virtually always leaves a side empty
        G = complete_graph(4)
        with pytest.raises(EmptySide):
            for seed in range(50):
                bipartite_vertex_split(G, 0.01, seed)

    def test_split_graph_is_bipartite_cross(self):
        G = complete_graph(30)
        s = bipartite_vertex_split(G, 0.3, 3)
        in_a = dict(zip(G.vertices, s.in_a))
        for u, v in s.graph.edges:
            assert in_a[u] != in_a[v]


class TestEdgeSubsample:
    def test_p_one_identity(self):
        G = complete_graph(10)
        out = edge_subsample(G, 1.0, 0)
        assert out.graph.edges == G.edges
        assert np.allclose(out.graph.weights, G.weights)

    def test_binomial_count(self):
        n = 142  # about 10^4 edges
        G = complete_graph(n)
        out = edge_subsample(G, 0.5, 9)
        m = G.m
        sigma = math.sqrt(m * 0.25)
        assert abs(out.kept_edges - m / 2) <= 3 * sigma

    def test_renormalized(self):
        G = complete_graph(12)
        out = edge_subsample(G, 0.4, 4)
        assert out.graph.weights.sum() == pytest.approx(1.0)

    def test_empty_result(self):
        G = WGraph([(0, 1, 1.0)])
        with pytest.raises(EmptyResult):
            for seed in range(50):
                edge_subsample(G, 0.01, seed)

    def test_dropped_vertices_counted(self):
        G = complete_graph(8)
        out = edge_subsample(G, 0.2, 1)
        assert out.dropped_vertices == 8 - out.graph.n


class TestTrialReport:
    def test_near_uniform_r_complete(self):
        assert near_uniform_r(complete_graph(20)) == pytest.approx(1.0)

    def test_complete_graph_pipeline(self):
        G = complete_graph(60)
        rep = sparsify_trial(G, 0.3, 0.5, 10, 0)
        assert rep.trials == 10
        assert rep.discarded == 0
        # splitting a complete graph yields complete bipartite graphs
        assert max(rep.split_lambdas) <= 1e-8
        assert rep.split_ok_fraction == 1.0
        assert 0.0 <= rep.edge_ok_fraction <= 1.0

    @pytest.mark.parametrize(
        "p_split, p_edge, trials",
        [(0, 0.5, 5), (0.5, 0.5, 5), (0.3, 0, 5), (0.3, 1.5, 5), (0.3, 0.5, 0)],
    )
    def test_bad_numbers_rejected_before_any_work(self, p_split, p_edge, trials):
        with pytest.raises(BadParameter):
            sparsify_trial(complete_graph(10), p_split, p_edge, trials, 0)

    def test_p_edge_one_keeps_lambda(self):
        G = complete_graph(40)
        rep = sparsify_trial(G, 0.3, 1.0, 5, 1)
        assert np.allclose(rep.split_lambdas, rep.edge_lambdas, atol=1e-12)

    def test_lambdas_recomputed_not_carried(self):
        G = complete_graph(50)
        s = bipartite_vertex_split(G, 0.3, 2)
        sub = edge_subsample(s.graph, 0.5, 3)
        direct = bipartite_lambda(sub.graph)
        rep = sparsify_trial(G, 0.3, 0.5, 1, None)
        assert rep.edge_lambdas[0] != pytest.approx(rep.split_lambdas[0])
        assert 0 <= direct <= 1

    def test_concentration_fractions(self):
        # the reported rates are empirical; at desk scale the all-vertices
        # event is rare, so only sanity and determinism are asserted
        G = complete_graph(120)
        rep = sparsify_trial(G, 0.3, 0.5, 20, 5, eps=0.1)
        again = sparsify_trial(G, 0.3, 0.5, 20, 5, eps=0.1)
        assert rep.side_mass_ok_fraction == again.side_mass_ok_fraction
        assert 0.0 < rep.side_mass_ok_fraction <= 1.0
        assert 0.0 <= rep.vertex_mass_ok_fraction <= 1.0


def _string_labeled(G):
    """G with vertex i renamed "v<i>", so label order is not position order."""
    return WGraph([(f"v{u}", f"v{v}", w) for (u, v), w in zip(G.edges, G.weights)])


DIFF_GRAPHS = {
    "k40": lambda: complete_graph(40),
    "random": lambda: random_wgraph(np.random.default_rng(11), 24, p=0.4),
    "strings": lambda: _string_labeled(random_wgraph(np.random.default_rng(5), 20)),
}


def _same_graph(g, h):
    assert g.vertices == h.vertices
    assert g.edges == h.edges
    assert np.array_equal(g.ends, h.ends)
    assert np.array_equal(g.weights, h.weights)
    assert g.sides == h.sides


def _labels(G, sample):
    """The sides of a SplitSample as label sets, as the reference keeps them."""
    return tuple(frozenset(itertools.compress(G.vertices, m))
                 for m in (sample.in_a, sample.in_b))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the EmptySide/EmptyResult raised."""
    try:
        return fn(*args)
    except (EmptySide, EmptyResult) as exc:
        return type(exc), str(exc)


class TestArrayPathMatchesPlain:
    """The mask-and-bincount split, subsample and trial give the results of
    the edge-by-edge references bit for bit."""

    @pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
    def test_split_and_subsample(self, name):
        G = DIFF_GRAPHS[name]()
        for seed in range(6):
            s = bipartite_vertex_split(G, 0.3, seed)
            ref = plain_bipartite_vertex_split(G, 0.3, seed)
            assert _labels(G, s) == (ref.a, ref.b)
            _same_graph(s.graph, ref.graph)
            sub = edge_subsample(s.graph, 0.5, seed + 100)
            plain = plain_edge_subsample(ref.graph, 0.5, seed + 100)
            _same_graph(sub.graph, plain.graph)
            assert (sub.kept_edges, sub.dropped_vertices) == (
                plain.kept_edges, plain.dropped_vertices)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.45, 0.4999])
    def test_split_masks_match_label_sets(self, p):
        # the one array of 2n draws, walked, gives the sides of the scalar
        # draw loop
        for n, seed in itertools.product((1, 2, 37, 300), range(50)):
            in_a, in_b = split_vertex_sets(n, p, seed)
            a, b = plain_split_vertex_sets(range(n), p, seed)
            assert set(np.flatnonzero(in_a).tolist()) == a
            assert set(np.flatnonzero(in_b).tolist()) == b

    @pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
    def test_edge_subgraph_index_matches_mask(self, name):
        # a graph without sides, given sides (part of a split's crossing
        # edges) and sides inherited from the split graph
        G = DIFF_GRAPHS[name]()
        rng = np.random.default_rng(7)
        for seed in range(6):
            s = bipartite_vertex_split(G, 0.3, seed)
            crossing = np.zeros(G.m, dtype=bool)
            crossing[s.cross] = True
            for H, sides, keep in (
                (G, None, rng.random(G.m) < 0.4),
                (G, (s.in_a, s.in_b), crossing & (rng.random(G.m) < 0.6)),
                (s.graph, None, rng.random(s.graph.m) < 0.6),
            ):
                _same_graph(H.edge_subgraph(np.flatnonzero(keep), sides),
                            mask_edge_subgraph(H, keep, sides))

    @pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
    def test_trial_report(self, name, monkeypatch):
        G = DIFF_GRAPHS[name]()
        args = (G, 0.3, 0.5, 8, 3)
        fast = sparsify_trial(*args, eps=0.4).to_dict()
        assert fast["min_degree"] == min(len(neighbors(G, v)) for v in G.vertices)
        assert near_uniform_r(G) == plain_near_uniform_r(G)
        monkeypatch.setattr(sparsify, "_one_trial",
                            lambda G, vm, *rest: plain_one_trial(G, *rest))
        monkeypatch.setattr(sparsify, "near_uniform_r", plain_near_uniform_r)
        assert fast == sparsify_trial(*args, eps=0.4).to_dict()

    def test_side_masses_summed_in_vertex_order(self):
        # Int labels whose set order is often not vertex order, and uneven
        # vertex measures.  With eps put at each draw's boundary, a side
        # mass summed in set order lands one ulp across it on some draws.
        G = random_wgraph(np.random.default_rng(0), 40, p=0.6)
        nu, vm = vertex_masses(G), G.vertex_measures()
        p, set_order_differs, checked_draws = 0.3, False, 0
        for seed in range(120):
            try:
                s = bipartite_vertex_split(G, p, seed)
            except EmptySide:
                continue
            sides = _labels(G, s)
            ordered = [sum(nu[v] for v in sorted(x)) for x in sides]
            in_set = [sum(nu[v] for v in x) for x in sides]
            if ordered == in_set:
                continue
            eps = max(abs(m - p) for m in ordered) / p
            want = all(abs(m - p) <= eps * p for m in ordered)
            set_order_differs |= want != all(abs(m - p) <= eps * p for m in in_set)
            assert sparsify._one_trial(G, vm, p, 0.5, eps, (seed, seed))[2] == want
            assert plain_one_trial(G, p, 0.5, eps, (seed, seed))[2] == want
            checked_draws += 1
        assert checked_draws and set_order_differs

    def test_vertex_masses_summed_in_edge_order(self):
        # Uneven weights, with eps put within two ulps of the largest
        # relative deviation of an A vertex's mass into B, where the strict
        # check turns; a sum in reverse edge order lands across it on some
        # draws.
        G = random_wgraph(np.random.default_rng(0), 40, p=0.6)
        nu, vm = vertex_masses(G), G.vertex_measures()
        p, outcomes, order_differs = 0.3, set(), False
        for seed in range(40):
            try:
                ref = plain_bipartite_vertex_split(G, p, seed)
            except EmptySide:
                continue
            sums = []  # (into B in edge order, in reverse, 2 nu(v)) per A vertex
            for v in ref.a:
                into = [G.weights[i] for nbr, i in incident(G, v) if nbr in ref.b]
                sums.append((sum(into), sum(reversed(into)), 2.0 * nu[v]))
            dev = max(abs(x - p * t) / (p * t) for x, _, t in sums)
            for k in range(-2, 3):
                eps = dev * (1 + k * np.finfo(float).eps)
                want = plain_one_trial(G, p, 0.5, eps, (seed, seed))[3]
                assert sparsify._one_trial(G, vm, p, 0.5, eps, (seed, seed))[3] == want
                outcomes.add(want)
                reversed_ok = all(abs(r - p * t) < eps * p * t for _, r, t in sums)
                order_differs |= reversed_ok != want
        assert outcomes == {True, False} and order_differs

    def test_degenerate_draws_raise_alike(self):
        # K4 at p = 0.01 mostly leaves a side empty; two disjoint edges often
        # give sides with no crossing edge; p_edge = 0.05 on 3 edges mostly
        # keeps none
        graphs = [complete_graph(4), WGraph([(0, 1, 1.0), (2, 3, 2.0)])]
        kinds = set()
        for G, p in ((graphs[0], 0.01), (graphs[1], 0.45)):
            for seed in range(40):
                fast = _outcome(bipartite_vertex_split, G, p, seed)
                ref = _outcome(plain_bipartite_vertex_split, G, p, seed)
                if isinstance(ref, tuple):
                    assert fast == ref
                    kinds.add(ref[1])
                else:
                    assert _labels(G, fast) == (ref.a, ref.b)
        tri = complete_graph(3)
        for seed in range(40):
            fast = _outcome(edge_subsample, tri, 0.05, seed)
            ref = _outcome(plain_edge_subsample, tri, 0.05, seed)
            if isinstance(ref, tuple):
                assert fast == ref
                kinds.add(ref[1])
            else:
                _same_graph(fast.graph, ref.graph)
        assert kinds == {
            "a side came out empty",
            "no edge crosses the sampled sides",
            "no edge survived the subsample",
        }
