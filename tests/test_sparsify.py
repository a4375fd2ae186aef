import math
import operator

import numpy as np
import pytest

from hdxcover import sparsify
from hdxcover.errors import EmptyResult, EmptySide, InputError
from hdxcover.graphs import WGraph, complete_graph
from hdxcover.sparsify import (
    bipartite_vertex_split,
    edge_subsample,
    near_uniform_r,
    split_vertex_sets,
    sparsify_trial,
)
from hdxcover.spectral import bipartite_lambda, composition_check

from helpers import (
    checked,
    neighbors,
    plain_bipartite_vertex_split,
    plain_composition_check,
    plain_edge_subsample,
    plain_near_uniform_r,
    plain_one_trial,
    random_wgraph,
)


class TestSplit:
    def test_marginals_within_three_sigma(self):
        n, p, trials = 100, 0.3, 10_000
        rng = np.random.default_rng(0)
        hits_a = hits_b = 0
        for _ in range(trials):
            a, b = split_vertex_sets(range(n), p, rng)
            hits_a += 0 in a
            hits_b += 0 in b
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits_a - trials * p) <= 3 * sigma
        assert abs(hits_b - trials * p) <= 3 * sigma

    def test_sides_disjoint(self):
        a, b = split_vertex_sets(range(50), 0.4, 1)
        assert not a & b

    def test_seeded_reproducible(self):
        G = complete_graph(40)
        s1 = bipartite_vertex_split(G, 0.3, 5)
        s2 = bipartite_vertex_split(G, 0.3, 5)
        assert s1.a == s2.a and s1.b == s2.b

    def test_expected_size_small_p(self):
        # p = 0.01 on n = 100 gives one expected pick per side
        rng = np.random.default_rng(2)
        sizes = [len(split_vertex_sets(range(100), 0.01, rng)[0]) for _ in range(2000)]
        assert np.mean(sizes) == pytest.approx(1.0, abs=0.15)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            split_vertex_sets(range(10), 0.7, 0)

    def test_empty_side_raises(self):
        # tiny p on a tiny graph virtually always leaves a side empty
        G = complete_graph(4)
        with pytest.raises(EmptySide):
            for seed in range(50):
                bipartite_vertex_split(G, 0.01, seed)

    def test_split_graph_is_bipartite_cross(self):
        G = complete_graph(30)
        s = bipartite_vertex_split(G, 0.3, 3)
        for u, v in s.graph.edges:
            assert (u in s.a) != (v in s.a)


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
        with pytest.raises(InputError):
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

    def test_split_fibers_compose(self):
        # composition_check certifies lambda(colored) <= max(lambda(H), eta)
        # only where every vertex has equal side marginals in all its fibers.
        # Independently subsampled blocks break that hypothesis and, here,
        # the bound itself; the check must say so.  Complete blocks keep it.
        groups = [list(range(10 * a, 10 * (a + 1))) for a in range(3)]
        target = WGraph([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])

        def check(p_edge):
            rng = np.random.default_rng(7)
            edges = []
            for a, b in ((0, 1), (0, 2), (1, 2)):
                block = WGraph(
                    [(u, v, 1.0) for u in groups[a] for v in groups[b]],
                    sides=(groups[a], groups[b]),
                )
                sub = edge_subsample(block, p_edge, int(rng.integers(2**32)))
                for (u, v), w in zip(sub.graph.edges, sub.graph.weights):
                    edges.append((u, v, w))
            G = WGraph(edges)
            f = {v: v // 10 for v in G.vertices}
            rep = checked(composition_check, plain_composition_check, operator.eq,
                          G, target, f)
            return rep, f

        rep, f = check(0.6)
        assert not rep.hypothesis_ok
        assert rep.marginal_gap == pytest.approx(0.0682, abs=1e-4)
        v, hi, lo = rep.gap_witness
        assert hi != lo
        assert f[v] in hi and f[v] in lo
        assert not rep.ok
        assert rep.lambda_colored > rep.bound

        rep, _ = check(1.0)
        assert rep.hypothesis_ok
        assert rep.ok
        assert rep.eta == pytest.approx(0.0, abs=1e-9)
        assert rep.lambda_colored == pytest.approx(0.5, abs=1e-9)

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
            assert (s.a, s.b) == (ref.a, ref.b)
            _same_graph(s.graph, ref.graph)
            assert s.cross_mass == ref.cross_mass
            sub = edge_subsample(s.graph, 0.5, seed + 100)
            plain = plain_edge_subsample(ref.graph, 0.5, seed + 100)
            _same_graph(sub.graph, plain.graph)
            assert (sub.kept_edges, sub.dropped_vertices) == (
                plain.kept_edges, plain.dropped_vertices)

    @pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
    def test_trial_report(self, name, monkeypatch):
        G = DIFF_GRAPHS[name]()
        args = (G, 0.3, 0.5, 8, 3)
        fast = sparsify_trial(*args, eps=0.4).to_dict()
        assert fast["min_degree"] == min(len(neighbors(G, v)) for v in G.vertices)
        assert near_uniform_r(G) == plain_near_uniform_r(G)
        monkeypatch.setattr(sparsify, "_one_trial", plain_one_trial)
        monkeypatch.setattr(sparsify, "near_uniform_r", plain_near_uniform_r)
        assert fast == sparsify_trial(*args, eps=0.4).to_dict()

    def test_side_masses_summed_in_vertex_order(self):
        # Int labels whose set order is often not vertex order, and uneven
        # vertex measures.  With eps put at each draw's boundary, a side
        # mass summed in set order lands one ulp across it on some draws.
        G = random_wgraph(np.random.default_rng(0), 40, p=0.6)
        p, set_order_differs, checked_draws = 0.3, False, 0
        for seed in range(120):
            try:
                s = bipartite_vertex_split(G, p, seed)
            except EmptySide:
                continue
            ordered = [sum(G.vertex_measure(v) for v in sorted(x)) for x in (s.a, s.b)]
            in_set = [sum(G.vertex_measure(v) for v in x) for x in (s.a, s.b)]
            if ordered == in_set:
                continue
            eps = max(abs(m - p) for m in ordered) / p
            want = all(abs(m - p) <= eps * p for m in ordered)
            set_order_differs |= want != all(abs(m - p) <= eps * p for m in in_set)
            assert sparsify._one_trial(G, p, 0.5, eps, (seed, seed))[2] == want
            assert plain_one_trial(G, p, 0.5, eps, (seed, seed))[2] == want
            checked_draws += 1
        assert checked_draws and set_order_differs

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
                    assert (fast.a, fast.b) == (ref.a, ref.b)
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
