import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdxcover import complexes
from hdxcover.complexes import (
    build_complex,
    check_suitable,
    complete_complex,
)
from hdxcover.covers import CoverComplex, build_cover
from hdxcover.errors import (
    BadLevel,
    BadParameter,
    EmptyGraph,
    HdxError,
    MisScaled,
    NonPositiveAlpha,
    NotBipartite,
    TooLargeForExact,
)
from hdxcover import harness, spectral
from hdxcover.graphs import WGraph, complete_graph
from hdxcover.groups import (
    cyclic,
    dihedral,
    identity_star_lambda,
    scan_gensets,
    symmetric_group,
    validate_genset,
)
from hdxcover.harness import cover_link_gap, stage_seed
from hdxcover.pruning import PruneConfig, Pruner
from hdxcover.spectral import (
    adjacency_spectrum,
    bipartite_lambda,
    converse_eml_bound,
    eml_discrepancy,
    is_hdx,
)

from helpers import (
    coboundary_labeling,
    cycle_complex,
    one_sided,
    per_face_link_skeleton,
    plain_check_suitable,
    plain_cover_link_gap,
    plain_eml_exact,
    plain_eml_sampled,
    plain_is_hdx,
    plain_weyl_bound,
    power_iteration_spectrum,
    random_bipartite_wgraph,
    random_complex,
    random_wgraph,
    sym_walk_matrix,
    two_step_second_eigenvalue,
    vertex_masses,
)


def complete_bipartite(a, b):
    return WGraph(
        [(i, a + j, 1.0) for i in range(a) for j in range(b)],
        sides=(range(a), range(a, a + b)),
    )


class TestAdjacencySpectrum:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_complete_graph(self, n):
        rep = adjacency_spectrum(complete_graph(n))
        assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        for lam in rep.eigenvalues[1:]:
            assert lam == pytest.approx(-1 / (n - 1), abs=1e-10)

    def test_disconnected_has_second_one(self):
        G = WGraph([(0, 1, 1.0), (2, 3, 1.0)])
        rep = adjacency_spectrum(G)
        assert one_sided(rep) == pytest.approx(1.0, abs=1e-10)

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            WGraph([])

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(42)
        G = random_wgraph(rng, 8, p=0.6)
        got = np.array(adjacency_spectrum(G).eigenvalues)
        oracle = power_iteration_spectrum(sym_walk_matrix(G), rng)
        assert np.allclose(np.sort(got)[::-1], oracle, atol=1e-7)

    def test_constant_function_fixed(self):
        G = random_wgraph(np.random.default_rng(2), 9, p=0.5)
        # A applied to the all-ones vector returns all ones
        for v in G.vertices:
            total = sum(
                w for (a, b), w in zip(G.edges, G.weights) if v in (a, b)
            )
            row = sum(
                w / total for (a, b), w in zip(G.edges, G.weights) if v in (a, b)
            )
            assert row == pytest.approx(1.0, abs=1e-9)

    def test_mis_scaled_operator_raises(self, monkeypatch):
        # 2M has top eigenvalue 2, which clipping would pass off as 1
        fill = spectral._symmetrized_matrix
        monkeypatch.setattr(spectral, "_symmetrized_matrix", lambda *a: 2 * fill(*a))
        with pytest.raises(MisScaled, match="top eigenvalue (2|1.99)"):
            adjacency_spectrum(complete_graph(5))
        # the stacked eigensolve of the star scores checks the same way
        with pytest.raises(MisScaled, match="top eigenvalue (2|1.99)"):
            identity_star_lambda(cyclic(7), (1, 2, 5, 6), 2)
        with pytest.raises(MisScaled, match="top eigenvalue (2|1.99)"):
            scan_gensets(symmetric_group(4), 2, max_size=6)
        # and so do the stacked solves of the certifiers' level path
        X = complete_complex(6, 2)
        with pytest.raises(MisScaled, match="top eigenvalue (2|1.99)"):
            is_hdx(X, 0.9)
        # cover_link_gap solves the links that are no copies, here of a
        # cover folding vertex 3 onto 1, and then their images'
        base = build_complex(2, [(0, 1, 2), (0, 2, 3)])
        folded = CoverComplex(base, base, cyclic(1), np.zeros(5, dtype=np.int64),
                              {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (1, 0)})
        with pytest.raises(MisScaled, match="top eigenvalue (2|1.99)"):
            cover_link_gap(folded)

    def test_mis_scaled_twisted_operator_raises(self):
        G = complete_graph(5)
        twist = np.exp(2j * np.pi / 7 * np.arange(3)[:, None] * np.arange(G.m))  # row 0 ones
        eigs = spectral.twisted_spectra(G, twist)
        np.testing.assert_allclose(eigs[0], adjacency_spectrum(G).eigenvalues, atol=1e-12)
        assert (eigs[1:, 0] < 1.0 - 1e-3).all()  # a twisted operator's top need not be 1
        # twice the untwisted operator has top eigenvalue 2
        with pytest.raises(MisScaled, match="top eigenvalue (2|1.99)"):
            spectral.twisted_spectra(G, 2 * twist)
        # a twisted operator alone scaled up leaves [-1, 1]
        with pytest.raises(MisScaled, match="eigenvalue outside"):
            spectral.twisted_spectra(G, twist * np.array([[1], [1], [4]]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_solve_is_each_graphs_own(self, seed):
        """link_spectra on graphs sharing their ends, with other weights,
        against each graph's own 2-D operator and solve, bit for bit."""
        rng = np.random.default_rng(seed)
        G = random_wgraph(rng, 12 + seed, p=0.5)
        raw = [G.weights, 0.1 + rng.random(G.m), G.weights]
        graphs = [WGraph.from_arrays(G.vertices, G.ends, w) for w in raw]
        vlink = np.repeat(np.arange(3), G.n)
        ends = np.concatenate([G.ends + k * G.n for k in range(3)], axis=1)
        stacked = spectral.link_spectra(vlink, ends, np.concatenate(raw))[2]
        for g, row in zip(graphs, stacked):
            root = np.sqrt(g.vertex_measures())
            own = spectral._checked_spectra(
                spectral._symmetrized_matrix((g.n, g.n), g.ends, g.weights, root, g.ends))
            assert row.tolist() == own.tolist()
            assert adjacency_spectrum(g).eigenvalues == tuple(own.tolist())

    def test_mis_scaled_stack_is_a_library_error(self):
        for M in (2 * np.eye(3), np.stack([np.eye(2), np.diag([2.0, 0.5])])):
            with pytest.raises(MisScaled, match="top eigenvalue 2") as err:
                spectral._checked_spectra(M)
            assert isinstance(err.value, HdxError)

    def test_eigenvalue_outside_unit_interval_raises(self):
        for M in (np.diag([1.0, -1.5]), np.stack([np.eye(2), np.diag([1.0, -1.5])])):
            with pytest.raises(MisScaled, match=r"outside \[-1, 1\]"):
                spectral._checked_spectra(M)

    def test_self_adjoint(self):
        rng = np.random.default_rng(5)
        G = random_wgraph(rng, 8, p=0.6)
        vm = G.vertex_measures()
        n = G.n
        A = np.zeros((n, n))
        pos = {v: i for i, v in enumerate(G.vertices)}
        for (u, v), w in zip(G.edges, G.weights):
            iu, iv = pos[u], pos[v]
            A[iu, iv] = 0.5 * w / vm[iu]
            A[iv, iu] = 0.5 * w / vm[iv]
        for _ in range(50):
            f = rng.normal(size=n)
            g = rng.normal(size=n)
            lhs = np.sum(vm * (A @ f) * g)
            rhs = np.sum(vm * f * (A @ g))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestLambdaReport:
    """The expansion constants: two- and one-sided from adjacency_spectrum,
    bipartite from bipartite_lambda."""

    @pytest.mark.parametrize("a,b", [(2, 3), (4, 4), (1, 5)])
    def test_complete_bipartite(self, a, b):
        assert bipartite_lambda(complete_bipartite(a, b)) <= 1e-8

    def test_cycle_two_sided_is_one(self):
        G = cycle_complex(6).one_skeleton()
        assert adjacency_spectrum(G).two_sided == pytest.approx(1.0, abs=1e-9)

    def test_bipartite_requires_sides(self):
        with pytest.raises(NotBipartite):
            bipartite_lambda(complete_graph(4))

    def test_bipartite_squares_to_two_step_walk(self):
        G = random_bipartite_wgraph(np.random.default_rng(9), 5, 5, p=0.7)
        lam = bipartite_lambda(G)
        assert lam**2 == pytest.approx(two_step_second_eigenvalue(G), abs=1e-7)

    def test_bipartite_equals_one_sided(self):
        G = random_bipartite_wgraph(np.random.default_rng(10), 4, 6, p=0.7)
        assert bipartite_lambda(G) == pytest.approx(
            one_sided(adjacency_spectrum(G)), abs=1e-9
        )


class TestIsHdx:
    def test_complete_passes(self):
        rep = is_hdx(complete_complex(6, 2), 0.5)
        assert rep.passes
        # worst links are the K_5 vertex links at lambda 1/4
        assert rep.worst_value == pytest.approx(1 / 4, abs=1e-9)

    def test_disconnected_link_fails(self):
        X = build_complex(2, [(1, 2, 3), (1, 4, 5)])
        rep = is_hdx(X, 0.9)
        assert not rep.passes
        assert rep.worst_value == pytest.approx(1.0, abs=1e-9)
        assert rep.worst_face == (1,)

    @pytest.mark.parametrize("lam", [-1.0, -1e-12, float("nan")])
    def test_negative_or_nan_lambda_is_bad_parameter(self, lam):
        with pytest.raises(BadParameter, match="lambda must be a number >= 0"):
            is_hdx(complete_complex(6, 2), lam)

    def test_infinite_lambda_is_bad_parameter(self):
        with pytest.raises(BadParameter, match="lambda must be finite, got inf"):
            is_hdx(complete_complex(6, 2), math.inf)

    @pytest.mark.parametrize("mode", ["one-sided", "two-sided", "", None])
    def test_unknown_mode_is_bad_parameter(self, mode):
        with pytest.raises(BadParameter, match="mode must be 'two_sided' or 'one_sided'"):
            is_hdx(complete_complex(6, 2), 0.5, mode=mode)

    def test_zero_lambda_is_a_threshold(self):
        assert not is_hdx(complete_complex(6, 2), 0.0).passes

    def test_rows_match_recomputation(self):
        X = complete_complex(6, 2)
        rep = is_hdx(X, 0.5)
        for row in rep.rows:
            again = adjacency_spectrum(X.link(row.face).one_skeleton())
            assert row.value == pytest.approx(again.two_sided, abs=1e-12)


def assert_level_path_matches(X, suitability=((1.1, 1.5, 0.5),)):
    """is_hdx and check_suitable equal their per-face references bit for
    bit: rows, worst face and value, witnesses and bounds."""
    for mode in ("two_sided", "one_sided"):
        for empty in (True, False) if X.dim >= 2 else (True,):
            new = is_hdx(X, 0.5, mode=mode, include_empty_face=empty)
            ref = plain_is_hdx(X, 0.5, mode=mode, include_empty_face=empty)
            assert new == ref and repr(new) == repr(ref)
    for c, r, eta in suitability:
        new, ref = check_suitable(X, c, r, eta), plain_check_suitable(X, c, r, eta)
        assert new == ref and repr(new) == repr(ref)


# (c, r, eta) that pass, fail on degree, fail on weights, or fail everything
SUITABILITY = ((1.1, 1.5, 0.5), (1.01, 10.0, 0.99), (3.0, 1.01, 0.2), (1.5, 3.0, 0.3))


def assert_gap_bounded(cover):
    """cover_link_gap's Weyl bound dominates the exact gap of every link
    and certifies the cover, with no vertex count mismatch."""
    worst_gap, mismatch = cover_link_gap(cover)
    assert plain_cover_link_gap(cover) <= worst_gap + 1e-12
    assert worst_gap <= 1e-9 and mismatch is None


def _link_sizes(X, k):
    return [per_face_link_skeleton(X, s).n for s in X.faces(k)]


def _random_covers(rng, n, dim, groups=(cyclic(3), dihedral(3))):
    """A random complex on n vertices and one coboundary cover of it per group."""
    X = random_complex(rng, n, dim, keep=0.7)
    return [build_cover(X, coboundary_labeling(X, g, rng.integers(g.order, size=n)), g)
            for g in groups]


class TestLevelPath:
    """is_hdx, check_suitable and cover_link_gap on link_blocks and
    link_spectra against the per-face references they replace."""

    @pytest.mark.parametrize("n, dim", [(4, 2), (6, 2), (12, 2), (30, 2), (7, 3)])
    def test_complete(self, n, dim):
        assert_level_path_matches(complete_complex(n, dim), SUITABILITY)

    @pytest.mark.parametrize("name", ["cover-family-z6", "prune-k30"])
    def test_benchmark_ys_and_covers(self, benchmark_covers, name):
        y, covers = benchmark_covers[name]
        assert_level_path_matches(y, SUITABILITY)
        for cover in covers:
            assert_level_path_matches(cover.complex)
            assert_gap_bounded(cover)

    @pytest.mark.parametrize("seed", range(3))
    def test_dim3_uneven_weights(self, seed):
        # is_hdx certifies levels -1, 0 and 1, check_suitable reads 0 and 1
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 8, 3, keep=0.6)
        assert len(set(X.weights.tolist())) > 1
        rep = check_suitable(X, 3.0, 1.01, 0.2)
        assert rep.degree_witness is not None and rep.weight_witness[1] == "edge"
        assert_level_path_matches(X, SUITABILITY)

    def test_vertex_weight_witness(self):
        # vertex 0's link is a star on equal edges: every edge lies in
        # [2/9, 1/2], but the centre's measure 1/2 is outside [1/6, 3/8]
        X = build_complex(2, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert check_suitable(X, 1.01, 1.5, 0.99).weight_witness[:4] == (
            (0,), "vertex", 1, 0.5)
        assert_level_path_matches(X, ((1.01, 1.5, 0.99),))

    def test_one_edge_links(self):
        for X in (build_complex(2, [(1, 2, 3), (1, 2, 4)], [1.0, 3.0]),
                  build_complex(3, [(0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 5)],
                                [0.5, 1.0, 2.0])):
            assert 2 in _link_sizes(X, X.dim - 2)
            assert_level_path_matches(X, SUITABILITY)

    @pytest.mark.parametrize("n, dim, k, keep",
                             [(45, 2, 0, 0.04), (11, 3, 1, 0.3), (36, 3, 0, 0.004)])
    def test_levels_past_one_block(self, n, dim, k, keep):
        # mixed link vertex counts within and across the block boundaries
        X = random_complex(np.random.default_rng(n + k), n, dim, keep=keep)
        block = complexes._LINK_BLOCK
        sizes = _link_sizes(X, k)
        assert len(sizes) > block
        assert len(set(sizes[:block])) > 1 and len(set(sizes[block:2 * block])) > 1
        assert_level_path_matches(X, SUITABILITY)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_covers(self, seed):
        for cover in _random_covers(np.random.default_rng(seed), 7, 2 + seed % 2):
            assert_gap_bounded(cover)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(4, 8), st.data())
    def test_drawn_weighted_complexes(self, dim, n, data):
        tops = list(itertools.combinations(range(n), dim + 1))
        keep = data.draw(st.lists(st.booleans(), min_size=len(tops), max_size=len(tops)))
        assume(any(keep))
        faces = [f for f, k in zip(tops, keep) if k]
        weights = data.draw(st.lists(st.floats(0.05, 20.0), min_size=len(faces),
                                     max_size=len(faces)))
        X = build_complex(dim, faces, weights)
        c, r = data.draw(st.sampled_from([(1.01, 10.0), (1.1, 1.5), (2.0, 1.05)]))
        assert_level_path_matches(X, ((c, r, 0.5),))

    def test_errors(self):
        # no face to certify: a 1-complex without its empty face, a 0-complex
        with pytest.raises(BadLevel):
            is_hdx(cycle_complex(5), 0.5, include_empty_face=False)
        with pytest.raises(BadLevel):
            is_hdx(build_complex(0, [(0,), (1,)]), 0.5)
        X = complete_complex(5, 2)
        for k in (1, 2):
            with pytest.raises(BadLevel):
                list(X.link_blocks(k))

    def test_memory_of_the_z5_cover(self, benchmark_ys):
        # face blocks bound the temporaries: one block for the whole level
        # of 150 vertex links reads about 2.7 MB more at its peak
        y, labels, group = benchmark_ys["prune-k30"]
        cover = build_cover(y, labels, group).complex
        assert len(cover.vertices) == 150
        tracemalloc.start()
        try:
            is_hdx(cover, 0.9, include_empty_face=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_memory_of_cover_link_gap(self):
        # each block's per-edge arrays go before link_blocks builds the
        # next: about 1.8 MB at the peak, where keeping them read 2.3 MB
        group = cyclic(6)
        pruner = Pruner(complete_complex(60, 2), group, validate_genset(group, [1, 2, 3, 4, 5]),
                        PruneConfig.empirical(0.9, r=2.0))
        out = pruner.run(stage_seed(1, "prune"))
        cover = build_cover(out.y, pruner.elements_on(out.y, out.labeling), group)
        want = cover_link_gap(cover)  # first-call caches are not the audit's
        tracemalloc.start()
        try:
            assert cover_link_gap(cover) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert want[0] <= 1e-9 and want[1] is None
        assert peak < 2.0e6


# sampled alpha on a plain and a bipartite graph with string labels
def _perturbed(cover, rng, scale):
    """The cover with each lifted top weight moved by a relative amount of
    at most scale: every link stays a copy of its image's, reweighted."""
    tilde = cover.complex
    weights = tilde.weights * (1.0 + scale * rng.uniform(-1.0, 1.0, len(tilde.weights)))
    return CoverComplex(tilde.restrict(np.arange(len(weights)), weights), cover.base,
                        cover.group, cover.labeling, cover.legend)


class TestWeylBound:
    """cover_link_gap's bound ||M~ - P M P^T||_F on covers whose links are
    reweighted copies, against the exact gap of plain_cover_link_gap."""

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_weights_fail_the_audit(self, monkeypatch, seed):
        solved = []
        monkeypatch.setattr(harness, "link_spectra",
                            lambda *a: solved.append(a) or spectral.link_spectra(*a))
        rng = np.random.default_rng(seed)
        for cover in _random_covers(rng, 7, 2 + seed % 2):
            cover = _perturbed(cover, rng, 1e-6)
            solved.clear()
            worst_gap, mismatch = cover_link_gap(cover)
            assert solved == []  # every link is a copy: none is solved, nor the base's
            assert worst_gap == pytest.approx(plain_weyl_bound(cover), rel=1e-6)
            assert plain_cover_link_gap(cover) <= worst_gap + 1e-12
            assert mismatch is None and worst_gap > 1e-9  # the audit's bound

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 7), st.integers(2, 3),
           st.sampled_from([cyclic(2), cyclic(3), dihedral(3)]), st.floats(0.0, 0.5))
    def test_drawn_perturbations(self, seed, n, dim, group, scale):
        rng = np.random.default_rng(seed)
        cover = _perturbed(_random_covers(rng, n, dim, (group,))[0], rng, scale)
        worst_gap, mismatch = cover_link_gap(cover)
        assert mismatch is None
        assert worst_gap == pytest.approx(plain_weyl_bound(cover), rel=1e-6, abs=1e-12)
        assert plain_cover_link_gap(cover) <= worst_gap + 1e-12


HASHED_LABELS_EML = """
import numpy as np
from hdxcover.graphs import WGraph
from hdxcover.spectral import eml_discrepancy
rng = np.random.default_rng(0)
labels = [f"v{i:02d}" for i in range(30)]
edges = [(a, b, rng.uniform(0.1, 3.0)) for i, a in enumerate(labels)
         for b in labels[i + 1:] if rng.random() < 0.4]
sides = (set(labels[:12]), set(labels[12:]))
bip = [(a, b, rng.uniform(0.1, 3.0)) for a in labels[:12] for b in labels[12:]
       if rng.random() < 0.5]
for G in (WGraph(edges), WGraph(bip, sides=sides)):
    print(repr(eml_discrepancy(G, "sampled", samples=200, rng=0).alpha))
"""


class TestEml:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_needs_a_sample(self, samples):
        with pytest.raises(BadParameter, match=f"samples >= 1, got {samples}"):
            eml_discrepancy(complete_graph(6), "sampled", samples=samples, rng=0)

    def test_complete_exact_vs_lambda(self):
        G = complete_graph(8)
        rep = eml_discrepancy(G, "exact")
        lam = adjacency_spectrum(G).two_sided
        assert rep.eml_ratio <= lam + 1e-9

    def test_complete_bipartite_alpha_zero(self):
        rep = eml_discrepancy(complete_bipartite(4, 5), "exact")
        assert rep.alpha == pytest.approx(0.0, abs=1e-12)

    def test_eml_holds_exhaustively(self):
        rng = np.random.default_rng(3)
        G = random_wgraph(rng, 9, p=0.6)
        lam = adjacency_spectrum(G).two_sided
        rep = eml_discrepancy(G, "exact")
        assert rep.eml_ratio <= lam + 1e-9

    def test_too_large(self):
        with pytest.raises(TooLargeForExact):
            eml_discrepancy(complete_graph(16), "exact", exact_limit=14)

    def test_sampled_lower_bounds_exact(self):
        rng = np.random.default_rng(8)
        G = random_wgraph(rng, 8, p=0.7)
        exact = eml_discrepancy(G, "exact")
        sampled = eml_discrepancy(G, "sampled", samples=400, rng=1)
        assert not sampled.exact
        assert sampled.alpha <= exact.alpha + 1e-12

    def test_sampled_alpha_ignores_hash_seed(self):
        # string labels hash by PYTHONHASHSEED, so a sum over a set of them
        # would move the last digits of alpha between interpreters
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        runs = {
            subprocess.run(
                [sys.executable, "-c", HASHED_LABELS_EML], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "5")
        }
        assert len(runs) == 1

    def test_sampled_zero_denominator_scores_zero(self):
        # T is always the whole right side, so every pair's mixing
        # denominator has the factor 1 - nu(T) = 0
        G = WGraph([(0, 1, 1.0), (1, 2, 1.0)], sides=({0, 2}, {1}))
        exact = eml_discrepancy(G, "exact")
        sampled = eml_discrepancy(G, "sampled", samples=30, rng=0)
        assert sampled.eml_ratio == exact.eml_ratio == 0.0
        assert all(sampled.eml_witness)

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_alpha_without_a_pair_is_zero(self, seed):
        # one draw on one edge leaves S or T empty on some seeds
        G = WGraph([(0, 1, 1.0)], sides=({0}, {1}))
        rep = eml_discrepancy(G, "sampled", samples=1, rng=seed)
        assert rep.alpha >= 0 and rep.eml_ratio >= 0
        if not all(rep.witness):
            assert (rep.alpha, rep.witness, rep.eml_ratio) == (0.0, ((), ()), 0.0)

    def test_witness_reproduces_alpha(self):
        G = random_wgraph(np.random.default_rng(4), 8, p=0.6)
        rep = eml_discrepancy(G, "exact")
        s, t = rep.witness
        nu = vertex_masses(G)
        nu_s = sum(nu[v] for v in s)
        nu_t = sum(nu[v] for v in t)
        cut = 0.5 * sum(
            w
            for (u, v), w in zip(G.edges, G.weights)
            if (u in s and v in t) or (u in t and v in s)
        )
        assert abs(cut - nu_s * nu_t) / math.sqrt(nu_s * nu_t) == pytest.approx(
            rep.alpha, abs=1e-12
        )


def _relabeled(G, rng, strings):
    """G with its vertices renamed by a seeded shuffle, to strings or ints,
    so that neither side is a prefix of the vertex order."""
    names = rng.permutation(3 * G.n)[:G.n].tolist()
    name = {v: f"v{x}" if strings else x for v, x in zip(G.vertices, names)}
    sides = G.sides and tuple({name[v] for v in side} for side in G.sides)
    return WGraph([(name[u], name[v], w) for (u, v), w in zip(G.edges, G.weights)],
                  sides=sides)


def _mixing_graphs(seed):
    rng = np.random.default_rng(seed)
    general = random_wgraph(rng, int(rng.integers(3, 10)), p=0.6)
    bip = random_bipartite_wgraph(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    return {
        "general": general,
        "bipartite": _relabeled(bip, rng, strings=False),
        "strings": _relabeled(general, rng, strings=True),
        "bipartite-strings": _relabeled(bip, rng, strings=True),
    }


class TestMixingMatchesPlain:
    """One exact and one sampled routine over two vertex pools give the
    reports of the references with a separate bipartite enumerator and two
    draw branches bit for bit: alpha, eml_ratio, both witnesses, pairs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_exact(self, seed):
        for name, G in _mixing_graphs(seed).items():
            rep, ref = eml_discrepancy(G, "exact"), plain_eml_exact(G)
            assert rep == ref, name
            assert repr(rep) == repr(ref)

    @pytest.mark.parametrize("seed", range(12))
    def test_sampled(self, seed):
        for name, G in _mixing_graphs(seed).items():
            rep = eml_discrepancy(G, "sampled", samples=60, rng=seed)
            assert rep == plain_eml_sampled(G, 60, seed), name
            assert repr(rep) == repr(plain_eml_sampled(G, 60, seed))

    def test_bipartite_witnesses_cross_the_sides(self):
        G = _mixing_graphs(0)["bipartite-strings"]
        left, right = G.sides
        for rep in (eml_discrepancy(G, "exact"), eml_discrepancy(G, "sampled", rng=1)):
            for s, t in (rep.witness, rep.eml_witness):
                assert s and t and set(s) <= left and set(t) <= right

    @pytest.mark.parametrize("G, message", [
        (complete_graph(6), "6 vertices exceed the exact limit 5"),
        (complete_bipartite(3, 6), "sides 3x6 exceed the exact limit 5"),
    ])
    def test_too_large_messages(self, G, message):
        with pytest.raises(TooLargeForExact, match=message):
            eml_discrepancy(G, "exact", exact_limit=5)
        with pytest.raises(TooLargeForExact, match=message):
            plain_eml_exact(G, 5)


class TestConverseEml:
    def test_log_term_vanishes(self):
        assert converse_eml_bound(3.0) == pytest.approx(780.0)

    def test_small_alpha(self):
        expected = 260 * 0.03 * (1 + math.log2(100))
        assert converse_eml_bound(0.03) == pytest.approx(expected, rel=1e-12)
        assert converse_eml_bound(0.03) == pytest.approx(59.6, abs=0.1)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveAlpha):
            converse_eml_bound(0.0)

    def test_bounds_bipartite_lambda(self):
        for seed in range(6):
            G = random_bipartite_wgraph(np.random.default_rng(seed), 5, 6, p=0.5)
            rep = eml_discrepancy(G, "exact")
            lam = bipartite_lambda(G)
            assert lam <= converse_eml_bound(rep.alpha) + 1e-9


class TestTrickleDown:
    def test_complete_complexes(self):
        # links at level k bound the level k-1 skeleta
        for n in (6, 8, 10):
            X = complete_complex(n, 2)
            lam = max(
                adjacency_spectrum(X.link(s).one_skeleton()).two_sided
                for s in X.faces(0)
            )
            assert lam <= 0.5
            top = one_sided(adjacency_spectrum(X.one_skeleton()))
            assert top <= lam / (1 - lam) + 1e-7
