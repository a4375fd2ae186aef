"""The shared resampling engine against the plain references it replaced."""
import itertools

import numpy as np
import pytest

from hdxcover.combine import CombineConfig, Combiner
from hdxcover.complexes import build_complex, complete_complex
from hdxcover.groups import cyclic, validate_genset
from hdxcover.pruning import PruneConfig, Pruner

from helpers import (
    plain_color_satisfaction_graph,
    plain_combine_run,
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
            (complete_complex(8, 2), PruneConfig.formula(0.9, max_resamples=4), 0),
        ],
    )
    def test_matches_plain_loop(self, X, config, seed):
        pruner = Pruner(X, Z5, Z5_GENS, config)
        outcome = pruner.run(seed)
        assert_same_run(outcome, outcome.labeling, plain_prune_run(pruner, seed))


# K9 onto K5 at 0.4 under both measures ends clean after 5-45 resamples;
# K7 never does
LINK_CONFIG = dict(lambda_target=0.4, ne_check_link_measure=True)
K7, K9 = complete_complex(7, 2), complete_complex(9, 2)


class TestCombineLoop:
    @pytest.mark.parametrize(
        "X, C, config, seed",
        [
            (K9, K5, CombineConfig(**LINK_CONFIG), 0),
            (K9, K5, CombineConfig(**LINK_CONFIG), 3),
            (relabeled(K9), K5, CombineConfig(**LINK_CONFIG), 1),
            (K9, K5, CombineConfig(**LINK_CONFIG, max_resamples=3), 2),
            (K7, K5, CombineConfig(**LINK_CONFIG, max_resamples=4), 1),
            (complete_complex(8, 2), K5, CombineConfig(0.34), 2),
            (complete_complex(10, 2), K5_HOLED, CombineConfig(0.9, max_resamples=9), 0),
            (complete_complex(10, 3), complete_complex(5, 3), CombineConfig(0.5), 3),
        ],
    )
    def test_matches_plain_loop(self, X, C, config, seed):
        comb = Combiner(X, C, config)
        outcome = comb.run(seed)
        col = comb.as_array(outcome.coloring)
        assert_same_run(outcome, col, plain_combine_run(comb, seed))

    def test_budget_exhausted_reports_violated_events(self):
        comb = Combiner(K7, K5, CombineConfig(**LINK_CONFIG, max_resamples=4))
        outcome = comb.run(1)
        assert outcome.status == "budget_exhausted"
        assert outcome.resamples == 4
        assert outcome.violations_remaining
        col = comb.as_array(outcome.coloring)
        for kind, face in outcome.violations_remaining:
            assert comb.eval_event(kind, face, col)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_config_rejects_empty_budget(self, budget):
        with pytest.raises(ValueError):
            CombineConfig(0.5, max_resamples=budget)


def compare_all_bases(X, C, seed, palette):
    """Compare the builder with the coface walk on every satisfied face of
    dimension at most d-2, the empty face included, under a random coloring
    from the first `palette` target vertices; returns the outcome kinds."""
    comb = Combiner(X, C, CombineConfig(0.5))
    rng = np.random.default_rng(seed)
    col = np.array(C.vertices[:palette])[rng.integers(0, palette, len(X.vertices))]
    kinds = set()
    for ell in range(-1, X.dim - 1):
        for sigma in X.faces(ell):
            if sigma and not comb.face_satisfied(sigma, col):
                continue
            got = comb.satisfaction_graph(sigma, col)
            want = plain_color_satisfaction_graph(comb, sigma, col)
            for name in ("graph", "link_graph"):
                g, w = getattr(got, name), getattr(want, name)
                assert (g is None) == (w is None)
                if g is not None:
                    assert g.vertices == w.vertices
                    assert g.edges == w.edges
                    assert np.array_equal(g.weights, w.weights)
            assert got.degenerate == want.degenerate
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
]


class TestColorSatisfactionGraph:
    @pytest.mark.parametrize("X, C, seed, palette", SAT_CASES)
    def test_matches_coface_walk(self, X, C, seed, palette):
        assert compare_all_bases(X, C, seed, palette)

    def test_cases_reach_every_outcome(self):
        kinds = set().union(*(compare_all_bases(*case) for case in SAT_CASES))
        assert kinds == {"no edges", "missing", "dropped", "graph"}
