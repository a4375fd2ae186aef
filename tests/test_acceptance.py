"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 5's fixture uses the empirical threshold regime (r=1.5, target
0.9, budget 10^4); the formula regime does not terminate at this scale.
"""
import itertools
import json
import time

import numpy as np
import pytest

from hdxcover.combine import CombineConfig, Combiner, verify_combine
from hdxcover.complexes import build_complex, complete_complex
from hdxcover.covers import (
    build_cover,
    cover_components,
    holonomy_subgroup,
    verify_cover,
)
from hdxcover.graphs import WGraph, complete_graph, component_labels
from hdxcover.groups import (
    cayley_clique_complex,
    cyclic,
    dihedral,
    product_group,
    symmetric_group,
    validate_genset,
)
from hdxcover.harness import run_experiment
from hdxcover.pruning import (
    PruneConfig,
    Pruner,
    face_fraction_report,
    measure_ratio_audit,
    pruned_measure,
)
from hdxcover.sparsify import bipartite_vertex_split, sparsify_trial
from hdxcover.spectral import (
    adjacency_spectrum,
    bipartite_lambda,
    converse_eml_bound,
    eml_discrepancy,
    is_hdx,
)

from helpers import (
    coboundary_labeling,
    neighbors,
    one_sided,
    phi_face,
    random_bipartite_wgraph,
    random_wgraph,
)


def verdict(n, ok, detail):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- shared fixtures ---

FIXTURE_LAMBDA = 0.9


@pytest.fixture(scope="session")
def prune_fixture():
    """Ten seeded runs of the pruning fixture (K_30, Z/5, S = {+-1, +-2})."""
    X = complete_complex(30, 2)
    group = cyclic(5)
    gens = validate_genset(group, [1, 2, 3, 4])
    config = PruneConfig.empirical(FIXTURE_LAMBDA, max_resamples=10_000)
    pruner = Pruner(X, group, gens, config)
    outcomes = [pruner.run(seed) for seed in range(10)]
    return X, group, gens, pruner, outcomes


def test_criterion_1_spectral_oracle():
    t0 = time.perf_counter()
    for n in range(4, 13):
        skel = complete_complex(n, 2).one_skeleton()
        rep = adjacency_spectrum(skel)
        assert abs(rep.eigenvalues[0] - 1.0) <= 1e-8
        for lam in rep.eigenvalues[1:]:
            assert abs(lam + 1 / (n - 1)) <= 1e-8
    for a, b in ((2, 3), (4, 4), (3, 6), (5, 5)):
        G = WGraph(
            [(i, a + j, 1.0) for i in range(a) for j in range(b)],
            sides=(range(a), range(a, a + b)),
        )
        assert bipartite_lambda(G) <= 1e-8
    dt = time.perf_counter() - t0
    verdict(1, dt < 1.0, f"K_n spectra and bipartite lambdas exact in {dt:.2f}s")


def test_criterion_2_eml_exhaustive():
    t0 = time.perf_counter()
    worst_margin = -1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 13))
        G = random_wgraph(rng, n, p=0.55)
        lam = adjacency_spectrum(G).two_sided
        rep = eml_discrepancy(G, "exact", exact_limit=14)
        margin = lam + 1e-9 - rep.eml_ratio
        worst_margin = max(worst_margin, rep.eml_ratio - lam)
        assert margin >= 0, f"seed {seed}: ratio {rep.eml_ratio} > lambda {lam}"
    dt = time.perf_counter() - t0
    verdict(
        2,
        dt < 30.0,
        f"mixing bound held on all pairs of 20 graphs "
        f"(worst ratio-lambda gap {worst_margin:.2e}) in {dt:.1f}s",
    )


def test_criterion_3_converse_eml():
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        a = int(rng.integers(4, 13))
        b = int(rng.integers(4, 13))
        G = random_bipartite_wgraph(rng, a, b, p=0.5)
        rep = eml_discrepancy(G, "exact", exact_limit=14)
        lam = bipartite_lambda(G)
        if rep.alpha <= 0:
            assert lam <= 1e-9
            continue
        assert lam <= converse_eml_bound(rep.alpha) + 1e-9
    dt = time.perf_counter() - t0
    verdict(3, dt < 60.0, f"inverse mixing bound held on 20 bipartite graphs in {dt:.1f}s")


def test_criterion_4_cover_soundness():
    t0 = time.perf_counter()
    groups = [
        cyclic(2), cyclic(3), cyclic(5), cyclic(6), cyclic(8), cyclic(12),
        dihedral(3), dihedral(4), dihedral(6),
        symmetric_group(3), symmetric_group(4),
        product_group(cyclic(2), cyclic(2)),
        product_group(cyclic(2), cyclic(6)),
    ]
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        group = groups[seed % len(groups)]
        n = int(rng.integers(5, 11))
        X = complete_complex(n, 2)
        potential = [int(rng.integers(group.order)) for v in X.vertices]
        f = coboundary_labeling(X, group, potential)
        cover = build_cover(X, f, group)

        rep = verify_cover(cover)
        assert rep.ok, f"seed {seed}: cover verification failed {rep.violations[:2]}"

        comp = cover_components(cover)
        h = holonomy_subgroup(X, f, group, X.vertices[0])
        assert comp.count == group.order // len(h)

        push = {}
        for face, w in zip(cover.complex.top_faces, cover.complex.weights):
            img = phi_face(cover, face)
            push[img] = push.get(img, 0.0) + w
        for face, w in zip(X.top_faces, X.weights):
            assert abs(push[face] - w) <= 1e-12
        checked += 1
    dt = time.perf_counter() - t0
    verdict(4, dt < 60.0 and checked == 50, f"50 covers verified in {dt:.1f}s")


def test_criterion_5_pruning_end_to_end(prune_fixture):
    X, group, gens, pruner, outcomes = prune_fixture
    clean = [o for o in outcomes if o.status == "clean"]
    assert len(clean) >= 8, f"only {len(clean)}/10 seeds reached clean status"
    m = len(gens)
    for out in clean:
        assert out.resamples <= 10_000
        y = out.y
        hdx = is_hdx(y, FIXTURE_LAMBDA)
        assert hdx.passes, f"pruned complex failed at {hdx.worst_face}"

        fr = face_fraction_report(X, y)
        bound = (1 / (2 * m**2)) ** 2
        assert all(fr[k] >= bound for k in fr)

        labels = pruner.elements_on(y, out.labeling)
        hol = holonomy_subgroup(y, labels, group, y.vertices[0])
        assert len(hol) == group.order

        cover = build_cover(y, labels, group)
        comp = cover_components(cover)
        assert comp.count == 1 and comp.matches

        base = {
            v: adjacency_spectrum(y.link((v,)).one_skeleton()).eigenvalues
            for v in y.vertices
        }
        for vid in cover.complex.vertices:
            up = adjacency_spectrum(
                cover.complex.link((vid,)).one_skeleton()
            ).eigenvalues
            down = base[cover.phi(vid)]
            assert max(abs(a - b) for a, b in zip(up, down)) <= 1e-9
    resample_counts = [o.resamples for o in clean]
    verdict(
        5,
        True,
        f"{len(clean)}/10 seeds clean (resamples {min(resample_counts)}-"
        f"{max(resample_counts)}), each certified at lambda={FIXTURE_LAMBDA}",
    )


def test_criterion_6_measure_audits(prune_fixture):
    X, group, gens, pruner, outcomes = prune_fixture
    clean = [o for o in outcomes if o.status == "clean"]
    assert clean
    bound = pruner.config.r ** (15 * X.dim)
    worst_ratio = 1.0
    for out in clean:
        pm = pruned_measure(pruner, out.y, out.labeling)
        assert abs(pm.total - 1.0) <= 1e-9
        reports = measure_ratio_audit(pruner, out.y, out.labeling, 0)
        assert tuple(rep.sigma for rep in reports) == X.faces(0)
        for rep in reports:
            assert rep.support_matches and rep.max_ratio <= bound
            worst_ratio = max(worst_ratio, rep.max_ratio)
    verdict(
        6,
        True,
        f"pruned measures total 1; worst link measure ratio "
        f"{worst_ratio:.2f} <= r^30 = {bound:.0f}",
    )


def test_criterion_7_sparsification():
    t0 = time.perf_counter()
    G = complete_graph(300)
    sample = bipartite_vertex_split(G, 0.3, 12345)
    min_side_degree = min(
        len(neighbors(sample.graph, v)) for v in sample.graph.vertices
    )
    assert min_side_degree >= 40, "split fixture is not >= 40-regular"

    rep = sparsify_trial(G, 0.3, 0.5, 50, 0, edge_threshold=0.95)
    assert rep.discarded == 0
    assert rep.split_ok_fraction >= 0.9, rep.split_ok_fraction
    assert rep.edge_ok_fraction >= 0.9, rep.edge_ok_fraction
    dt = time.perf_counter() - t0
    verdict(
        7,
        dt < 300.0,
        f"50 trials: split bound rate {rep.split_ok_fraction:.0%}, "
        f"subsample rate {rep.edge_ok_fraction:.0%} (max lambda(H') "
        f"{max(rep.edge_lambdas):.3f}) in {dt:.1f}s",
    )


def test_criterion_8_combine_end_to_end():
    X = complete_complex(40, 2)
    target = complete_complex(5, 2)
    lam = is_hdx(target, 1.0).worst_value  # 1/3 for the K_5 clique complex
    config = CombineConfig(lambda_target=lam, max_resamples=10_000)
    clean = 0
    for seed in range(10):
        out = Combiner(X, target, config).run(seed)
        if out.status != "clean":
            continue
        clean += 1
        rep = verify_combine(X, target, out)
        assert rep.homomorphism_ok
        assert rep.nondegenerate_ok
        assert rep.hdx_ok
        assert rep.connected_ok and rep.path_argument_ok
        assert rep.fraction_ok
    assert clean >= 8, f"only {clean}/10 combine seeds reached clean status"
    verdict(8, True, f"{clean}/10 seeds clean; all five checks passed on each")


def test_criterion_9_determinism():
    prune_spec = {
        "kind": "prune",
        "params": {
            "complex": {"kind": "complete", "n": 30, "dim": 2},
            "group": {"kind": "cyclic", "n": 5},
            "genset": [1, 2, 3, 4],
            "lambda": FIXTURE_LAMBDA,
            "mode": "empirical",
            "max_resamples": 10_000,
        },
        "seed": 3,
    }
    sparsify_spec = {
        "kind": "sparsify",
        "params": {"graph": {"kind": "complete", "n": 80}, "trials": 10},
        "seed": 4,
    }
    combine_spec = {
        "kind": "combine",
        "params": {
            "complex": {"kind": "complete", "n": 25, "dim": 2},
            "target": {"kind": "complete", "n": 5, "dim": 2},
        },
        "seed": 5,
    }
    for name, spec in (
        ("prune", prune_spec),
        ("sparsify", sparsify_spec),
        ("combine", combine_spec),
    ):
        a = run_experiment(spec).to_json_bytes()
        b = run_experiment(spec).to_json_bytes()
        assert a == b, f"{name} report bytes differ between identical runs"
    verdict(9, True, "prune, sparsify, and combine reports byte-identical")


def test_criterion_10_trickle_down(prune_fixture):
    X, group, gens, pruner, outcomes = prune_fixture
    fixtures = [complete_complex(n, 2) for n in (6, 8, 10)]
    fixtures.append(complete_complex(7, 3))
    fixtures.append(cayley_clique_complex(cyclic(5), (1, 2, 3, 4), 2).complex)
    fixtures.append(
        build_complex(
            2,
            itertools.combinations(range(8), 3),
            0.5 + np.random.default_rng(0).random(56),
        )
    )
    clean = [o for o in outcomes if o.status == "clean"]
    if clean:
        fixtures.append(clean[0].y)

    applied = 0
    for Xf in fixtures:
        for k in range(0, Xf.dim - 1):
            lam = max(
                adjacency_spectrum(Xf.link(s).one_skeleton()).two_sided
                for s in Xf.faces(k)
            )
            if lam > 0.5:
                continue  # outside the trickle-down hypothesis
            for r_face in Xf.faces(k - 1):
                skel = Xf.link(r_face).one_skeleton()
                if component_labels(skel.n, skel.ends).any():
                    continue
                lam2 = one_sided(adjacency_spectrum(skel))
                assert lam2 <= lam / (1 - lam) + 1e-7, (
                    f"trickle-down violated at {r_face} of {Xf}"
                )
                applied += 1
    assert applied > 0
    verdict(10, True, f"trickle-down bound held on {applied} co-dimension-1 links")
