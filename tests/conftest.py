import pytest

from hdxcover.complexes import complete_complex
from hdxcover.covers import build_cover, push_cocycle
from hdxcover.groups import cyclic, normal_subgroups, quotient_group, validate_genset
from hdxcover.harness import stage_seed
from hdxcover.pruning import PruneConfig, Pruner


@pytest.fixture(scope="session")
def benchmark_prunes():
    """The clean K30 prunes of the cover-family-z6 and prune-k30 benchmarks:
    each one's Pruner and outcome."""
    out = {}
    for name, n, gens, r, seed in (("cover-family-z6", 6, [1, 2, 3, 4, 5], 2.0, 1),
                                   ("prune-k30", 5, [1, 2, 3, 4], 1.5, 2)):
        group = cyclic(n)
        pruner = Pruner(complete_complex(30, 2), group, validate_genset(group, gens),
                        PruneConfig.empirical(0.9, r=r))
        out[name] = (pruner, pruner.run(stage_seed(seed, "prune")))
    return out


@pytest.fixture(scope="session")
def benchmark_ys(benchmark_prunes):
    """Each benchmark's pruned Y with its labels and group."""
    return {name: (out.y, pruner.elements_on(out.y, out.labeling), pruner.group)
            for name, (pruner, out) in benchmark_prunes.items()}


@pytest.fixture(scope="session")
def benchmark_covers(benchmark_ys):
    """Each benchmark Y with its full cover and its quotient covers."""
    out = {}
    for name, (y, labels, group) in benchmark_ys.items():
        covers = [build_cover(y, labels, group)]
        for sub in normal_subgroups(group):
            q = quotient_group(group, sub)
            covers.append(build_cover(y, push_cocycle(y, labels, group, q), q.group))
        out[name] = (y, covers)
    return out
