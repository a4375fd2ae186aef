"""Random bipartite vertex splits and edge subsampling of expanders.

Both stages keep the surviving edges' weights and renormalize, so the
spectral module can re-certify the result from scratch.  Trial batches
report how often the sparsified graphs beat the requested thresholds;
degenerate draws (an empty side or edge set) are discarded and counted.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyResult, EmptySide, InputError
from .graphs import WGraph
from .spectral import adjacency_spectrum, bipartite_lambda


def split_vertex_sets(vertices, p, rng):
    """Two-phase disjoint sampling with marginal inclusion p on both sides.

    Each vertex enters A independently with probability p; the remainder
    enter B with probability p/(1-p), so P(v in B) is exactly p as well.
    """
    if not 0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2")
    rng = np.random.default_rng(rng)
    a, b = set(), set()
    q = p / (1.0 - p)
    for v in vertices:
        if rng.random() < p:
            a.add(v)
        elif rng.random() < q:
            b.add(v)
    return a, b


@dataclass(frozen=True)
class SplitSample:
    graph: WGraph  # bipartite, renormalized cross-edge measure
    a: frozenset
    b: frozenset
    cross_mass: float  # nu_G of the surviving edges before renormalizing
    in_a: np.ndarray = field(repr=False, compare=False)  # over G's vertex positions
    in_b: np.ndarray = field(repr=False, compare=False)
    cross: np.ndarray = field(repr=False, compare=False)  # over G's edge columns


def bipartite_vertex_split(G, p, rng):
    """Sample disjoint sides and keep the crossing edges."""
    a, b = split_vertex_sets(G.vertices, p, rng)
    if not a or not b:
        raise EmptySide("a side came out empty")
    in_a = np.fromiter((v in a for v in G.vertices), bool, G.n)
    in_b = np.fromiter((v in b for v in G.vertices), bool, G.n)
    u, v = G.ends
    cross = (in_a[u] & in_b[v]) | (in_b[u] & in_a[v])
    if not cross.any():
        raise EmptySide("no edge crosses the sampled sides")
    mass = np.cumsum(G.weights[cross])[-1]  # summed edge by edge, left to right
    graph = G.edge_subgraph(cross, sides=(in_a, in_b))
    return SplitSample(graph, frozenset(a), frozenset(b), mass, in_a, in_b, cross)


@dataclass(frozen=True)
class SubsampleResult:
    graph: WGraph
    kept_edges: int
    dropped_vertices: int


def edge_subsample(H, p, rng):
    """Independent Bernoulli(p) edge retention, weights renormalized."""
    if not 0 < p <= 1:
        raise ValueError("need 0 < p <= 1")
    rng = np.random.default_rng(rng)
    keep = rng.random(H.m) < p
    if not keep.any():
        raise EmptyResult("no edge survived the subsample")
    graph = H.edge_subgraph(keep)
    return SubsampleResult(graph, int(np.count_nonzero(keep)), H.n - graph.n)


@dataclass
class TrialReport:
    trials: int
    discarded: int
    p_split: float
    p_edge: float
    lambda_g: float
    min_degree: int
    near_uniform_r: float
    split_bound: float
    edge_threshold: float
    split_lambdas: list
    edge_lambdas: list
    split_ok_fraction: float
    edge_ok_fraction: float
    side_mass_ok_fraction: float
    vertex_mass_ok_fraction: float
    eps: float

    def to_dict(self):
        return asdict(self)


def near_uniform_r(G):
    """Smallest r bracketing all edge and vertex weights around uniform."""
    edge = G.weights * G.m
    vertex = G.vertex_measures() * G.n
    return max(1.0, edge.max(), (1.0 / edge).max(), vertex.max(), (1.0 / vertex).max())


def _one_trial(G, p_split, p_edge, eps, seed_pair):
    try:
        sample = bipartite_vertex_split(G, p_split, int(seed_pair[0]))
        sub = edge_subsample(sample.graph, p_edge, int(seed_pair[1]))
    except (EmptySide, EmptyResult):
        return None
    lam_split = float(bipartite_lambda(sample.graph))
    lam_edge = float(bipartite_lambda(sub.graph))

    # summed vertex by vertex in vertex order, since the sums meet a threshold
    vm = G.vertex_measures()
    mass_a, mass_b = (float(np.cumsum(vm[m])[-1]) for m in (sample.in_a, sample.in_b))
    side_ok = (
        abs(mass_a - p_split) <= eps * p_split
        and abs(mass_b - p_split) <= eps * p_split
    )
    # mass from each A vertex into B, summed edge by edge in edge order
    u, v = G.ends
    a_end = np.where(sample.in_a[u], u, v)[sample.cross]
    into_b = np.bincount(a_end, weights=G.weights[sample.cross], minlength=G.n)
    total = 2.0 * vm
    within = np.abs(into_b - p_split * total) < eps * p_split * total
    vertex_ok = bool(within[sample.in_a].all())
    return lam_split, lam_edge, side_ok, vertex_ok


def sparsify_trial(
    G,
    p_split,
    p_edge,
    trials,
    rng,
    split_factor=100.0,
    edge_threshold=0.95,
    eps=0.1,
):
    """Run the split-then-subsample pipeline and tally threshold hits.

    Per trial the bipartite expansion of the split graph is compared with
    split_factor/p^3 times the two-sided expansion of G, and the
    subsampled graph's expansion with edge_threshold.  Side masses and
    per-vertex cross masses are also checked within eps*p, mirroring the
    concentration events the analysis conditions on.  Trials draw their
    seeds from the master stream up front.
    """
    if not 0 < p_split < 0.5:
        raise InputError("p_split must lie in (0, 1/2)")
    if not 0 < p_edge <= 1:
        raise InputError("p_edge must lie in (0, 1]")
    if trials < 1:
        raise InputError("trials must be at least 1")
    master = np.random.default_rng(rng)
    seeds = master.integers(0, 2**63 - 1, size=2 * trials)
    lam_g = adjacency_spectrum(G).two_sided
    min_degree = int(np.bincount(G.ends.ravel(), minlength=G.n).min())
    split_bound = split_factor / p_split**3 * lam_g

    results = [
        _one_trial(G, p_split, p_edge, eps, (seeds[2 * t], seeds[2 * t + 1]))
        for t in range(trials)
    ]

    split_lambdas = [r[0] for r in results if r is not None]
    edge_lambdas = [r[1] for r in results if r is not None]
    side_ok = sum(1 for r in results if r is not None and r[2])
    vertex_ok = sum(1 for r in results if r is not None and r[3])
    discarded = sum(1 for r in results if r is None)

    done = trials - discarded
    return TrialReport(
        trials=trials,
        discarded=discarded,
        p_split=p_split,
        p_edge=p_edge,
        lambda_g=float(lam_g),
        min_degree=min_degree,
        near_uniform_r=float(near_uniform_r(G)),
        split_bound=float(split_bound),
        edge_threshold=edge_threshold,
        split_lambdas=split_lambdas,
        edge_lambdas=edge_lambdas,
        split_ok_fraction=(
            sum(1 for x in split_lambdas if x <= split_bound) / done if done else 0.0
        ),
        edge_ok_fraction=(
            sum(1 for x in edge_lambdas if x <= edge_threshold) / done if done else 0.0
        ),
        side_mass_ok_fraction=side_ok / done if done else 0.0,
        vertex_mass_ok_fraction=vertex_ok / done if done else 0.0,
        eps=eps,
    )
