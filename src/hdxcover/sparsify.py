"""Random bipartite vertex splits and edge subsampling of expanders.

Both stages keep the surviving edges' weights and renormalize, so the
spectral module can re-certify the result from scratch.  Trial batches
report how often the sparsified graphs beat the requested thresholds;
degenerate draws (an empty side or edge set) are discarded and counted.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BadParameter, EmptyResult, EmptySide, check_count
from .graphs import WGraph
from .spectral import adjacency_spectrum, bipartite_lambda


def split_vertex_sets(n, p, rng):
    """Two-phase disjoint sampling with marginal inclusion p on both sides,
    returned as two bool masks over the n vertex positions.

    Each vertex enters A independently with probability p; the remainder
    enter B with probability p/(1-p), so P(v in B) is exactly p as well.
    The 2n uniforms are drawn in one call and read in order: one for each
    vertex, and the next one for B only when the vertex missed A; the rest
    go unread.
    """
    if not 0 < p < 0.5:
        raise BadParameter("need 0 < p < 1/2")
    draws = np.random.default_rng(rng).random(2 * n).tolist()
    q = p / (1.0 - p)
    side, k = [0] * n, 0  # 1 in A, 2 in B
    for i in range(n):
        if draws[k] < p:
            side[i], k = 1, k + 1
        else:
            side[i], k = 2 * (draws[k + 1] < q), k + 2
    side = np.array(side)
    return side == 1, side == 2


@dataclass(frozen=True)
class SplitSample:
    graph: WGraph  # bipartite, renormalized cross-edge measure
    in_a: np.ndarray = field(repr=False, compare=False)  # over G's vertex positions
    in_b: np.ndarray = field(repr=False, compare=False)
    cross: np.ndarray = field(repr=False, compare=False)  # G's crossing edge columns


def bipartite_vertex_split(G, p, rng):
    """Sample disjoint sides and keep the crossing edges."""
    in_a, in_b = split_vertex_sets(G.n, p, rng)
    if not in_a.any() or not in_b.any():
        raise EmptySide("a side came out empty")
    # side code 1 on A and 2 on B: an edge crosses where its ends' codes sum to 3
    code = in_a + 2 * in_b.astype(np.int8)
    u, v = G.ends
    cross = np.flatnonzero(code[u] + code[v] == 3)
    if not len(cross):
        raise EmptySide("no edge crosses the sampled sides")
    graph = G.edge_subgraph(cross, sides=(in_a, in_b))
    return SplitSample(graph, in_a, in_b, cross)


@dataclass(frozen=True)
class SubsampleResult:
    graph: WGraph
    kept_edges: int
    dropped_vertices: int


def edge_subsample(H, p, rng):
    """Independent Bernoulli(p) edge retention, weights renormalized."""
    if not 0 < p <= 1:
        raise BadParameter("need 0 < p <= 1")
    rng = np.random.default_rng(rng)
    keep = np.flatnonzero(rng.random(H.m) < p)
    if not len(keep):
        raise EmptyResult("no edge survived the subsample")
    graph = H.edge_subgraph(keep)
    return SubsampleResult(graph, len(keep), H.n - graph.n)


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


def _one_trial(G, vm, p_split, p_edge, eps, seed_pair):
    """Both lambdas and mass checks of one draw, or None; vm is G's vertex measures."""
    try:
        sample = bipartite_vertex_split(G, p_split, int(seed_pair[0]))
        sub = edge_subsample(sample.graph, p_edge, int(seed_pair[1]))
    except (EmptySide, EmptyResult):
        return None
    lam_split = float(bipartite_lambda(sample.graph))
    lam_edge = float(bipartite_lambda(sub.graph))

    # summed vertex by vertex in vertex order, since the sums meet a threshold
    mass_a, mass_b = (float(np.cumsum(vm[m])[-1]) for m in (sample.in_a, sample.in_b))
    side_ok = all(abs(m - p_split) <= eps * p_split for m in (mass_a, mass_b))
    # mass from each A vertex into B, summed edge by edge in edge order
    u, v = G.ends[:, sample.cross]
    a_end = np.where(sample.in_a[u], u, v)
    into_b = np.bincount(a_end, weights=G.weights[sample.cross], minlength=G.n)[sample.in_a]
    total = 2.0 * vm[sample.in_a]
    vertex_ok = bool((np.abs(into_b - p_split * total) < eps * p_split * total).all())
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
        raise BadParameter("p_split must lie in (0, 1/2)")
    if not 0 < p_edge <= 1:
        raise BadParameter("p_edge must lie in (0, 1]")
    check_count("trials", trials)
    master = np.random.default_rng(rng)
    seeds = master.integers(0, 2**63 - 1, size=2 * trials)
    lam_g = adjacency_spectrum(G).two_sided
    min_degree = int(np.bincount(G.ends.ravel(), minlength=G.n).min())
    split_bound = split_factor / p_split**3 * lam_g

    vm = G.vertex_measures()
    kept = [r for r in (_one_trial(G, vm, p_split, p_edge, eps, seeds[2 * t:2 * t + 2])
                        for t in range(trials)) if r is not None]
    split_lambdas = [r[0] for r in kept]
    edge_lambdas = [r[1] for r in kept]

    def fraction(hits):
        return sum(map(bool, hits)) / len(kept) if kept else 0.0

    return TrialReport(
        trials=trials,
        discarded=trials - len(kept),
        p_split=p_split,
        p_edge=p_edge,
        lambda_g=float(lam_g),
        min_degree=min_degree,
        near_uniform_r=float(near_uniform_r(G)),
        split_bound=float(split_bound),
        edge_threshold=edge_threshold,
        split_lambdas=split_lambdas,
        edge_lambdas=edge_lambdas,
        split_ok_fraction=fraction(x <= split_bound for x in split_lambdas),
        edge_ok_fraction=fraction(x <= edge_threshold for x in edge_lambdas),
        side_mass_ok_fraction=fraction(r[2] for r in kept),
        vertex_mass_ok_fraction=fraction(r[3] for r in kept),
        eps=eps,
    )
