"""Random high-dimensional expanders from pruned labelings and covers."""

from .complexes import (
    PureComplex,
    build_complex,
    check_suitable,
    complete_complex,
    tensor_with_complete,
)
from .graphs import WGraph
from .spectral import (
    adjacency_spectrum,
    bipartite_lambda,
    converse_eml_bound,
    eml_discrepancy,
    is_hdx,
)
from .groups import (
    GroupTable,
    cayley_clique_complex,
    cyclic,
    dihedral,
    make_group,
    product_group,
    quotient_group,
    scan_gensets,
    subgroup_closure,
    symmetric_group,
    validate_genset,
)
from .covers import (
    build_cover,
    cover_components,
    holonomy_subgroup,
    is_cocycle,
    push_cocycle,
    verify_cover,
)
from .pruning import (
    PruneConfig,
    Pruner,
    measure_ratio_audit,
    pruned_measure,
    sample_labeling,
)
from .combine import CombineConfig, Combiner, verify_combine
from .sparsify import bipartite_vertex_split, edge_subsample, sparsify_trial
from .harness import emit_report, run_experiment

__version__ = "0.1.0"
