"""Dynamic graph coloring toolkit.

A dynamic coloring is a proper vertex coloring in which every vertex with
at least two neighbors sees at least two distinct colors among them.  The
package provides generators and checkers for the objects involved, exact
solvers that serve as ground truth at small scale, resampling routines
that build the structures whose existence the probabilistic conditions
guarantee, and compositions that turn those structures into certified
colorings.
"""

from .constructions import (
    BalancedColoringResult,
    BoundRecord,
    BoundReport,
    ConstructionError,
    KneserColoringResult,
    PreconditionError,
    TriangleCertificate,
    balanced_coloring,
    balanced_subset_coloring,
    bound_report,
    chi_witness,
    compose_disjoint_palettes,
    double_total_coloring,
    double_total_subset,
    hypergraph_2coloring,
    kneser_dynamic_coloring,
    neighborhood_product_coloring,
    partial_product_coloring,
    product_coloring,
    triangle_certificate,
)
from .exact import (
    SearchBudgetExceeded,
    SolveResult,
    chromatic_number,
    dynamic_chromatic_number,
    hypergraph_2color_exact,
    is_k_critical,
    list_dynamic_coloring,
)
from .experiments import (
    ExperimentReport,
    conjecture_scan,
    derive_seed,
    run_gnp_triangle_experiment,
)
from .formats import (
    FormatError,
    coloring_from_json_dict,
    coloring_to_json_dict,
    graph_id,
    read_dimacs,
    read_edge_list,
    read_graph_text,
    write_dimacs,
    write_edge_list,
)
from .graphs import (
    GeneratorGaveUp,
    Graph,
    Hypergraph,
    KneserSpec,
    VertexSubset,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    dsatur,
    from_spec,
    gnp,
    induced_subgraph,
    is_connected,
    kneser,
    neighborhood_hypergraph,
    random_regular,
    vertices_in_triangles,
)
from .lll import (
    ConditionCheck,
    DegenerateParamsError,
    InfeasibleStructureError,
    LllParams,
    ResampleLog,
    find_balanced_subset,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
    select_sublists,
)
from .verify import (
    CertificationError,
    Coloring,
    ListAssignment,
    Violation,
    check_domination,
    check_dynamic,
    check_hypergraph_2coloring,
    check_list_respecting,
    check_proper,
    violations_to_json,
)

__version__ = "0.1.0"
