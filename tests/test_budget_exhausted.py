"""Every exhausted budget raises one class, with the message it always had.

A node budget, a resample cap and a generator's restart limit are all
budgets, and running one out is never a certified "none": the CLI maps the
one class to exit 2.  Each raise site is pinned here by its message and by
``nodes_explored``, the exact-search nodes spent before giving up (0 where
no search ran).
"""

import pytest

from dynachrome import (
    Coloring,
    SearchBudgetExceeded,
    balanced_subset_coloring,
    complete,
    cycle,
    hypergraph_2color_exact,
    hypergraph_2coloring,
    is_k_critical,
    neighborhood_hypergraph,
    random_regular,
)
from helpers import fano_plane, heawood

# (call, message, nodes_explored, the type of its __cause__)
_SITES = {
    "random_regular": (
        lambda: random_regular(10, 7, seed=0, max_retries=1),
        "random_regular(10,7) gave up after 1 restarts", 0, type(None),
    ),
    "hypergraph_2coloring": (
        lambda: hypergraph_2coloring(neighborhood_hypergraph(heawood()), budget=1),
        "hypergraph 2-coloring: resampling exhausted after 14000 resamples "
        "and exact search over budget after 2 nodes", 2, SearchBudgetExceeded,
    ),
    "balanced_subset_coloring": (
        lambda: balanced_subset_coloring(cycle(8), Coloring((0, 1) * 4, 2), max_resamples=0),
        "balanced subset unavailable: resampling exhausted after 0 resamples (seed 0)",
        0, type(None),
    ),
    "hypergraph_2color_exact": (
        lambda: hypergraph_2color_exact(fano_plane(), budget=1),
        "node budget exceeded", 2, type(None),
    ),
    "is_k_critical": (
        lambda: is_k_critical(complete(6), budget=5),
        "budget exhausted on chi(g)", 6, type(None),
    ),
}


@pytest.mark.parametrize("site", _SITES)
def test_exhausted_budget_raises_search_budget_exceeded(site):
    call, message, nodes, cause = _SITES[site]
    with pytest.raises(SearchBudgetExceeded) as info:
        call()
    assert type(info.value) is SearchBudgetExceeded
    assert str(info.value) == message
    assert info.value.nodes_explored == nodes
    assert type(info.value.__cause__) is cause
