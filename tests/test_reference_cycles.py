"""Calls that leave no garbage for the cyclic collector: after each call, a
full collection finds nothing to free."""

import gc

import pytest

from qbmg.decompose import decompose_type_a
from qbmg.digraph import canonical_form, underlying
from qbmg.enumeration import classify_all_qbmgs
from qbmg.fixtures import EX10, P5AB, R4
from qbmg.paths import find_induced_cycle_masks, find_induced_path_masks
from qbmg.trees import phylogenetic_topologies, search_explanation

CALLS = {
    "canonical_order": lambda: canonical_form(EX10),
    "find_induced_path_masks": lambda: find_induced_path_masks(underlying(EX10).adj_masks, EX10.n, 5),
    "find_induced_cycle_masks": lambda: find_induced_cycle_masks(underlying(EX10).adj_masks, EX10.n, 4),
    "decompose_type_a": lambda: decompose_type_a(EX10),
    # P5AB is sink-free, so it is explained through BUILD
    "_build_tree": lambda: search_explanation(P5AB, 5),
    "phylogenetic_topologies": lambda: list(phylogenetic_topologies("abcde")),
    # R4 has a sink, so its search stops early inside the topology generator
    "phylogenetic_topologies_abandoned": lambda: search_explanation(R4, 5),
    "classify_all_qbmgs": lambda: classify_all_qbmgs(4),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_call_leaves_no_reference_cycle(call):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
