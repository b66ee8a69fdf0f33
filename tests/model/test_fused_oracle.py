"""Degenerate-fusion equivalence oracle.

A :class:`FusedMapping` with no sub-nests and no fusion level must
reproduce ``evaluate_network``'s per-layer results *bit-identically* —
the fused path with nothing fused is the unfused path. Checked across
every bundled design family so the refactored evaluation core provably
did not change the single-einsum semantics. A real fusion is checked
against the engine's reference mode.
"""

from dataclasses import replace

import pytest

from repro.api import FusedMapping, Session
from repro.dataflow import nest_analysis
from repro.designs import codesign, dstc, eyeriss, eyeriss_v2, scnn, stc, toy
from repro.designs.common import generic_einsum_mapping
from repro.model.engine import Evaluator
from repro.workload.nets import NetLayer, attention
from tests.workload.test_graph import chain_graph

DENSITIES = {"A": 0.5, "B": 0.6, "H": 0.7, "C": 0.4}


def bundled_designs():
    """The eight bundled design families (same set the sharded-search
    identity bench scans), re-pointed at the shape-agnostic mapping
    policy: the factories' hard-coded kernels don't schedule chain
    einsums, and the oracle only needs *identical* mappings on both
    paths, not clever ones."""
    designs = [
        ("toy-bitmask", toy.bitmask_design()),
        ("toy-coordinate-list", toy.coordinate_list_design()),
        ("eyeriss", eyeriss.eyeriss_design()),
        ("eyeriss-v2-pe", eyeriss_v2.eyeriss_v2_pe_design()),
        ("scnn", scnn.scnn_design()),
        ("dstc", dstc.dstc_design()),
        ("stc", stc.stc_design()),
        ("codesign", codesign.build_design(*codesign.ALL_COMBINATIONS[0])),
    ]
    return [
        (
            name,
            replace(
                design,
                mapping=None,
                constraints=None,
                mapping_factory=generic_einsum_mapping,
            ),
        )
        for name, design in designs
    ]


def densities_for(layer):
    names = {ref.name for ref in layer.spec.tensors}
    return {t: d for t, d in DENSITIES.items() if t in names}


@pytest.mark.parametrize(
    "name,design", bundled_designs(), ids=[n for n, _ in bundled_designs()]
)
def test_degenerate_fused_matches_network(name, design):
    graph = chain_graph()
    layers = [NetLayer(spec.name, spec) for spec in graph.einsums]
    with Session(check_capacity=False) as session:
        fused = session.evaluate_fused(design, graph, dict(DENSITIES))
        network = session.evaluate_network(design, layers, densities_for)
    assert fused.fuse_at is None
    assert [e.einsum_name for e in fused.einsums] == [
        layer.layer_name for layer in network.layers
    ]
    for fused_entry, layer in zip(fused.einsums, network.layers):
        assert (
            fused_entry.result.to_dict() == layer.result.to_dict()
        ), f"{name}: einsum {fused_entry.einsum_name} diverged"


def test_degenerate_shared_records_report_backing_traffic():
    """Even unfused, the result attributes the intermediate's traffic —
    at the outermost level it is the full producer+consumer round trip."""
    name, design = bundled_designs()[0]
    graph = chain_graph()
    with Session(check_capacity=False) as session:
        result = session.evaluate_fused(design, graph, dict(DENSITIES))
    record = result.shared_tensor("H")
    assert record["producer"] == "fc1"
    assert record["consumers"] == ["fc2"]
    assert result.intermediate_backing_words > 0


@pytest.mark.parametrize("reference", [False, True])
def test_fused_dense_pass_obeys_reference_mode(monkeypatch, reference):
    """Fused at the buffer, both modes match the uncached reference bit
    for bit, and the fused dense pass runs in the evaluator's mode."""
    modes = []
    real = nest_analysis.analyze_fused_dataflow

    def spy(*args, **kwargs):
        modes.append(kwargs["reference"])
        return real(*args, **kwargs)

    monkeypatch.setattr(nest_analysis, "analyze_fused_dataflow", spy)
    design = replace(
        toy.dense_design(),
        mapping=None,
        constraints=None,
        mapping_factory=generic_einsum_mapping,
    )
    graph = attention(seq=32, d_model=64, heads=2)
    fused = FusedMapping(fuse_at="Buffer")
    got = Evaluator(check_capacity=False, reference=reference)._evaluate_fused(
        design, graph, fused=fused
    )
    oracle = Evaluator(
        check_capacity=False, reference=True, cache=None
    )._evaluate_fused(design, graph, fused=fused)
    assert modes == [reference, True]
    assert got.to_dict() == oracle.to_dict()
