"""The engine's one stacked pipeline (``Evaluator._evaluate_batch``).

Single evaluations, search blocks, Session batches and the serve
daemon all evaluate through the same stacked dense and sparse passes.
These tests pin that pipeline to a loop of ``_evaluate`` calls (each a
batch of one) and to the serial oracle ``_evaluate_mapping`` — results,
captured errors and every stage's cache accounting — and pin the search
fold's error rule: ``ValidationError``/``MappingError`` candidates are
skipped, any other ``ReproError`` propagates.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
import yaml

import repro.dataflow.nest_analysis as nest_analysis
import repro.model.engine as engine
from repro import Evaluator, Session, Workload, load_design
from repro.common.errors import (
    MappingError,
    ReproError,
    SpecError,
    ValidationError,
)
from repro.mapping.mapspace import Mapper
from tests.io.test_yaml_spec import FULL_SPEC
from tests.model.test_fused_oracle import bundled_designs
from tests.workload.test_graph import chain_graph

FAMILIES = bundled_designs()
FAMILY_IDS = [name for name, _ in FAMILIES]


def _starved(design):
    """``design`` with every finite storage level shrunk to two words,
    so any mapping overflows under the capacity check."""
    arch = design.arch
    levels = [
        level if level.capacity_words is None
        else replace(level, capacity_words=2)
        for level in arch.levels
    ]
    return replace(design, arch=replace(arch, levels=levels))


def _jobs(design):
    """A heterogeneous batch: two einsums, a density variant sharing a
    dense analysis, a duplicate job, a content-equal rebuilt workload,
    and one capacity-overflow job on another architecture."""
    fc1, fc2 = chain_graph(m=2, k=2, n1=2, n2=2).einsums
    first = Workload.uniform(fc1, {"A": 0.5, "B": 0.6})
    return [
        (design, first),
        (design, Workload.uniform(fc2, {"H": 0.7, "C": 0.4})),
        (design, Workload.uniform(fc1, {"A": 0.3, "B": 0.6})),
        (design, first),
        (design, Workload.uniform(fc1, {"A": 0.5, "B": 0.6})),
        (_starved(design), first),
    ]


def _serial(evaluator, jobs):
    outcomes = []
    for job in jobs:
        try:
            outcomes.append((evaluator._evaluate(*job), None))
        except ReproError as exc:
            outcomes.append((None, exc))
    return outcomes


def _summary(outcomes):
    return [
        (type(error).__name__, None) if error is not None
        else (None, result.to_dict())
        for result, error in outcomes
    ]


def _counts(evaluator):
    return {
        name: (stats["hits"], stats["misses"])
        for name, stats in evaluator.cache.stats().items()
    }


@pytest.mark.parametrize("name,design", FAMILIES, ids=FAMILY_IDS)
def test_batch_matches_serial_loop(name, design):
    serial, stacked = Evaluator(), Evaluator()
    expected = _serial(serial, _jobs(design))
    got = stacked._evaluate_batch(_jobs(design))
    assert _summary(got) == _summary(expected), name
    assert [type(e).__name__ for _r, e in got].count("ValidationError") >= 1
    assert _counts(stacked) == _counts(serial), name


def _oracle(evaluator, jobs):
    """The serial oracle: one ``_evaluate_mapping`` walk per job, no
    batch pass (``_evaluate`` itself is now a batch of one)."""
    outcomes = []
    for design, workload in jobs:
        try:
            mapping = design.mapping_for(workload)
            result = evaluator._evaluate_mapping(design, workload, mapping)
        except ReproError as exc:
            outcomes.append((None, exc))
        else:
            outcomes.append((result, None))
    return outcomes


@pytest.mark.parametrize("memos", ["per-call", None])
@pytest.mark.parametrize("name,design", FAMILIES, ids=FAMILY_IDS)
def test_batch_matches_serial_oracle(name, design, memos):
    """Batches — with per-call walk memos, or with none, which flushes
    every walk context in one pass — match the serial oracle."""
    oracle, stacked = Evaluator(), Evaluator()
    expected = _oracle(oracle, _jobs(design))
    if memos is None:
        got = stacked._evaluate_batch(_jobs(design), memos=None)
    else:
        got = stacked._evaluate_batch(_jobs(design))
    assert _summary(got) == _summary(expected), name
    assert _counts(stacked) == _counts(oracle), name
    single = Evaluator()
    assert _summary(_serial(single, _jobs(design))) == _summary(expected)
    assert _counts(single) == _counts(oracle), name


def _failing_sparse_batch(monkeypatch, fail_on_call):
    """Make the engine's stacked sparse backend raise ``ValidationError``
    on its ``fail_on_call``-th call (1-based); earlier calls run."""
    real = engine.analyze_sparse_batch
    calls = []

    def flaky(jobs, **kwargs):
        calls.append(len(jobs))
        if len(calls) == fail_on_call:
            raise ValidationError("injected stacked sparse failure")
        return real(jobs, **kwargs)

    monkeypatch.setattr(engine, "analyze_sparse_batch", flaky)
    return calls


class TestFailedSparseFlushAccounting:
    """After a failed stacked sparse flush the batch recounts through
    the serial oracle with the aborted attempt's accounting rolled back
    and nothing installed, so counts equal the serial loop's."""

    def _check(self, monkeypatch, jobs, fail_on_call, sparse_counts):
        serial = Evaluator()
        expected = _serial(serial, jobs)
        assert _counts(serial)["sparse"] == sparse_counts
        calls = _failing_sparse_batch(monkeypatch, fail_on_call)
        stacked = Evaluator()
        got = stacked._evaluate_batch(jobs)
        assert len(calls) == fail_on_call
        assert _summary(got) == _summary(expected)
        assert _counts(stacked) == _counts(serial)

    def test_single_job(self, monkeypatch):
        design, workload = load_design(FULL_SPEC)
        self._check(monkeypatch, [(design, workload)], 1, (0, 1))

    def test_second_walk_context_fails(self, monkeypatch):
        design, workload = load_design(FULL_SPEC)
        variant = Workload.uniform(
            workload.einsum,
            {
                name: model.density / 2
                for name, model in workload.densities.items()
            },
        )
        self._check(
            monkeypatch, [(design, workload), (design, variant)], 2, (0, 2)
        )


def _search_design():
    spec = yaml.safe_load(FULL_SPEC)
    del spec["mapping"]
    spec["constraints"] = {"spatial_dims": {"Buffer": ["n"]}}
    design, workload = load_design(spec)
    mapper = Mapper(workload.einsum, design.arch, design.constraints)
    candidates = list(mapper.sample_mappings(24, seed=0))
    return design, workload, candidates


def _poison(monkeypatch, mapping, error_type):
    """Make ``mapping``'s dense analysis raise ``error_type`` in both
    the stacked backend and the scalar oracle, as a candidate the model
    genuinely rejects would."""
    poisoned = mapping.cache_key()
    real_batch = engine.analyze_dataflow_batch
    real_scalar = nest_analysis.analyze_dataflow

    def check(candidate):
        if candidate.cache_key() == poisoned:
            raise error_type("injected dense failure")

    def batch(jobs, **kwargs):
        jobs = list(jobs)
        for _workload, _arch, candidate in jobs:
            check(candidate)
        return real_batch(jobs, **kwargs)

    def scalar(workload, arch, candidate):
        check(candidate)
        return real_scalar(workload, arch, candidate)

    monkeypatch.setattr(engine, "analyze_dataflow_batch", batch)
    monkeypatch.setattr(engine, "analyze_dataflow", scalar)
    monkeypatch.setattr(nest_analysis, "analyze_dataflow", scalar)


class TestSearchErrorPropagation:
    def _search(self, design, workload, candidates, strategy="batched"):
        with Session() as session:
            return session.search(
                design, workload, candidates=candidates,
                strategy=strategy, batch_size=8,
            )

    def test_spec_error_propagates(self, monkeypatch):
        design, workload, candidates = _search_design()
        clean = self._search(design, workload, candidates)
        assert clean.found
        _poison(monkeypatch, clean.best.dense.mapping, SpecError)
        with pytest.raises(SpecError, match="injected"):
            self._search(design, workload, candidates)

    @pytest.mark.parametrize("error_type", [ValidationError, MappingError])
    def test_expected_errors_are_skipped(self, monkeypatch, error_type):
        design, workload, candidates = _search_design()
        clean = self._search(design, workload, candidates)
        _poison(monkeypatch, clean.best.dense.mapping, error_type)
        batched = self._search(design, workload, candidates)
        serial = self._search(design, workload, candidates, "serial")
        assert batched.found
        assert batched.best_index != clean.best_index
        assert clean.best_index not in {p.index for p in batched.frontier}
        assert batched.best_index == serial.best_index
        assert batched.best.to_dict() == serial.best.to_dict()
