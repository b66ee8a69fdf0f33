"""The engine's private entry points against the ``Session`` façade.

``Evaluator._evaluate``, ``_evaluate_many`` and ``_search_mappings``
are the implementations the Session submits to, so each must return
results bit-identical to the façade call it backs.
"""

from __future__ import annotations

from repro import Evaluator, Session, load_design
from tests.io.test_yaml_spec import FULL_SPEC


class TestEntryPointsMatchSession:
    def test_evaluate_matches_session(self):
        design, workload = load_design(FULL_SPEC)
        engine = Evaluator()._evaluate(design, workload)
        with Session() as session:
            new = session.evaluate(design, workload)
        assert engine.to_dict() == new.to_dict()

    def test_evaluate_many_matches_submit_many(self):
        design, workload = load_design(FULL_SPEC)
        jobs = [(design, workload)] * 3
        outcomes = Evaluator()._evaluate_many(jobs)
        assert all(error is None for _result, error in outcomes)
        with Session() as session:
            handles = session.submit_many(jobs)
            new = [h.result() for h in handles]
        assert [r.to_dict() for r, _error in outcomes] == [
            r.to_dict() for r in new
        ]

    def test_search_matches_session_search(self):
        design, workload = load_design(FULL_SPEC)
        candidates = [design.mapping]
        engine = Evaluator()._search_mappings(
            design, workload, candidates=candidates
        )
        with Session() as session:
            new = session.search(design, workload, candidates=candidates)
        assert engine.to_dict() == new.best.to_dict()
