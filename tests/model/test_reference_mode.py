"""The engine's one reference mode, :attr:`Evaluator.reference`.

Its default comes from the ``REPRO_REFERENCE`` environment variable,
read once at import; an explicit field value ships to pool workers
with the evaluator.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import Evaluator, Workload, matmul
from repro.designs import codesign

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "value,expected",
    [("1", True), ("", False), ("0", False), ("false", False),
     ("no", False), ("off", False)],
)
def test_environment_sets_the_default(value, expected):
    env = dict(os.environ, REPRO_REFERENCE=value)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.model.engine import Evaluator; "
         "print(Evaluator().reference)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == str(expected)


def test_pooled_reference_matches_in_process(monkeypatch):
    jobs = []
    for density in (0.05, 0.3):
        workload = Workload.uniform(
            matmul(64, 64, 64), {"A": density, "B": density}
        )
        for dataflow, saf in codesign.ALL_COMBINATIONS[:3]:
            jobs.append((codesign.build_design(dataflow, saf), workload))
    shipped = []
    run_pool = Evaluator._run_pool

    def spy(self, worker_fn, payloads, exclude_stages=(), shared=None):
        shipped.append(shared["evaluator"].reference)
        return run_pool(self, worker_fn, payloads, exclude_stages, shared)

    monkeypatch.setattr(Evaluator, "_run_pool", spy)
    in_process = Evaluator(reference=True)._evaluate_many(jobs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no fallback
        pooled = Evaluator(reference=True)._evaluate_many(jobs, parallel=2)
    assert shipped == [True]
    assert len(pooled) == len(in_process) == len(jobs)
    for (got, got_error), (want, want_error) in zip(pooled, in_process):
        assert got_error is None and want_error is None
        assert got.to_dict() == want.to_dict()
