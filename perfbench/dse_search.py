"""``dse-search``: cold batched mapspace search fanned out over a
process pool.

One unit is a DSE step: a fresh ``Session(parallel=2)`` searches the
three SAF variants of one small sparse accelerator (dense, gated
compressed-A, double-sided skip) for a matmul, each with a budget of
``BUDGET`` sampled mappings drawn with the unit's seeded sampling seed.
The three variants share one mapspace, so the step samples it once and
replays the stream. An op is one candidate mapping; an op's latency is
its search's wall time divided by the candidates it scanned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from common import FAILED_LATENCY_S, Phase, evaluation_stats

from repro import Design, SAFSpec, Session, Workload, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import ReproError
from repro.mapping.mapspace import MapspaceConstraints
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, gate_compute, skip_compute

#: Sampled mappings per design per step.
BUDGET = 1024
#: Engine worker processes per search.
PARALLEL = 2
#: Steps whose winners the digest covers (always run).
DIGEST_UNITS = 1
#: Budget of the parallel-vs-serial winner check.
CHECK_BUDGET = 96


def dse_designs() -> tuple[list[Design], Workload]:
    """Three SAF variants of one two-level accelerator (16 MACs, 16 Ki
    words of buffer), plus the matmul they are searched on."""
    arch = Architecture(
        "perf-dse",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", 16 * 1024, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=16),
    )
    workload = Workload.uniform(matmul(128, 128, 128), {"A": 0.2, "B": 0.2})
    cp2 = FormatSpec([FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())])
    saf_choices = [
        SAFSpec(),
        SAFSpec(
            formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
            compute_safs=[gate_compute()],
        ),
        SAFSpec(
            formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
            storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
            compute_safs=[skip_compute()],
        ),
    ]
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
    designs = [
        Design(f"dse-{index}", arch, safs, constraints=constraints)
        for index, safs in enumerate(saf_choices)
    ]
    return designs, workload


@dataclass
class State:
    seed: int
    designs: list
    workload: Workload


def setup(ctx) -> State:
    designs, workload = dse_designs()
    # Boot one pool so the timed phase measures steady-state fan-out.
    with Session(parallel=PARALLEL) as session:
        session.search(designs[0], workload, budget=32, seed=0)
    return State(ctx.seed, designs, workload)


def dispose(state: State) -> None:
    pass


def unit_seed(state: State, index: int) -> int:
    return random.Random(f"dse-search:{state.seed}:{index}").randrange(2**31)


def run(
    state: State, ctx, seconds: float | None = None, units: int | None = None,
    first: int = 0,
) -> Phase:
    """DSE steps ``first, first + 1, ...`` until ``seconds`` have
    elapsed (at least ``DIGEST_UNITS``) or ``units`` steps are done."""
    phase = Phase()
    macs_per_candidate = state.workload.einsum.total_operations
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    while (
        phase.units < units if units is not None
        else phase.units < DIGEST_UNITS or time.perf_counter() < deadline
    ):
        mark = phase.unit_start()
        seed = unit_seed(state, first + phase.units)
        begin = ctx.cache_begin()
        session = Session(parallel=PARALLEL)
        for design in state.designs:
            if ctx.tracer is not None:
                ctx.tracer.set_op(phase.attempted)
            phase.attempted += BUDGET
            t0 = time.perf_counter()
            try:
                result = session.search(
                    design, state.workload, budget=BUDGET, seed=seed
                )
            except ReproError:
                result = None
            elapsed = time.perf_counter() - t0
            if result is None or result.best is None:  # no valid mapping
                phase.failed += BUDGET
                phase.latencies.append(FAILED_LATENCY_S)
                continue
            phase.latencies.append(elapsed / BUDGET)
            phase.macs += BUDGET * macs_per_candidate
            frontier = len(result.frontier) if result.frontier is not None else 0
            if ctx.tracing:
                ctx.tracer.counts["search.frontier_points"] += frontier
            if phase.units < DIGEST_UNITS:
                phase.digest_stats.append({
                    "design": design.name,
                    "best_index": result.best_index,
                    "frontier_points": frontier,
                    "best": evaluation_stats(result.best),
                })
        session.close()
        ctx.cache_end(session, begin)
        phase.unit_end(mark)
    phase.wall = time.perf_counter() - start
    phase.extra["first_seed"] = unit_seed(state, first)
    return phase


def _winner(result):
    """The winning mapping and its statistics. The candidate index is
    left out: the pooled path numbers the full sampled stream while the
    in-process scans skip draws the mapper pruned, so the same winner
    can carry different indices."""
    best = result.best
    return (best.cycles, best.energy_pj, best.dense.mapping.cache_key(), result.best_score)


def check(state: State, phase: Phase) -> list[str]:
    """Parallel batched winners must equal a serial search's on a small
    sub-budget with the phase's first sampling seed."""
    problems = []
    seed = phase.extra["first_seed"]
    with Session(parallel=PARALLEL) as fast, Session() as serial:
        for design in state.designs:
            got = fast.search(design, state.workload, budget=CHECK_BUDGET, seed=seed)
            want = serial.search(
                design, state.workload, budget=CHECK_BUDGET, seed=seed,
                strategy="serial",
            )
            if _winner(got) != _winner(want):
                problems.append(
                    f"{design.name}: parallel batched winner differs from "
                    "the serial search"
                )
    return problems
