"""``persistent-sweep``: the Fig. 17 co-design sweep replayed from the
persistent cache tier.

Set-up fills one ``PersistentCache`` per sweep size in a scratch
directory, from a child process: for each size in ``SWEEP_SIZES``, one
cold Session runs the sweep (every dataflow x SAF combination of
``repro.designs.codesign`` at that many seeded operand densities on a
1024^3 matmul) and closes, which spills the whole cache under each of
the sweep's (design, workload) content keys. One timed unit is a replay
cycle: for each store in turn, the process-global memos are cleared and
a fresh Session that warm-starts from the store runs the same sweep. An
op is one sweep evaluation; each one loads and installs the snapshot of
its content key, so an op's cost grows with its sweep's size, and a
sweep's with the square of it.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    FAILED_LATENCY_S,
    HERE,
    Phase,
    digest,
    evaluation_stats,
    make_scratch,
    remove_tree,
    reset_process_memos,
)

from trace_hooks import Tracer

from repro import Session, Workload, matmul
from repro.common.cache import PersistentCache
from repro.common.errors import ReproError
from repro.designs import codesign

#: Seeded operand densities per sweep, one store per entry. Sweeps of
#: several sizes spread the ops' costs, so the latency percentiles move
#: smoothly with the host's speed instead of jumping between the modes
#: of a single op cost.
SWEEP_SIZES = (2, 3, 4, 5, 6, 7, 8)
DENSITY_RANGE = (1e-4, 0.3)
SHAPE = (1024, 1024, 1024)
FILL_TIMEOUT_S = 120.0


def sweep_points(seed: int, size: int) -> list[tuple]:
    """``(design, workload)`` for every combination at each of ``size``
    seeded densities, density-major like the paper's sweep. The density
    range is cut into ``size`` equal log-width bins and one density is
    drawn in each, so every seed sweeps the same regimes."""
    rng = random.Random(f"persistent-sweep:{seed}:{size}")
    low, high = (math.log10(bound) for bound in DENSITY_RANGE)
    width = (high - low) / size
    densities = [
        round(10 ** (low + width * (index + rng.random())), 8)
        for index in range(size)
    ]
    designs = [codesign.build_design(df, saf) for df, saf in codesign.ALL_COMBINATIONS]
    points = []
    for value in densities:
        workload = Workload.uniform(matmul(*SHAPE), {"A": value, "B": value})
        points.extend((design, workload) for design in designs)
    return points


def store_listing(root: Path) -> list:
    return sorted(
        (str(path.relative_to(root)), path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*") if path.is_file()
    )


@dataclass
class State:
    seed: int
    #: (store root, sweep points, cold-fill digest) per sweep size
    stores: list
    scratch: Path


def setup(ctx) -> State:
    """Fill the stores from a child process (which also keeps the timed
    phase from inheriting any memo the fill derived)."""
    scratch = make_scratch("store-")
    command = [sys.executable, str(HERE / "fill_store.py"),
               "--root", str(scratch), "--seed", str(ctx.seed)]
    if ctx.trace:
        command += ["--trace-out", str(scratch / "fill-trace.json")]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=FILL_TIMEOUT_S)
    if proc.returncode != 0:
        remove_tree(scratch)
        raise RuntimeError(f"store fill failed:\n{proc.stdout}{proc.stderr}")
    digests = json.loads(proc.stdout.strip().splitlines()[-1])["digests"]
    stores = [
        (store_root(scratch, size), sweep_points(ctx.seed, size), digests[str(size)])
        for size in SWEEP_SIZES
    ]
    if ctx.trace:
        # The store is written here, in set-up, so the traced run takes
        # the persistent.store metrics from the fill.
        fill, _since = Tracer.load(scratch / "fill-trace.json")
        ctx.tracer.counts.update({
            name: value for name, value in fill.counts.items()
            if name.startswith("persistent.store.")
        })
        ctx.tracer.counts["persistent.store.s"] += fill.inclusive().get(
            "persistent.store", 0.0
        )
    return State(ctx.seed, stores, scratch)


def store_root(scratch: Path, size: int) -> Path:
    return scratch / f"sweep-{size}"


def dispose(state: State) -> None:
    remove_tree(state.scratch)


def run(
    state: State, ctx, seconds: float | None = None, units: int | None = None,
    first: int = 0,
) -> Phase:
    """Replay cycles until ``seconds`` have elapsed (at least one) or
    ``units`` cycles are done. Every cycle replays the same sweeps, so
    ``first`` changes nothing."""
    phase = Phase()
    macs = SHAPE[0] * SHAPE[1] * SHAPE[2]
    before = [store_listing(root) for root, _points, _digest in state.stores]
    digests = phase.extra["replay_digests"] = []
    start = time.perf_counter()
    paused = 0.0  # digesting between replays is not part of the phase
    while (
        phase.units < units if units is not None
        else phase.units < 1 or time.perf_counter() - paused < start + (seconds or 0.0)
    ):
        mark = phase.unit_start()
        cycle_paused = paused
        for root, points, cold in state.stores:
            reset_process_memos()
            begin = ctx.cache_begin()
            session = Session(persistent=PersistentCache(root=root))
            results = []
            for design, workload in points:
                if ctx.tracer is not None:
                    ctx.tracer.set_op(phase.attempted)
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = session.evaluate(design, workload)
                except ReproError:
                    phase.failed += 1
                    phase.latencies.append(FAILED_LATENCY_S)
                    continue
                phase.latencies.append(time.perf_counter() - t0)
                phase.macs += macs
                results.append(result)
            session.close()
            ctx.cache_end(session, begin)
            t0 = time.perf_counter()
            stats = [evaluation_stats(r) for r in results]
            if phase.units == 0:
                phase.digest_stats.extend(stats)
            digests.append((cold, digest(stats)))
            paused += time.perf_counter() - t0
        phase.unit_end(mark, paused - cycle_paused)
    phase.wall = time.perf_counter() - start - paused
    phase.extra["store_changed"] = before != [
        store_listing(root) for root, _points, _digest in state.stores
    ]
    return phase


def check(state: State, phase: Phase) -> list[str]:
    """Every warm replay must reproduce its cold fill's results, and
    replaying must leave the stores untouched (fully warm)."""
    problems = [
        f"replay {index} differs from its cold fill"
        for index, (cold, warm) in enumerate(phase.extra["replay_digests"])
        if cold != warm
    ]
    if phase.extra["store_changed"]:
        problems.append("the warm replay rewrote a persistent store")
    return problems
