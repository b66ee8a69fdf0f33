"""Shared plumbing for the host-speed benchmark: paths, statistics,
result digests, the host-noise probe and the result line.

Every workload module exposes the same three functions, which
``run.py`` drives:

* ``setup(ctx)`` builds the inputs from ``ctx.seed`` and returns a
  state object, which ``dispose(state)`` releases (``run.py`` also
  times ``SETUP_REPEATS`` set-ups in fresh processes for ``setup_s``);
* ``run(state, ctx, seconds=..., units=...)`` is the timed phase: it
  runs whole units (a pass, a search round, a replay round, a served
  job) until ``seconds`` have elapsed or ``units`` are done, and
  returns a :class:`Phase`;
* ``check(state, phase)`` re-derives a sample of the phase's results
  another way, outside the timed phase, and returns failure messages.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, sockets and child outputs; each run works
#: in its own subdirectory and removes it at exit.
SCRATCH = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
#: Chrome trace files written by traced runs.
TRACE_DIR = ROOT / ".perfbench_out"

#: Nominal host frequency that turns wall time into host cycles for the
#: CPHC metric (Sec 6.2 of the paper; the same constant the paper
#: benches under ``benchmarks/`` use).
HOST_HZ = 2.5e9

#: Set-ups timed per run, each in a fresh process; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3

#: Latency recorded for an op that failed, timed out or was refused, so
#: that it misses every latency limit below it.
FAILED_LATENCY_S = 30.0

#: Latency percentile reported as ``op_ms_p99``, and how many samples
#: must lie beyond it for it to be a true tail percentile.
TAIL_PERCENTILE = 99.0
TAIL_MIN_BEYOND = 10


def make_scratch(prefix: str) -> Path:
    """A fresh directory under :data:`SCRATCH` (inside the checkout)."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:  # another run's directory, or already gone
        pass


@dataclass
class Context:
    """What one run of one workload was asked to do."""

    workload: str
    seed: int
    trace: bool
    tracer: object = None  #: a ``trace.Tracer`` in traced runs, else None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def cache_begin(self):
        """Checkpoint of the process-global cache stages at the start
        of a unit (traced runs only)."""
        if not self.tracing:
            return None
        from trace_hooks import cache_counts

        return cache_counts()

    def cache_end(self, session, begin) -> None:
        """Add one unit's cache traffic — ``session``'s stages (a fresh
        Session per unit) plus the global stages since ``begin`` — to
        the tracer's counts."""
        if begin is None or not self.tracing:
            return
        from trace_hooks import cache_counts

        self.tracer.counts.update(cache_counts(session) - begin)


@dataclass
class Phase:
    """What one timed phase did.

    ``latencies`` are per-op seconds, ``macs`` the simulated
    multiply-accumulates of the completed ops, ``units`` the whole
    units run (the replay handle for :func:`run` ``units=``), and
    ``rates`` one ``(ops completed, MACs, seconds)`` sample per unit
    (per second of the phase for ``serve-mixed``), whose medians give
    the throughput metrics.
    """

    wall: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    macs: float = 0.0
    latencies: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    #: Simulated statistics of the seeded result prefix, in op order;
    #: ``result_digest`` hashes these.
    digest_stats: list = field(default_factory=list)
    #: Workload-specific extras (sample inputs for checks, counters).
    extra: dict = field(default_factory=dict)

    def unit_start(self) -> tuple:
        return (time.perf_counter(), self.attempted - self.failed, self.macs)

    def unit_end(self, mark: tuple, paused: float = 0.0) -> None:
        """Close the unit opened by :meth:`unit_start`; ``paused``
        seconds inside it (bookkeeping) are not part of its time."""
        start, completed, macs = mark
        self.rates.append((
            self.attempted - self.failed - completed,
            self.macs - macs,
            time.perf_counter() - start - paused,
        ))
        self.units += 1


def reset_process_memos() -> None:
    """Forget what earlier units derived in this process: the
    process-global cache stages and the density-kernel memos. A unit
    that starts with this pays the analysis a fresh process would."""
    from repro.common.cache import global_cache
    from repro.sparse import density

    global_cache().clear()
    for obj in vars(density).values():
        if callable(obj) and hasattr(obj, "cache_clear"):
            obj.cache_clear()


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(samples: int) -> float:
    """``TAIL_PERCENTILE``, or the highest whole percentile that leaves
    ``TAIL_MIN_BEYOND`` samples beyond it when there are too few
    samples for that (the median at the very least)."""
    if samples <= 0:
        return TAIL_PERCENTILE
    reachable = math.floor(100.0 * (samples - TAIL_MIN_BEYOND) / samples)
    return float(max(50, min(TAIL_PERCENTILE, reachable)))


def latency_report(latencies: list) -> dict:
    """Median and tail latency in ms, with the sample counts behind
    them: ``tail_q`` is the percentile reported as the tail and
    ``beyond`` how many samples exceed it."""
    ordered = sorted(latencies)
    q = tail_percentile(len(ordered))
    tail = percentile(ordered, q)
    return {
        "p50_ms": percentile(ordered, 50.0) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_q": q,
        "samples": len(ordered),
        "beyond": sum(1 for value in ordered if value > tail),
    }


def evaluation_stats(result) -> dict:
    """The simulated statistics a digest covers for one evaluation:
    cycles, energy, and the full per-level sparse action counts,
    latency and energy breakdowns of its ``schema: 1`` envelope."""
    data = result.to_dict(fields=("sparse", "latency", "energy"))
    data["cycles"] = result.cycles
    data["energy_pj"] = result.energy_pj
    return data


def digest(stats: list) -> str:
    """Order-sensitive hash of a list of plain-JSON statistics."""
    hasher = hashlib.blake2b(digest_size=16)
    for item in stats:
        hasher.update(
            json.dumps(item, sort_keys=True, separators=(",", ":")).encode()
        )
        hasher.update(b"\n")
    return hasher.hexdigest()


#: Iterations of the host-noise probe loop.
CALIBRATION_ITERATIONS = 1_500_000


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: a host-speed probe
    that no change to the program can move."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total = (total + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if total < 0:  # keep the loop's result live
        raise AssertionError("unreachable")
    return elapsed


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    """Human-readable progress on stdout (the result line comes last)."""
    print(message, flush=True)


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)
