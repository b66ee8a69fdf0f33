"""``serve-mixed``: a ``repro serve --cold`` daemon on a unix socket,
driven in a closed loop.

One generator process opens ``CONNECTIONS`` connections, one thread
each; every thread keeps ``WINDOW`` evaluate jobs outstanding and
submits the next one only when its oldest completes, because the
daemon's callers (DSE scripts, the CLI) wait on replies. Half the jobs
repeat a small hot set of mappings (cache hits after the first); the
other half are fresh seeded (mapping, workload) pairs drawn without
repetition from the enumerated mapspace of a sparse accelerator. Jobs
ask for full result envelopes, so the job and result codecs both run.
An op is one served job, timed from submit to result.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from common import (
    FAILED_LATENCY_S,
    HERE,
    ROOT,
    Phase,
    evaluation_stats,
    make_scratch,
    peak_rss_mb,
    remove_tree,
)

from trace_hooks import Tracer

from repro import Design, SAFSpec, Session, Workload, matmul
from repro.api import EvaluateJob, connect
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import ReproError
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, skip_compute

CONNECTIONS = 2
#: Outstanding jobs per connection.
WINDOW = 8
#: Distinct mappings in the hot set.
HOT_SET = 16
#: Share of jobs drawn from the hot set.
HOT_SHARE = 0.5
#: Jobs served per second of ``--seconds``. The run serves a fixed
#: job count instead of stopping at a deadline: the daemon's heap, and
#: with it the length of its full garbage collections, grows with every
#: fresh job it caches, so a deadline would tie the tail latency to how
#: fast the host happened to be.
JOBS_PER_SECOND = 700
#: A run stops submitting after this many times ``--seconds`` even if
#: jobs remain, which bounds its duration on a slow host.
OVERRUN_FACTOR = 6
#: Jobs planned per run; more than any run serves.
PLANNED_JOBS = 60_000
#: Jobs whose results the digest covers (always run).
DIGEST_JOBS = 400
#: Digest jobs re-evaluated in-process by the check.
CHECK_SAMPLES = 16
#: Consecutive completions per throughput sample.
JOBS_PER_RATE_SAMPLE = 500
#: Seconds a job may take before it counts as failed.
RESULT_TIMEOUT_S = FAILED_LATENCY_S
BOOT_TIMEOUT_S = 60.0


def serve_design() -> tuple[Design, Workload, Mapper]:
    """A two-level sparse accelerator with double-sided skipping, its
    matmul workload and mapper."""
    arch = Architecture(
        "serve-dse",
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
    safs = SAFSpec(
        formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
        storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
        compute_safs=[skip_compute()],
    )
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
    design = Design("serve-dse", arch, safs, constraints=constraints)
    return design, workload, Mapper(workload.einsum, arch, constraints)


@dataclass
class State:
    seed: int
    design: Design
    workloads: list
    mappings: list
    #: job index -> (mapping index, workload index)
    plan: list
    scratch: Path
    proc: subprocess.Popen
    sock: str
    trace_out: Path | None


def make_plan(seed: int, mappings: int, workloads: int) -> list:
    """Seeded job plan: hot jobs pick one of the first ``HOT_SET``
    mappings under workload 0; fresh jobs walk the remaining
    (mapping, workload) pairs in order, so none repeats until all are
    used."""
    rng = random.Random(f"serve-mixed-plan:{seed}")
    fresh = [(m, w) for w in range(workloads) for m in range(HOT_SET, mappings)]
    plan, used = [], 0
    for _ in range(PLANNED_JOBS):
        if rng.random() < HOT_SHARE:
            plan.append((rng.randrange(HOT_SET), 0))
        else:
            plan.append(fresh[used % len(fresh)])
            used += 1
    return plan


def boot(scratch: Path, trace: bool) -> tuple[subprocess.Popen, str, Path | None]:
    """Start the daemon; returns once it prints ``ready``."""
    sock = str((scratch / "d.sock").relative_to(ROOT))
    log_path = scratch / "daemon.log"
    serve_args = ["serve", "--unix", sock, "--no-capacity-check", "--cold"]
    trace_out = None
    if trace:
        trace_out = scratch / "daemon-trace.json"
        command = [sys.executable, str(HERE / "serve_boot.py"),
                   "--trace-out", str(trace_out), *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    with open(log_path, "wb") as log_file:
        proc = subprocess.Popen(command, cwd=ROOT, stdout=log_file, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while b"ready\n" not in log_path.read_bytes():
        if proc.poll() is not None or time.monotonic() > deadline:
            stop(proc)
            raise RuntimeError(
                "daemon did not become ready:\n" + log_path.read_text(errors="replace")
            )
        time.sleep(0.005)
    return proc, sock, trace_out


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def setup(ctx) -> State:
    design, base, mapper = serve_design()
    rng = random.Random(f"serve-mixed:{ctx.seed}")
    workloads = [
        Workload.uniform(base.einsum, {"A": d, "B": d})
        for d in (round(rng.uniform(0.1, 0.3), 4), round(rng.uniform(0.3, 0.5), 4))
    ]
    mappings = list(mapper.enumerate_mappings())
    rng.shuffle(mappings)
    plan = make_plan(ctx.seed, len(mappings), len(workloads))
    scratch = make_scratch("serve-")
    proc, sock, trace_out = boot(scratch, ctx.trace)
    state = State(ctx.seed, design, workloads, mappings, plan, scratch, proc, sock,
                  trace_out)
    try:
        with connect(sock) as remote:  # first numpy dispatch, off the clock
            remote.evaluate(design, workloads[0], mappings[0])
    except BaseException:
        dispose(state)
        raise
    return state


def dispose(state: State) -> None:
    stop(state.proc)
    remove_tree(state.scratch)


def job(state: State, index: int) -> EvaluateJob:
    mapping, workload = state.plan[index % PLANNED_JOBS]
    return EvaluateJob(state.design, state.workloads[workload], state.mappings[mapping])


def _server_stats(state: State) -> dict:
    with connect(state.sock) as remote:
        return remote.server_stats(timeout=30)


def _signal(state: State, signum: int) -> None:
    """Toggle daemon-side recording; the ping round trip makes sure the
    handler has run before the caller goes on."""
    os.kill(state.proc.pid, signum)
    with connect(state.sock) as remote:
        remote.ping(timeout=30)


def run(
    state: State, ctx, seconds: float | None = None, units: int | None = None,
    first: int = 0,
) -> Phase:
    """Jobs ``first, first + 1, ...`` over ``CONNECTIONS`` closed-loop
    connections: ``JOBS_PER_SECOND * seconds`` jobs (at least
    ``DIGEST_JOBS``), or ``units`` jobs."""
    phase = Phase()
    if units is None:
        units = max(DIGEST_JOBS, round(JOBS_PER_SECOND * seconds))
    overrun = OVERRUN_FACTOR * (seconds or units / JOBS_PER_SECOND)
    tracing = ctx.tracing
    if tracing:
        _signal(state, signal.SIGUSR1)
    before = _server_stats(state)
    start = time.perf_counter()
    deadline = start + overrun
    results: dict = {}
    lanes = [
        dict(attempted=0, failed=0, latencies=[], ends=[], error=None)
        for _ in range(CONNECTIONS)
    ]

    def wanted(index: int) -> bool:
        return index < first + units and time.perf_counter() < deadline

    def drive(lane: int) -> None:
        stats = lanes[lane]
        try:
            with connect(state.sock) as remote:
                inflight: deque = deque()
                index = first + lane
                while True:
                    while len(inflight) < WINDOW and wanted(index):
                        if ctx.tracer is not None:
                            ctx.tracer.set_op(index)
                        payload = job(state, index)
                        t0 = time.perf_counter()
                        inflight.append((index, t0, remote.submit(payload)))
                        stats["attempted"] += 1
                        index += CONNECTIONS
                    if not inflight:
                        return
                    done, t0, handle = inflight.popleft()
                    try:
                        result = handle.result(timeout=RESULT_TIMEOUT_S)
                    except (ReproError, TimeoutError):
                        stats["failed"] += 1
                        stats["latencies"].append(FAILED_LATENCY_S)
                        continue
                    end = time.perf_counter()
                    stats["latencies"].append(end - t0)
                    stats["ends"].append(end)
                    if done - first < DIGEST_JOBS:
                        results[done - first] = result
        except BaseException as exc:  # reported by the main thread
            stats["error"] = exc

    threads = [threading.Thread(target=drive, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall = time.perf_counter() - start
    for stats in lanes:
        if stats["error"] is not None:
            raise stats["error"]
        phase.attempted += stats["attempted"]
        phase.failed += stats["failed"]
        phase.latencies.extend(stats["latencies"])
    phase.units = phase.attempted
    macs = state.workloads[0].einsum.total_operations
    phase.macs = (phase.attempted - phase.failed) * macs
    phase.rates = completion_rates(
        sorted(end for stats in lanes for end in stats["ends"]), start, macs
    )
    after = _server_stats(state)
    phase.extra["peer_rss_mb"] = peak_rss_mb(state.proc.pid)
    phase.extra["results"] = results
    phase.extra["first"] = first
    if len(results) == DIGEST_JOBS:
        phase.digest_stats = [evaluation_stats(results[i]) for i in range(DIGEST_JOBS)]
    if tracing:
        jobs = after["evaluate_jobs"] - before["evaluate_jobs"]
        batches = after["evaluate_batches"] - before["evaluate_batches"]
        engine_s = after["engine_seconds"] - before["engine_seconds"]
        counts = ctx.tracer.counts
        counts["serve.batches"] += batches
        counts["serve.batch_mean"] += jobs / batches if batches else 0.0
        counts["serve.engine_s"] += engine_s
        if jobs and phase.latencies:
            counts["serve.wait_s"] += (
                sum(phase.latencies) / len(phase.latencies) - engine_s / jobs
            )
        _signal(state, signal.SIGUSR2)
        phase.extra["peer_tracers"] = [Tracer.load(state.trace_out)]
    return phase


def completion_rates(ends: list, start: float, macs: int) -> list:
    """``(jobs, MACs, seconds)`` for each run of ``JOBS_PER_RATE_SAMPLE``
    consecutive completions (``ends`` ascending; a shorter tail run is
    dropped unless it is the only one)."""
    size = min(JOBS_PER_RATE_SAMPLE, len(ends))
    samples, previous = [], start
    for index in range(size - 1, len(ends), size):
        samples.append((size, size * macs, ends[index] - previous))
        previous = ends[index]
    return samples


def check(state: State, phase: Phase) -> list[str]:
    """A seeded sample of the digest jobs' replies must equal
    in-process ``Session.evaluate`` bit for bit."""
    results = phase.extra["results"]
    if len(results) != DIGEST_JOBS:
        return [f"only {len(results)} of the first {DIGEST_JOBS} jobs returned a result"]
    problems = []
    sample = random.Random(f"serve-mixed-check:{state.seed}").sample(
        range(DIGEST_JOBS), CHECK_SAMPLES
    )
    local = Session(check_capacity=False)
    for offset in sample:
        want = job(state, phase.extra["first"] + offset)
        expected = local.evaluate(want.design, want.workload, want.mapping)
        if expected.to_dict() != results[offset].to_dict():
            problems.append(f"job {offset}: served result differs from in-process evaluate")
    return problems
