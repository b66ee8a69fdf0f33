"""Host-speed benchmark of the Sparseloop reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload table5-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, runs its
timed phase for ``--seconds`` with tracing off, re-checks a sample of
the results outside the timed phase and prints the end-to-end metrics.
``--trace 1`` runs the timed phase untraced for a third of the time,
then the same number of units (fresh seeded inputs) with every layer
hook recording, then untraced again, and prints the per-layer metrics
of the traced part; the Chrome trace lands in
``.perfbench_out/``. ``--workload all`` runs the four workloads, each
in a fresh process. The last stdout line is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when a correctness check fails. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import (
    HOST_HZ,
    ROOT,
    SETUP_REPEATS,
    SRC,
    TRACE_DIR,
    Context,
    calibrate,
    digest,
    fail,
    latency_report,
    log,
    peak_rss_mb,
    remove_scratch,
)

WORKLOADS = {
    "table5-cold": "table5_cold",
    "dse-search": "dse_search",
    "serve-mixed": "serve_mixed",
    "persistent-sweep": "persistent_sweep",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "cphc": "computes/cycle",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: import and set the workload up once, print the seconds.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def setup_probe(args) -> int:
    """One set-up from a fresh interpreter: import the workload and
    build its inputs (daemon boot and store fill included)."""
    start = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    state = module.setup(Context(args.workload, args.seed, False))
    elapsed = time.perf_counter() - start
    module.dispose(state)
    print(f"setup_s {elapsed!r}", flush=True)
    return 0


def median_setup_s(args) -> float:
    """Median of ``SETUP_REPEATS`` set-ups, each in a fresh process so
    that imports and process-level memos count every time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_s "):
            raise RuntimeError(f"set-up probe failed:\n{proc.stdout}{proc.stderr}")
        samples.append(float(lines[-1].split()[1]))
    return statistics.median(samples)


def report_phase(phase) -> dict:
    """End-to-end metrics of one untraced timed phase."""
    completed = phase.attempted - phase.failed
    lat = latency_report(phase.latencies)
    log(f"ops: {completed} completed of {phase.attempted} attempted in "
        f"{phase.units} units over {phase.wall:.3f}s")
    log(f"failed_frac: {phase.failed / phase.attempted:.6f} ratio")
    log(f"latency samples: {lat['samples']}; op_ms_p99 is the nearest-rank "
        f"p{lat['tail_q']:g} with {lat['beyond']} samples beyond it")
    log(f"whole-phase means: {completed / phase.wall:.6g} ops/s, "
        f"{phase.macs / (phase.wall * HOST_HZ):.6g} computes/cycle "
        f"(reported: medians over {len(phase.rates)} rate samples)")
    return {
        "ops_per_s": statistics.median(ops / sec for ops, _macs, sec in phase.rates),
        "op_ms_p50": lat["p50_ms"],
        "op_ms_p99": lat["tail_ms"],
        "cphc": statistics.median(macs / sec for _ops, macs, sec in phase.rates) / HOST_HZ,
    }


def measure(module, ctx, args):
    setup_s = median_setup_s(args)
    state = module.setup(ctx)
    try:
        phase = module.run(state, ctx, seconds=args.seconds)
        rss = peak_rss_mb() + phase.extra.get("peer_rss_mb", 0.0)
        problems = module.check(state, phase)
    finally:
        module.dispose(state)
    metrics = {"setup_s": setup_s, **report_phase(phase), "peak_rss_mb": rss}
    log(f"result_digest: {digest(phase.digest_stats)} "
        f"({len(phase.digest_stats)} results)")
    log(f"calib_s: {calibrate():.4f} s (host-noise probe, not gated)")
    return phase, metrics, END_TO_END_UNITS, problems


def measure_traced(module, ctx, seconds: float):
    import trace_hooks

    tracer = trace_hooks.install(trace_hooks.Tracer("bench"))
    ctx.tracer = tracer
    for target in tracer.missing:
        log(f"trace: hook target missing: {target}")
    state = module.setup(ctx)
    try:
        # Untraced, traced, untraced again over the same number of units
        # (fresh seeded inputs each time), so that warm-up and drift
        # cancel out of the overhead estimate.
        before = module.run(state, ctx, seconds=seconds / 3)
        tracer.enabled = True
        since = time.perf_counter()
        traced = module.run(state, ctx, units=before.units, first=before.units)
        tracer.enabled = False
        after = module.run(state, ctx, units=before.units, first=2 * before.units)
        problems = module.check(state, traced)
    finally:
        tracer.enabled = False
        module.dispose(state)
    peers = traced.extra.get("peer_tracers", [])
    counts = tracer.counts.copy()
    for peer, _since in peers:
        counts.update(peer.counts)
    metrics, trace_problems = trace_hooks.layer_metrics(
        [(tracer, since), *peers], counts, traced.wall
    )
    problems += trace_problems
    metrics["trace.overhead_frac"] = traced.wall / ((before.wall + after.wall) / 2) - 1.0
    metrics["calib_s"] = calibrate()
    write_chrome_trace(ctx, [(tracer, since), *peers], since)
    log(f"traced {traced.units} units in {traced.wall:.3f}s (untraced: "
        f"{before.wall:.3f}s before, {after.wall:.3f}s after)")
    return traced, metrics, trace_hooks.PER_LAYER_UNITS, problems


def write_chrome_trace(ctx, tracers, origin: float) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    events = []
    for pid, (tracer, _since) in enumerate(tracers, start=1):
        events.extend(tracer.chrome_events(pid, origin))
    path = TRACE_DIR / f"{ctx.workload}-seed{ctx.seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    log(f"trace: {len(events)} events written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in a fresh process; one combined result line."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for name in WORKLOADS:
        log(f"=== {name} ===")
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            log(f"  {line}")
        sys.stderr.write(proc.stderr)
        try:
            outcome = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            log(f"  {name}: no result line (exit code {proc.returncode})")
            correct = False
            continue
        correct = correct and outcome["correct"] and proc.returncode == 0
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        for metric, entry in outcome["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    print(result_line(correct, attempted, failed, metrics, units), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exit, so that daemons, pools and scratch
    # directories are released on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program sources at {SRC.relative_to(ROOT)}/repro; run from a "
             "checkout of the repository")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            return setup_probe(args)
        module = importlib.import_module(WORKLOADS[args.workload])
        ctx = Context(args.workload, args.seed, bool(args.trace))
        if args.trace:
            phase, metrics, units, problems = measure_traced(module, ctx, args.seconds)
        else:
            phase, metrics, units, problems = measure(module, ctx, args)
    finally:
        remove_scratch()
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        log(f"metric {name} {value:.6g} {units[name]}")
    correct = not problems
    print(result_line(correct, phase.attempted, phase.failed, metrics, units), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
