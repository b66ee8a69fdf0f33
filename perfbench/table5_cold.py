"""``table5-cold``: the paper's Table 5 modelling-speed scenario.

Every layer of ResNet50, BERT-base, VGG16 and AlexNet is evaluated on
Eyeriss, the Eyeriss V2 PE and SCNN through ``Session.evaluate``. One
unit is a *pass* over all 180 (design, layer) points in a fresh
Session, with every layer's operand densities scaled by seeded factors,
so passes share no cache keys. Each pass also starts with the
process-global memos cleared, so every pass is as cold as the first and
the process heap does not grow from pass to pass. An op is one layer
evaluation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from common import FAILED_LATENCY_S, Phase, evaluation_stats, reset_process_memos

from repro import Session, Workload
from repro.common.errors import ReproError
from repro.designs import eyeriss, eyeriss_v2, scnn
from repro.workload.nets import network

NETWORKS = ("resnet50", "bert_base", "vgg16", "alexnet")
DESIGNS = (
    ("Eyeriss", eyeriss.eyeriss_design),
    ("Eyeriss V2 PE", eyeriss_v2.eyeriss_v2_pe_design),
    ("SCNN", scnn.scnn_design),
)

#: Post-ReLU activation densities the Eyeriss paper reports for
#: AlexNet; other layers use the defaults below (the regimes of the
#: Table 5 paper bench).
ACT_DENSITY = {
    "conv1": 0.66, "conv2": 0.55, "conv3": 0.47, "conv4": 0.42,
    "conv5": 0.42, "fc6": 0.30, "fc7": 0.25, "fc8": 0.30,
}
DEFAULT_ACT_DENSITY = 0.55
DEFAULT_WEIGHT_DENSITY = 0.40
#: Each pass scales every base density by a seeded factor in this range.
SCALE_RANGE = (0.6, 1.0)

#: Passes whose results the digest covers (always run, even past the
#: deadline).
DIGEST_PASSES = 2
#: Evaluations of the digest passes re-derived without any cache.
CHECK_SAMPLES = 12


@dataclass
class State:
    seed: int
    designs: list
    layers: list


def setup(ctx) -> State:
    designs = [factory() for _name, factory in DESIGNS]
    layers = [layer for name in NETWORKS for layer in network(name)]
    return State(ctx.seed, designs, layers)


def dispose(state: State) -> None:
    pass


def base_densities(layer) -> dict[str, float]:
    tensors = {t.name for t in layer.spec.tensors}
    act = ACT_DENSITY.get(layer.name, DEFAULT_ACT_DENSITY)
    densities = {}
    if "I" in tensors:
        densities["I"] = act
    if "W" in tensors:
        densities["W"] = DEFAULT_WEIGHT_DENSITY
    if "A" in tensors:  # matmul-form layers
        densities["A"] = act
        densities["B"] = DEFAULT_WEIGHT_DENSITY
    return densities


def pass_workloads(state: State, index: int) -> list[Workload]:
    """The seeded workloads of pass ``index``, one per layer."""
    rng = random.Random(f"table5-cold:{state.seed}:{index}")
    workloads = []
    for layer in state.layers:
        densities = {
            tensor: round(density * rng.uniform(*SCALE_RANGE), 6)
            for tensor, density in sorted(base_densities(layer).items())
        }
        workloads.append(Workload.uniform(layer.spec, densities, name=layer.name))
    return workloads


def run(
    state: State, ctx, seconds: float | None = None, units: int | None = None,
    first: int = 0,
) -> Phase:
    """Passes ``first, first + 1, ...`` until ``seconds`` have elapsed
    (at least ``DIGEST_PASSES``) or ``units`` passes are done."""
    phase = Phase()
    points = len(state.designs) * len(state.layers)
    sample = set(random.Random(f"table5-check:{state.seed}").sample(
        range(DIGEST_PASSES * points), CHECK_SAMPLES
    ))
    checks = phase.extra["check"] = []
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    while (
        phase.units < units if units is not None
        else phase.units < DIGEST_PASSES or time.perf_counter() < deadline
    ):
        mark = phase.unit_start()
        workloads = pass_workloads(state, first + phase.units)
        reset_process_memos()
        begin = ctx.cache_begin()
        session = Session(check_capacity=False)
        for design in state.designs:
            for layer, workload in zip(state.layers, workloads):
                op = phase.attempted
                phase.attempted += 1
                if ctx.tracer is not None:
                    ctx.tracer.set_op(op)
                t0 = time.perf_counter()
                try:
                    result = session.evaluate(design, workload)
                except ReproError:
                    result = None
                if result is None or not result.cycles > 0:
                    phase.failed += 1
                    phase.latencies.append(FAILED_LATENCY_S)
                    continue
                phase.latencies.append(time.perf_counter() - t0)
                phase.macs += layer.total_operations
                if op < DIGEST_PASSES * points:
                    phase.digest_stats.append(result)
                    if op in sample:
                        checks.append((design, workload, result))
        session.close()
        ctx.cache_end(session, begin)
        phase.unit_end(mark)
    phase.wall = time.perf_counter() - start
    phase.digest_stats = [evaluation_stats(r) for r in phase.digest_stats]
    return phase


def check(state: State, phase: Phase) -> list[str]:
    """A seeded sample of the digest passes' evaluations must equal an
    uncached Session's."""
    problems = []
    reference = Session(check_capacity=False, cache=None)
    for design, workload, result in phase.extra["check"]:
        expected = reference.evaluate(design, workload)
        if expected.to_dict() != result.to_dict():
            problems.append(
                f"{design.name}/{workload.name}: cached evaluation differs "
                "from Session(cache=None)"
            )
    if len(phase.extra["check"]) != CHECK_SAMPLES:
        problems.append("the check sample did not complete")
    return problems
