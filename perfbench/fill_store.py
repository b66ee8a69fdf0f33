"""Fill the persistent cache stores of ``persistent-sweep``, one cold
run of the sweep per sweep size (a child process of its set-up)::

    python3 perfbench/fill_store.py --root DIR --seed N [--trace-out FILE]

Prints one JSON line with the digest of each sweep's cold results. With
``--trace-out`` the layer hooks record the whole fill and their spans
and counts are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import trace_hooks
from common import digest, evaluation_stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = trace_hooks.install(trace_hooks.Tracer("fill"))
        tracer.enabled = True

    from persistent_sweep import SWEEP_SIZES, store_root, sweep_points

    from repro import Session
    from repro.common.cache import PersistentCache

    digests = {}
    for size in SWEEP_SIZES:
        store = PersistentCache(root=store_root(Path(args.root), size))
        with Session(persistent=store) as session:
            results = [session.evaluate(design, workload)
                       for design, workload in sweep_points(args.seed, size)]
        digests[size] = digest([evaluation_stats(r) for r in results])
    if tracer is not None:
        tracer.enabled = False
        tracer.save(Path(args.trace_out), float("-inf"))
    print(json.dumps({"digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
