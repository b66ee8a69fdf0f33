"""Start ``repro serve`` with the benchmark's layer hooks installed.

Traced runs of ``serve-mixed`` boot the daemon through this bootstrap so
that its codec, framing and engine layers are recorded too::

    python3 perfbench/serve_boot.py --trace-out FILE serve --unix PATH ...

Everything after ``--trace-out FILE`` is the ``repro`` command line.
Recording starts on SIGUSR1; SIGUSR2 stops it and writes FILE with
``Tracer.save``: the spans, and counts that include the daemon
Session's cache traffic.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import trace_hooks


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_boot.py --trace-out FILE <repro arguments>", file=sys.stderr)
        return 2
    out = Path(argv[1])
    tracer = trace_hooks.install(trace_hooks.Tracer("daemon"))

    import repro.serve.server as server_module
    from repro.__main__ import main as repro_main

    servers = []
    original_init = server_module.ReproServer.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    server_module.ReproServer.__init__ = init
    window = {}

    def start(_signum, _frame):
        window["cache"] = trace_hooks.cache_counts(servers[0].session)
        window["since"] = time.perf_counter()
        tracer.enabled = True

    def stop(_signum, _frame):
        tracer.enabled = False
        counts = tracer.counts + (
            trace_hooks.cache_counts(servers[0].session) - window["cache"]
        )
        tracer.save(out, window["since"], counts)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    return repro_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
