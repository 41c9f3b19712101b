"""Start one aggregation server process for the benchmark.

Usage::

    python benchmarks/e2e/launcher.py [--trace spans.json] <python -m repro.service flags>

Every flag but ``--trace`` goes unchanged to ``python -m repro.service``,
which builds and runs the server and prints ``LISTENING host port`` once
the socket is bound.  With ``--trace`` every public call the benchmark
reports on is wrapped first (see ``tracing.py``), and the spans are
written to the given file on ``SIGUSR1``, so the benchmark can collect
them before it kills the server.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer, install


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--trace", type=Path, default=None, help="span output file")
    args, serve_argv = parser.parse_known_args()

    if args.trace is not None:
        tracer = Tracer()
        install(tracer)
        signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(args.trace))

    from repro.service.__main__ import main as serve

    return serve(serve_argv)


if __name__ == "__main__":
    sys.exit(main())
