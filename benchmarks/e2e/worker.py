"""One loopback wire worker of the ``wire_int8`` workload.

Calls ``ClientRunner(...).run()`` exactly as ``repro client`` does.  A
subprocess, not a thread, because ``set_state_fetcher`` is process-global.
With ``--trace FILE`` the worker installs the benchmark's wrappers before
serving and dumps its spans once the coordinator has said ``bye``.
"""

from __future__ import annotations

import argparse
import sys

# entered through repro.core, as ``python -m repro client`` is: importing
# repro.serve.client first trips an import cycle (engine.codecs <-> core)
import repro.core  # noqa: F401
from repro.serve.client import ClientRunner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--trace", default=None, help="dump this worker's spans here on exit")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer(proc=args.name)
        tracing.install(tracer, worker=True)
    code = ClientRunner("127.0.0.1", args.port, args.name, backoff_base=0.05, quiet=True).run()
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
