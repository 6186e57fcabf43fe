"""A detection-service worker with the perfbench span wrappers installed.

Run as ``python perfbench/traced_worker.py --spans PATH --from-tick N --
worker --name w0 ...``: everything after ``--`` goes to
``repro.service.__main__.main`` unchanged.  Spans of ticks before
``--from-tick`` (the benchmark's warm-up rounds) are not recorded.  When
the worker shuts down, its aggregates, per-tick busy time and kept spans
are written to ``PATH`` for the benchmark to merge by tick.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import trace  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="perfbench/traced_worker.py")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--from-tick", type=int, required=True)
    args = parser.parse_args(argv[:split])
    service_argv = argv[split + 1 :]
    name = service_argv[service_argv.index("--name") + 1]

    from repro.service.__main__ import main as service_main

    rec = trace.Recorder(min_request=args.from_tick, busy_spans=("service.worker_dispatch",))
    trace.install(rec)
    try:
        return service_main(service_argv)
    finally:
        rec.dump(args.spans, worker=name)


if __name__ == "__main__":
    raise SystemExit(main())
