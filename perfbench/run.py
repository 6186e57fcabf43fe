"""Run one benchmark workload in this process.

    python3 perfbench/run.py --workload guard_inline --seed 0 --seconds 15 --trace 0

Run from the repository root; ``src/`` is put on the import path (and on
``PYTHONPATH`` for the service workers).  The workload sets up three
times, measures for ``--seconds`` seconds, checks its outputs and prints
every metric with its unit and sample count.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 0.0978, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
metrics.  A traced run first runs the workload untraced for a third of
the time (the base of ``trace.overhead_ratio``), then traced, and writes
a Chrome trace to ``perfbench/out/``.  The line before the result starts
with ``DETAIL`` and holds everything else measured, as JSON.

The run exits 2 without a result when ``repro`` cannot be imported or a
``REPRO_*`` environment variable is set, and 1 when it crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def refuse_repro_env() -> None:
    """Exit when a ``REPRO_*`` variable could change what is measured."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if names:
        print(
            f"perfbench: refusing to run with {names[0]} set; unset every REPRO_* variable",
            file=sys.stderr,
        )
        raise SystemExit(2)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_expected(seed: int, smoke: bool) -> dict:
    path = Path(__file__).resolve().parent / "expected" / f"seed{seed}.json"
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle).get("smoke" if smoke else "full", {})


def _declared(bench: dict, key: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in bench[key]}


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run workload ``name``; return the result and everything measured."""
    from perfbench import trace, workloads

    bench = load_benchmark()
    sizes = workloads.SMOKE if smoke else workloads.FULL
    expected = load_expected(seed, smoke).get(name)
    workload = workloads.WORKLOADS[name]
    detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced}

    if not traced:
        outcome = workload(seed, seconds, sizes, 1 if smoke else SETUPS, None, expected)
        measured = {k: (m.value, m.unit, m.samples) for k, m in outcome.metrics.items()}
        declared = _declared(bench, "end_to_end")
        checks = outcome.checks
    else:
        base = workload(seed, seconds / 3, sizes, 1, None, expected)
        rec = trace.Recorder()
        outcome = workload(seed, seconds, sizes, 1, rec, expected)
        measured = trace.per_layer(
            rec, outcome.worker_dumps, outcome.frames_sent, base.rate / outcome.rate
        )
        measured.update(
            (k, (m.value, m.unit, m.samples)) for k, m in outcome.metrics.items()
        )
        declared = _declared(bench, "per_layer")
        checks = {**{f"untraced:{k}": v for k, v in base.checks.items()}, **outcome.checks}
        detail["trace_file"] = str(_write_trace(rec, outcome.worker_dumps, name, seed))
        from repro.obs.export import validate_chrome_trace

        ok, message = validate_chrome_trace(detail["trace_file"])
        checks["trace_file"] = "ok" if ok else message

    for metric, unit in declared.items():
        if measured[metric][1] != unit:
            raise ValueError(f"{metric}: measured in {measured[metric][1]}, declared {unit}")
    detail["metrics"] = {
        k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in measured.items()
    }
    detail["notes"] = {k: m.note for k, m in outcome.metrics.items() if m.note}
    detail["checks"] = checks
    detail["digests"] = outcome.digests
    correct = all(v in ("ok", "structural") for v in checks.values())
    result = {
        "correct": correct and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": measured[k][0], "unit": u} for k, u in declared.items()},
    }
    return {"result": result, "detail": detail, "declared": list(declared)}


def _write_trace(rec, dumps, name: str, seed: int) -> Path:
    from perfbench import trace

    events = trace.chrome_events(rec.kept, os.getpid(), rec.origin, f"perfbench {name}")
    for dump in dumps:
        events += trace.chrome_events(
            dump["kept"], dump["pid"], rec.origin, f"worker {dump['worker']}"
        )
    path = Path(__file__).resolve().parent / "out" / f"trace-{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path


def print_run(report: dict) -> None:
    """Human-readable lines, then the DETAIL line, then the result line."""
    detail, result = report["detail"], report["result"]
    print(
        f"perfbench {detail['workload']} seed={detail['seed']} "
        f"seconds={detail['seconds']:g} trace={int(detail['trace'])}"
    )
    declared = report["declared"]
    metrics = detail["metrics"]
    for name in declared + sorted(set(metrics) - set(declared)):
        metric = metrics[name]
        note = detail["notes"].get(name, "")
        mark = "*" if name in declared else " "
        print(
            f" {mark} {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"n={metric['samples']:<8} {note}".rstrip()
        )
    print(f"   failed_ratio {result['failed'] / max(1, result['attempted']):.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for check, status in detail["checks"].items():
        print(f"   check {check}: {status}")
    if "trace_file" in detail:
        print(f"   trace file: {detail['trace_file']}")
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs (self-tests)")
    args = parser.parse_args(argv)
    refuse_repro_env()
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print_run(run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
