"""``python -m perfbench`` — run the benchmark, or compare two sets of runs.

    PYTHONPATH=src python -m perfbench run --seed N [--workload W] [--trace] [--out PATH]
    PYTHONPATH=src python -m perfbench compare PARENT.json... --change CHANGE.json...

``run`` starts every workload (or only ``--workload``) in its own fresh
child process, one after another, echoes each one's metrics with unit
and sample count, writes all results to ``--out`` as JSON and exits 1
when any output check fails.  That includes ``wire_ingest``, which
``BENCHMARK.json`` does not gate.  ``--pin`` stores the run's output digests
as ``perfbench/expected/seed<N>.json``, the values later runs at that
seed are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A child that runs longer than this has hung.
CHILD_TIMEOUT_S = 900


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(name: str, args: argparse.Namespace) -> dict:
    """One workload in a fresh ``perfbench/run.py`` process."""
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if args.trace else "0",
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        print("\n".join(lines))
        return {"error": f"exit code {child.returncode}"}
    report = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("DETAIL "):
            report["detail"] = json.loads(line[len("DETAIL "):])
        else:
            print(line)
    return report


def _pin(seed: int, smoke: bool, reports: dict) -> Path:
    path = HERE / "expected" / f"seed{seed}.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    size = pinned.setdefault("smoke" if smoke else "full", {})
    for name, report in reports.items():
        size[name] = report["detail"]["digests"]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return path


def cmd_run(args: argparse.Namespace) -> int:
    from perfbench.run import SRC, refuse_repro_env

    refuse_repro_env()
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    unknown = sorted(set(args.workload or ()) - set(WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    names = args.workload or list(WORKLOADS)
    reports = {}
    for name in names:
        reports[name] = run_child(name, args)
        print()
    ok = True
    for name, report in reports.items():
        result = report.get("result")
        if result is None:
            print(f"{name}: crashed ({report['error']})")
            ok = False
            continue
        ok &= result["correct"] and result["failed"] == 0
        print(
            f"{name}: {'correct' if result['correct'] else 'CHECK FAILED'}, "
            f"{result['failed']}/{result['attempted']} operations failed"
        )
    out = Path(args.out) if args.out else (
        HERE / "out" / f"run-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "workloads": reports,
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"results: {out}")
    if args.pin and ok:
        print(f"pinned digests: {_pin(args.seed, args.smoke, reports)}")
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from perfbench.compare import compare

    if len(args.parent) != len(args.change):
        raise SystemExit("compare needs as many change runs as parent runs (one pair each)")
    return compare(_bench(), args.parent, args.change)


def main(argv=None) -> int:
    bench = _bench()
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads, each in a fresh process")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument(
        "--workload", action="append", help="run only this workload (repeatable)"
    )
    run.add_argument("--trace", action="store_true", help="per-layer metrics from a traced run")
    run.add_argument("--out", help="results JSON (default perfbench/out/run-seed<N>.json)")
    run.add_argument("--seconds", type=float, default=bench["run_seconds"])
    run.add_argument("--smoke", action="store_true", help="small inputs (self-tests)")
    run.add_argument("--pin", action="store_true", help="store this run's output digests")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="judge a change against its parent")
    compare.add_argument("parent", nargs="+", help="parent run files")
    compare.add_argument("--change", nargs="+", required=True, help="change run files")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
