"""Judge a change against its parent from benchmark run files.

Each file is the ``--out`` JSON of one untraced ``python -m perfbench
run``.  Parent file *i* and change file *i* form pair *i*; run them
alternately (parent first, then change first, ...) with identical
settings.  For every workload and end-to-end metric the verdict is:

``improved``
    at least ten pairs were run, the change wins at least nine tenths of
    them (ties count for neither side) and its median beats the parent's
    by more than the parent's interquartile range;
``too few pairs``
    the change would count as improved, but fewer than ten pairs were
    run;
``unresolved``
    either side's spread (IQR over median) is wider than the metric's
    bound, unless every change run reads better, or every one worse,
    than every parent run;
``regressed``
    the change's median is worse than the parent's by more than the
    bound;
``unchanged``
    none of the above.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass
class Verdict:
    verdict: str
    wins: int
    pairs: int


def judge(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Verdict:
    """Apply the rule above to one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        verdict = "improved" if len(pairs) >= MIN_PAIRS else "too few pairs"
        return Verdict(verdict, wins, len(pairs))
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    separated = min(sign * c for c in change) > max(sign * p for p in parent) or max(
        sign * c for c in change
    ) < min(sign * p for p in parent)
    if spread > bound and not separated:
        return Verdict("unresolved", wins, len(pairs))
    if -gain / abs(p_med) > bound:
        return Verdict("regressed", wins, len(pairs))
    return Verdict("unchanged", wins, len(pairs))


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["result"]["metrics"][metric]["value"] for run in runs]


def compare(bench: dict, parent_paths: Sequence[str], change_paths: Sequence[str]) -> int:
    """Print one row per workload and metric; 1 when anything regressed."""
    runs = []
    for paths in (parent_paths, change_paths):
        side = []
        for path in paths:
            with open(path) as handle:
                side.append(json.load(handle))
        runs.append(side)
    parent, change = runs
    workloads = list(parent[0]["workloads"])
    print(
        f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'wins':>6}  verdict"
    )
    regressed = False
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p, c = _values(parent, workload, name), _values(change, workload, name)
            verdict = judge(p, c, metric["better"], metric["bound"])
            regressed |= verdict.verdict == "regressed"
            cells = [
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(values)) for values in (p, c)
            ]
            print(
                f"{workload:<14} {name:<18} {cells[0]:>34} {cells[1]:>34} "
                f"{verdict.wins:>3}/{verdict.pairs:<2}  {verdict.verdict}"
            )
    return 1 if regressed else 0
