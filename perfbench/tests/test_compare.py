"""The compare rule on fixed cases."""

from __future__ import annotations

import pytest

from perfbench.compare import judge, quartiles

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(values, delta):
    return [v + delta for v in values]


@pytest.mark.parametrize(
    "parent, change, better, bound, verdict, wins",
    [
        # Every pair won and the gap dwarfs the parent's IQR.
        (PARENT, shifted(PARENT, 5.0), "higher", 0.05, "improved", 10),
        # Lower is better: the same shift downwards is the improvement.
        (PARENT, shifted(PARENT, -5.0), "lower", 0.05, "improved", 10),
        # 8 of 10 pairs is not enough for a gain; within the bound.
        (PARENT, shifted(PARENT, 0.3)[:8] + shifted(PARENT, -0.3)[8:], "higher", 0.05,
         "unchanged", 8),
        # Worse by 8% with tight runs: a regression beyond a 5% bound.
        (PARENT, shifted(PARENT, -8.0), "higher", 0.05, "regressed", 0),
        # Worse by 3%: inside the 5% bound.
        (PARENT, shifted(PARENT, -3.0), "higher", 0.05, "unchanged", 0),
        # Runs spread far wider than the bound and the sides overlap.
        ([60.0, 140.0, 80.0, 120.0, 100.0], [70.0, 130.0, 90.0, 110.0, 95.0], "higher",
         0.05, "unresolved", 2),
        # Wide spread, but every change run is worse than every parent run.
        ([100.0, 140.0, 120.0], [60.0, 80.0, 70.0], "higher", 0.05, "regressed", 0),
        # A clear win on three pairs, or on one, is not enough for a gain.
        (PARENT[:3], shifted(PARENT[:3], 5.0), "higher", 0.05, "too few pairs", 3),
        (PARENT[:1], shifted(PARENT[:1], 5.0), "higher", 0.05, "too few pairs", 1),
        # Nine pairs, all won: still one short.
        (PARENT[:9], shifted(PARENT[:9], 5.0), "higher", 0.05, "too few pairs", 9),
    ],
)
def test_verdicts(parent, change, better, bound, verdict, wins):
    result = judge(parent, change, better, bound)
    assert (result.verdict, result.wins, result.pairs) == (verdict, wins, len(parent))


def test_gain_must_exceed_the_parent_iqr():
    parent = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    change = [v + 3.0 for v in parent]  # wins every pair, gap 3 < IQR ~11
    assert judge(parent, change, "higher", 0.25).verdict == "unchanged"


def test_quartiles_of_one_run():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
