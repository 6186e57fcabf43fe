"""Injection campaigns: parameter sweeps behind Table IV and Figure 9.

For each campaign cell (scenario, injected error value, activation period)
and repetition seed, two deterministic replicas of the same run execute:

- a **ground-truth** replica with the RAVEN software checks disabled and no
  detector, whose tool-tip path is compared against a same-seed fault-free
  reference run — the attack *caused an adverse impact* when the paths
  diverge by more than the 1 mm surgical-safety threshold;
- a **monitored** replica with the RAVEN checks active and the
  dynamic-model detector installed in monitor mode, from which both
  detectors' verdicts are read under identical conditions.

Fault-free repetitions (negative labels) measure the false-positive rates.
Every replica is seeded like its reference run.  The ground-truth replica
has no guard, so up to the attack it records exactly the reference run's
cycles, and its deviation isolates the attack's effect.  The monitored
replica's inputs differ from the reference's: its guard's
``read_measurement`` draws encoder noise from the same generator as the
USB board's feedback reads, so its control software sees a different noise
sequence from cycle 1 on.  Both detectors are read from that one replica,
so they are judged on identical inputs.

Both replicas are forked from a pre-attack prefix (:class:`PrefixStore`):
for each seed and replica kind one run is simulated up to the cycle before
the trigger's first active cycle, and every cell's replica is a deep copy
of it, armed with the cell's payload and period.  The prefix does not
depend on either, so the outcomes are those of straight runs.

One runner, :class:`CampaignRunner`, executes every campaign through the
process-pool engine (:mod:`repro.experiments.parallel`) with one worker
count, ``jobs``.  ``jobs=1`` is the engine's in-process loop, where every
cell forks its replicas from one shared store; a pool worker simulates
its cell's replicas straight.  The outcome list is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.attacks.injection import AttackRecord
from repro.core.baseline import RavenBaselineDetector
from repro.core.metrics import ConfusionMatrix
from repro.core.mitigation import MitigationStrategy
from repro.core.thresholds import SafetyThresholds
from repro.experiments.parallel import chunked, iter_tasks, resolve_jobs
from repro.sim.runner import (
    AttackRun,
    AttackRunResult,
    attack_payload,
    make_detector_guard,
    run_fault_free,
)

#: Tool-tip deviation from the fault-free reference that counts as an
#: adverse impact (the paper's 1 mm threshold from expert surgeons).
IMPACT_DEVIATION_M = constants.UNSAFE_JUMP_M

#: Paper-scale sweep grids (Figure 9): activation periods in ms.
PAPER_PERIODS_MS = (2, 4, 8, 16, 32, 64, 128, 256)

#: Scenario-B injected DAC error values (counts).
PAPER_ERRORS_B = (2000, 5000, 9000, 13000, 18000, 26000)

#: Scenario-A injected per-packet position errors (mm).
PAPER_ERRORS_A = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class CampaignCell:
    """One (scenario, error value, activation period) sweep point."""

    scenario: str
    error_value: float
    period_ms: int

    def __post_init__(self) -> None:
        if self.scenario not in ("A", "B"):
            raise ValueError("scenario must be 'A' or 'B'")
        if self.period_ms < 1:
            raise ValueError("period_ms must be >= 1")


@dataclass
class RunOutcome:
    """Result of one campaign run (one repetition of one cell)."""

    cell: Optional[CampaignCell]
    seed: int
    label: bool
    raven_detected: bool
    model_detected: bool
    deviation_mm: float
    attack_fired: bool

    @property
    def is_fault_free(self) -> bool:
        """Whether this outcome comes from an attack-free run."""
        return self.cell is None


@dataclass
class CampaignResult:
    """All outcomes of one scenario's campaign."""

    scenario: str
    outcomes: List[RunOutcome] = field(default_factory=list)

    def confusion(self, detector: str) -> ConfusionMatrix:
        """Confusion matrix for ``detector`` in {"model", "raven"}."""
        if detector not in ("model", "raven"):
            raise ValueError("detector must be 'model' or 'raven'")
        pairs = [
            (
                o.label,
                o.model_detected if detector == "model" else o.raven_detected,
            )
            for o in self.outcomes
        ]
        return ConfusionMatrix.from_pairs(pairs)

    def cell_probabilities(self) -> Dict[CampaignCell, Dict[str, float]]:
        """Per-cell impact/detection probabilities (Figure 9 data)."""
        grouped: Dict[CampaignCell, List[RunOutcome]] = {}
        for outcome in self.outcomes:
            if outcome.cell is not None:
                grouped.setdefault(outcome.cell, []).append(outcome)
        table = {}
        for cell, runs in grouped.items():
            n = len(runs)
            table[cell] = {
                "n": n,
                "p_impact": sum(o.label for o in runs) / n,
                "p_model": sum(o.model_detected for o in runs) / n,
                "p_raven": sum(o.raven_detected for o in runs) / n,
            }
        return table


class PrefixStore:
    """The pre-attack prefixes of one campaign call.

    One :class:`~repro.sim.runner.AttackRun` per (scenario, seed, replica
    kind), paused at its trigger's arming point; :meth:`fork` hands out
    copies.  A store lives for one ``run_campaign``/``iter_cells`` call.

    A store with ``keep=False`` keeps nothing: each :meth:`fork` builds a
    prefix and hands out the prefix itself.  That is what a store becomes
    when it is pickled, so no rig crosses a process boundary and a pool
    worker, whose task uses each of its prefixes once, neither copies nor
    holds them.
    """

    def __init__(self, keep: bool = True) -> None:
        self.keep = keep
        self._prefixes: Dict[Tuple[str, int, bool], AttackRun] = {}

    def fork(
        self, build: Callable[[str, int, bool], AttackRun], *key
    ) -> AttackRun:
        """A fork of the prefix for ``key``, built with ``build(*key)`` once."""
        if not self.keep:
            return build(*key)
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = self._prefixes[key] = build(*key)
        return prefix.fork()

    def __reduce__(self):
        return (PrefixStore, (False,))


class CampaignRunner:
    """Executes injection campaigns and labels their outcomes.

    One plan at any worker count — the same cells, the same repetition
    and fault-free seeds, merged in the same order — and every run is a
    deterministic function of the runner configuration and its seed, so
    the outcome list does not depend on ``jobs``.  ``jobs`` is the number
    of worker processes (``None`` resolves through
    :func:`~repro.experiments.parallel.resolve_jobs`); at ``jobs=1`` the
    engine runs every task in this process.  Three phases:

    1. **warm-up** — the fault-free reference trace of every repetition
       seed is computed once and its tip array handed to every cell task,
       instead of each task re-deriving references;
    2. **cells** — each (cell, all repetitions) group is one task; results
       stream back in grid order, so callers can checkpoint (cache shards)
       per cell;
    3. **fault-free runs** — the negative-label runs, chunked across the
       workers.
    """

    def __init__(
        self,
        thresholds: SafetyThresholds,
        duration_s: float = 1.6,
        trajectory_name: str = "circle",
        attack_delay_cycles: int = 300,
        base_seed: int = 0,
        progress: Optional[Callable[[str], None]] = None,
        jobs: Optional[int] = None,
        injector=None,
    ) -> None:
        self.thresholds = thresholds
        self.duration_s = duration_s
        self.trajectory_name = trajectory_name
        self.attack_delay_cycles = attack_delay_cycles
        self.base_seed = base_seed
        self.baseline = RavenBaselineDetector()
        self.jobs = resolve_jobs(jobs)
        #: Optional :class:`repro.testing.faults.ChaosInjector` threaded
        #: into every fan-out (chaos tests only; ``None`` in production,
        #: where the engine still honours ``REPRO_CHAOS_PLAN``).
        self.injector = injector
        self._references: Dict[int, np.ndarray] = {}
        #: The cell task's prefixes, installed by :func:`_cell_worker`;
        #: ``None`` outside a cell task.
        self._prefixes: Optional[PrefixStore] = None
        self._progress = progress or (lambda msg: None)

    # -- pieces ------------------------------------------------------------------

    def compute_reference_tip(self, seed: int) -> np.ndarray:
        """Tip-position array of the fault-free reference run for ``seed``."""
        return run_fault_free(
            seed=seed,
            trajectory_name=self.trajectory_name,
            duration_s=self.duration_s,
        ).tip_array

    def prime_references(self, references: Dict[int, np.ndarray]) -> None:
        """Install precomputed reference tip arrays (seed -> ``(n, 3)``).

        The warm-up phase computes every seed's fault-free reference
        exactly once and hands the tips to each cell task, instead of
        each task re-deriving them.
        """
        self._references.update(references)

    def _reference_tip(self, seed: int) -> np.ndarray:
        """Fault-free reference tip array for ``seed`` (cached)."""
        if seed not in self._references:
            self._references[seed] = self.compute_reference_tip(seed)
        return self._references[seed]

    def _prefix(self, scenario: str, seed: int, monitored: bool) -> AttackRun:
        """One replica kind's run of ``seed``, paused at the arming point.

        Ground truth runs without RAVEN checks and without a detector; the
        monitored replica has both, the detector in monitor mode.
        """
        guard = (
            make_detector_guard(self.thresholds, strategy=MitigationStrategy.MONITOR)
            if monitored
            else None
        )
        attack = AttackRun.build(
            scenario,
            seed,
            duration_s=self.duration_s,
            guard=guard,
            raven_safety_enabled=monitored,
            attack_delay_cycles=self.attack_delay_cycles,
            trajectory_name=self.trajectory_name,
        )
        attack.run_to_arming()
        return attack

    def _replica(
        self, prefixes: PrefixStore, cell: CampaignCell, seed: int, monitored: bool
    ) -> AttackRunResult:
        attack = prefixes.fork(self._prefix, cell.scenario, seed, monitored)
        attack.arm(attack_payload(cell.scenario, seed, cell.error_value), cell.period_ms)
        return attack.finish(
            AttackRecord(
                scenario=cell.scenario,
                error_value=cell.error_value,
                period_cycles=cell.period_ms,
            )
        )

    def run_cell_once(self, cell: CampaignCell, seed: int) -> RunOutcome:
        """Both replicas of one repetition of ``cell``.

        Each replica is a fork of the seed's prefix from the cell task's
        :class:`PrefixStore`; outside a cell task it is a straight run.
        Each replica is released as soon as its outcome fields are read,
        so at most one full trace is alive at a time.
        """
        prefixes = self._prefixes or PrefixStore(keep=False)
        reference_tip = self._reference_tip(seed)

        raw = self._replica(prefixes, cell, seed, monitored=False)
        deviation = raw.trace.max_deviation_from_tip(reference_tip)
        fired = raw.record.fired
        del raw

        monitored = self._replica(prefixes, cell, seed, monitored=True)
        return RunOutcome(
            cell=cell,
            seed=seed,
            label=deviation > IMPACT_DEVIATION_M,
            raven_detected=self.baseline.detected(monitored.trace),
            model_detected=monitored.model_detected,
            deviation_mm=deviation * 1e3,
            attack_fired=fired,
        )

    def run_fault_free_once(self, seed: int) -> RunOutcome:
        """One attack-free repetition (negative label, for FPR)."""
        guard = make_detector_guard(
            self.thresholds, strategy=MitigationStrategy.MONITOR
        )
        trace = run_fault_free(
            seed=seed,
            trajectory_name=self.trajectory_name,
            duration_s=self.duration_s,
            guard=guard,
        )
        return RunOutcome(
            cell=None,
            seed=seed,
            label=False,
            raven_detected=self.baseline.detected(trace),
            model_detected=guard.stats.alerted,
            deviation_mm=0.0,
            attack_fired=False,
        )

    # -- plan --------------------------------------------------------------------

    def plan_cells(
        self,
        scenario: str,
        error_values: Sequence[float],
        periods_ms: Sequence[int] = PAPER_PERIODS_MS,
    ) -> List[CampaignCell]:
        """The campaign grid, in deterministic sweep order."""
        return [
            CampaignCell(scenario=scenario, error_value=v, period_ms=p)
            for v in error_values
            for p in periods_ms
        ]

    def repetition_seeds(self, repetitions: int) -> List[int]:
        """The seeds used for every cell's repetitions, in order."""
        return [self.base_seed + rep for rep in range(repetitions)]

    def fault_free_seeds(self, fault_free_runs: int) -> List[int]:
        """The seeds of the attack-free (negative-label) runs, in order."""
        return [self.base_seed + 1000 + i for i in range(fault_free_runs)]

    def default_fault_free_runs(
        self, cells: Sequence[CampaignCell], repetitions: int
    ) -> int:
        """Default negative-run count: ~20% of the injection runs."""
        return max(1, len(cells) * repetitions // 5)

    def _worker_config(self) -> dict:
        """Picklable construction parameters for task-side runners."""
        return {
            "thresholds": self.thresholds.to_dict(),
            "duration_s": self.duration_s,
            "trajectory_name": self.trajectory_name,
            "attack_delay_cycles": self.attack_delay_cycles,
            "base_seed": self.base_seed,
        }

    # -- phases ------------------------------------------------------------------

    def compute_references(self, seeds: Sequence[int]) -> Dict[int, np.ndarray]:
        """Warm-up pass: fault-free reference tips for every seed, once.

        Already-cached references are not recomputed; new ones are merged
        into this runner's cache and returned for the cell tasks.
        """
        missing = [s for s in seeds if s not in self._references]
        tasks = [(self._worker_config(), seed) for seed in missing]
        for seed, tip in iter_tasks(
            _reference_worker,
            tasks,
            jobs=self.jobs,
            progress=self._progress,
            label="reference warm-up",
            injector=self.injector,
        ):
            self._references[seed] = tip
        return {s: self._references[s] for s in seeds}

    def iter_cells(
        self,
        cells: Sequence[CampaignCell],
        seeds: Sequence[int],
        references: Optional[Dict[int, np.ndarray]] = None,
    ) -> Iterator[Tuple[CampaignCell, List[RunOutcome]]]:
        """Run ``cells`` x ``seeds``, yielding per-cell outcome lists in
        grid order as they complete.

        Every task carries the same :class:`PrefixStore`.  In-process
        (``jobs=1``) the cells share its prefixes; a pool worker unpickles
        a store that keeps none, so each of its replicas runs straight.
        """
        if references is None:
            references = self.compute_references(seeds)
        config = self._worker_config()
        prefixes = PrefixStore()
        tasks = [
            (
                config,
                (cell.scenario, cell.error_value, cell.period_ms),
                list(seeds),
                references,
                prefixes,
            )
            for cell in cells
        ]
        yield from zip(
            cells,
            iter_tasks(
                _cell_worker,
                tasks,
                jobs=self.jobs,
                progress=self._progress,
                label="campaign cells",
                injector=self.injector,
            ),
        )

    def run_fault_free_batch(self, seeds: Sequence[int]) -> List[RunOutcome]:
        """The attack-free (negative-label) runs, chunked across workers."""
        config = self._worker_config()
        tasks = [(config, chunk) for chunk in chunked(list(seeds), self.jobs)]
        outcomes: List[RunOutcome] = []
        for batch in iter_tasks(
            _fault_free_worker,
            tasks,
            jobs=self.jobs,
            progress=self._progress,
            label="fault-free runs",
            injector=self.injector,
        ):
            outcomes.extend(batch)
        return outcomes

    # -- whole campaigns -------------------------------------------------------------

    def run_campaign(
        self,
        scenario: str,
        error_values: Sequence[float],
        periods_ms: Sequence[int] = PAPER_PERIODS_MS,
        repetitions: int = 20,
        fault_free_runs: int = 0,
    ) -> CampaignResult:
        """Sweep the full (error x period) grid with ``repetitions`` each.

        ``fault_free_runs`` adds that many attack-free negative runs,
        defaulting to roughly 20% of the injection runs when 0 is passed.
        """
        cells = self.plan_cells(scenario, error_values, periods_ms)
        if fault_free_runs <= 0:
            fault_free_runs = self.default_fault_free_runs(cells, repetitions)
        seeds = self.repetition_seeds(repetitions)
        references = self.compute_references(seeds)
        result = CampaignResult(scenario=scenario)
        for _cell, outcomes in self.iter_cells(cells, seeds, references):
            result.outcomes.extend(outcomes)
        result.outcomes.extend(
            self.run_fault_free_batch(self.fault_free_seeds(fault_free_runs))
        )
        self._progress(
            f"[{scenario}] campaign complete: {len(result.outcomes)} runs "
            f"({self.jobs} jobs)"
        )
        return result


#: The former name of :class:`CampaignRunner`, kept for callers that still
#: import it; it names the same class.
ParallelCampaignRunner = CampaignRunner


# ---------------------------------------------------------------------------
# Process-pool entry points (module-level for picklability)
# ---------------------------------------------------------------------------


def _runner_from_config(config: dict) -> CampaignRunner:
    return CampaignRunner(
        SafetyThresholds.from_dict(config["thresholds"]),
        duration_s=config["duration_s"],
        trajectory_name=config["trajectory_name"],
        attack_delay_cycles=config["attack_delay_cycles"],
        base_seed=config["base_seed"],
        jobs=1,
    )


def _reference_worker(task) -> Tuple[int, np.ndarray]:
    """Warm-up entry: one seed's fault-free reference tip array."""
    config, seed = task
    return seed, _runner_from_config(config).compute_reference_tip(seed)


def _cell_worker(task) -> List[RunOutcome]:
    """Cell entry: all repetitions of one cell, in seed order."""
    config, (scenario, error_value, period_ms), seeds, references, prefixes = task
    runner = _runner_from_config(config)
    runner.prime_references(references)
    runner._prefixes = prefixes
    cell = CampaignCell(
        scenario=scenario, error_value=error_value, period_ms=period_ms
    )
    return [runner.run_cell_once(cell, seed) for seed in seeds]


def _fault_free_worker(task) -> List[RunOutcome]:
    """Fault-free entry: one chunk of negative-label runs, in seed order."""
    config, seeds = task
    runner = _runner_from_config(config)
    return [runner.run_fault_free_once(seed) for seed in seeds]


def table4_rows(results: Sequence[CampaignResult]) -> List[Tuple[str, str, ConfusionMatrix]]:
    """(scenario, technique, confusion) rows in Table IV's layout."""
    rows = []
    for result in results:
        rows.append((result.scenario, "Dynamic Model", result.confusion("model")))
        rows.append((result.scenario, "RAVEN", result.confusion("raven")))
    return rows
