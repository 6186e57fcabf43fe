"""Shared campaign execution + caching for Table IV and Figure 9.

Both artifacts read the same campaign data (the paper derives them from
the same 1 925 + 1 361 experiment runs), so campaigns execute once per
scale preset and cache their outcomes under ``.cache/``.

The cache is a **shard directory** per (scenario, scale):

.. code-block:: text

    .cache/campaign_A_default/
        meta.json        schema version + config fingerprint + grid
        cell_000.json    all repetitions of grid cell 0
        cell_001.json    ...
        fault_free.json  the attack-free (negative-label) runs

Every shard is written atomically (temp file + ``os.replace``) the moment
its cell completes, so a Ctrl-C mid-campaign leaves a prefix of valid
shards behind and the next call resumes from there instead of restarting
from zero.  ``meta.json`` carries the engine schema version and a
fingerprint of everything the outcomes depend on (grids, durations,
repetitions, thresholds, outcome fields); any mismatch invalidates the
whole directory rather than silently poisoning Table IV / Figure 9.
"""

from __future__ import annotations

import dataclasses
import logging
import shutil
from pathlib import Path
from typing import Dict, List, Optional

from repro.attacks.campaign import (
    CampaignCell,
    CampaignResult,
    CampaignRunner,
    RunOutcome,
)
from repro.experiments.calibration import CACHE_DIR, get_thresholds
from repro.experiments.parallel import (
    atomic_write_json,
    load_versioned_json,
    quarantine_file,
    versioned_payload,
)
from repro.experiments.scale import Scale, current_scale

logger = logging.getLogger(__name__)


def _outcome_to_dict(outcome: RunOutcome) -> dict:
    cell = outcome.cell
    return {
        "cell": None
        if cell is None
        else {
            "scenario": cell.scenario,
            "error_value": cell.error_value,
            "period_ms": cell.period_ms,
        },
        "seed": outcome.seed,
        "label": outcome.label,
        "raven_detected": outcome.raven_detected,
        "model_detected": outcome.model_detected,
        "deviation_mm": outcome.deviation_mm,
        "attack_fired": outcome.attack_fired,
    }


def _outcome_from_dict(data: dict) -> RunOutcome:
    cell = data["cell"]
    return RunOutcome(
        cell=None
        if cell is None
        else CampaignCell(
            scenario=cell["scenario"],
            error_value=cell["error_value"],
            period_ms=cell["period_ms"],
        ),
        seed=data["seed"],
        label=data["label"],
        raven_detected=data["raven_detected"],
        model_detected=data["model_detected"],
        deviation_mm=data["deviation_mm"],
        attack_fired=data["attack_fired"],
    )


def campaign_cache_path(
    scenario: str, scale: Scale, cache_dir: Optional[Path] = None
) -> Path:
    """Shard-directory location for one scenario's campaign at ``scale``."""
    directory = Path(cache_dir) if cache_dir is not None else CACHE_DIR
    return directory / f"campaign_{scenario}_{scale.name}"


def _cell_shard_path(shard_dir: Path, index: int) -> Path:
    return shard_dir / f"cell_{index:04d}.json"


def _fault_free_shard_path(shard_dir: Path) -> Path:
    return shard_dir / "fault_free.json"


def campaign_config(scenario: str, scale: Scale, thresholds) -> dict:
    """Everything the cached outcomes depend on, for fingerprinting.

    A change to the sweep grids, run durations, repetition counts, runner
    parameters, calibrated thresholds, or the :class:`RunOutcome` fields
    themselves changes the fingerprint and invalidates the cache.
    """
    runner = _make_runner(scale, thresholds)
    return {
        "scenario": scenario,
        "errors": list(scale.errors_a_mm if scenario == "A" else scale.errors_b_dac),
        "periods_ms": list(scale.periods_ms),
        "repetitions": scale.repetitions,
        "fault_free_runs": scale.fault_free_runs,
        "run_duration_s": scale.run_duration_s,
        "trajectory_name": runner.trajectory_name,
        "attack_delay_cycles": runner.attack_delay_cycles,
        "base_seed": runner.base_seed,
        "thresholds": thresholds.to_dict(),
        "outcome_fields": [f.name for f in dataclasses.fields(RunOutcome)],
    }


def _make_runner(
    scale: Scale, thresholds, progress=None, jobs=None, injector=None
) -> CampaignRunner:
    return CampaignRunner(
        thresholds,
        duration_s=scale.run_duration_s,
        progress=progress,
        jobs=jobs,
        injector=injector,
    )


def _load_shard_outcomes(path: Path, config: dict) -> Optional[List[RunOutcome]]:
    """Outcomes from one shard, or ``None`` (with the bad file quarantined).

    A shard that fails JSON parsing, schema/config validation, or its
    body-integrity digest is moved into the directory's ``quarantine/``
    subfolder — preserved as evidence, never re-read — and the caller
    recomputes the cell.  Resume therefore survives truncated, bit-flipped,
    and deleted shards with a correct, complete campaign result.
    """
    payload = load_versioned_json(path, config)
    if payload is None or "outcomes" not in payload:
        if path.exists():
            logger.warning(
                "campaign shard %s failed validation; quarantining and "
                "recomputing its cell", path,
            )
            quarantine_file(path)
        return None
    return [_outcome_from_dict(d) for d in payload["outcomes"]]


def _write_shard(
    path: Path, config: dict, outcomes: List[RunOutcome], injector=None
) -> None:
    atomic_write_json(
        path,
        versioned_payload(
            config, {"outcomes": [_outcome_to_dict(o) for o in outcomes]}
        ),
    )
    if injector is not None:
        injector.on_file_written(path)


def get_campaign(
    scenario: str,
    scale: Optional[Scale] = None,
    cache_dir: Optional[Path] = None,
    force_rerun: bool = False,
    progress=None,
    jobs: Optional[int] = None,
    injector=None,
) -> CampaignResult:
    """Load, resume, or execute the campaign for ``scenario`` at ``scale``.

    Only the cells without a valid cache shard execute (fanned out over
    ``jobs`` worker processes, default ``REPRO_JOBS``); each finished
    cell is checkpointed immediately, so interrupting and re-invoking
    continues where the previous run stopped.  Shards that fail JSON or
    version/integrity validation are quarantined and recomputed rather
    than trusted or crashed on.  The merged outcome list is identical to
    one uncached :meth:`CampaignRunner.run_campaign` call, whatever the
    worker count and however many resume round-trips it took.

    ``injector`` threads a :class:`repro.testing.faults.ChaosInjector`
    into both the worker fan-out and the shard writes (chaos tests only).
    """
    if scenario not in ("A", "B"):
        raise ValueError("scenario must be 'A' or 'B'")
    scale = scale or current_scale()
    shard_dir = campaign_cache_path(scenario, scale, cache_dir)
    if force_rerun and shard_dir.exists():
        shutil.rmtree(shard_dir)

    thresholds = get_thresholds(scale, cache_dir, jobs=jobs)
    config = campaign_config(scenario, scale, thresholds)

    # A meta mismatch (schema bump, changed grid/durations/thresholds)
    # invalidates every shard in the directory.
    meta_path = shard_dir / "meta.json"
    if shard_dir.exists() and load_versioned_json(meta_path, config) is None:
        shutil.rmtree(shard_dir)
    if not meta_path.exists():
        atomic_write_json(
            meta_path,
            versioned_payload(
                config, {"grid": config["errors"], "periods": config["periods_ms"]}
            ),
        )
        if injector is not None:
            injector.on_file_written(meta_path)

    runner = _make_runner(scale, thresholds, progress, jobs, injector)
    cells = runner.plan_cells(
        scenario,
        error_values=config["errors"],
        periods_ms=config["periods_ms"],
    )
    seeds = runner.repetition_seeds(scale.repetitions)

    per_cell: Dict[int, List[RunOutcome]] = {}
    missing: List[int] = []
    for index in range(len(cells)):
        cached = _load_shard_outcomes(_cell_shard_path(shard_dir, index), config)
        if cached is None:
            missing.append(index)
        else:
            per_cell[index] = cached

    if missing:
        index_of = {cells[i]: i for i in missing}
        references = runner.compute_references(seeds)
        for cell, outcomes in runner.iter_cells(
            [cells[i] for i in missing], seeds, references
        ):
            index = index_of[cell]
            per_cell[index] = outcomes
            _write_shard(
                _cell_shard_path(shard_dir, index), config, outcomes, injector
            )

    ff_path = _fault_free_shard_path(shard_dir)
    fault_free = _load_shard_outcomes(ff_path, config)
    if fault_free is None:
        ff_runs = scale.fault_free_runs
        if ff_runs <= 0:
            ff_runs = runner.default_fault_free_runs(cells, scale.repetitions)
        fault_free = runner.run_fault_free_batch(runner.fault_free_seeds(ff_runs))
        _write_shard(ff_path, config, fault_free, injector)

    result = CampaignResult(scenario=scenario)
    for index in range(len(cells)):
        result.outcomes.extend(per_cell[index])
    result.outcomes.extend(fault_free)
    return result


def get_both_campaigns(
    scale: Optional[Scale] = None,
    cache_dir: Optional[Path] = None,
    progress=None,
    jobs: Optional[int] = None,
) -> Dict[str, CampaignResult]:
    """Both scenarios' campaigns."""
    return {
        "A": get_campaign("A", scale, cache_dir, progress=progress, jobs=jobs),
        "B": get_campaign("B", scale, cache_dir, progress=progress, jobs=jobs),
    }
