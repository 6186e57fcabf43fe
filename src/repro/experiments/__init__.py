"""Experiment drivers regenerating every table and figure of the paper.

Each module reproduces one artifact:

- :mod:`repro.experiments.table1` — attack-variant impact matrix (Table I);
- :mod:`repro.experiments.table2` — syscall-wrapper overhead (Table II);
- :mod:`repro.experiments.fig5` — USB byte patterns, one run (Figure 5);
- :mod:`repro.experiments.fig6` — state inference across runs (Figure 6);
- :mod:`repro.experiments.fig8` — dynamic-model validation (Figure 8);
- :mod:`repro.experiments.table4` — detection performance (Table IV);
- :mod:`repro.experiments.fig9` — detection probability surfaces (Figure 9).

Experiment sizes follow the ``REPRO_SCALE`` environment variable
(``smoke`` / ``default`` / ``paper``); expensive intermediates (thresholds,
campaign outcomes) are cached under ``.cache/`` so repeated benchmark runs
are fast.
"""

from repro.experiments.batch import (
    CommandStream,
    ReplayLaneConfig,
    ReplayResult,
    replay_detector_batched,
    replay_detector_scalar,
)
from repro.experiments.scale import Scale, current_scale

__all__ = [
    "CommandStream",
    "ReplayLaneConfig",
    "ReplayResult",
    "Scale",
    "current_scale",
    "replay_detector_batched",
    "replay_detector_scalar",
]
