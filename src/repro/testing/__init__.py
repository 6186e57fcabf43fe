"""Chaos engineering and golden-trace tooling for the execution engine.

The paper's claim — detection runs *before* corrupted commands reach the
robot — makes the reproduction's own pipeline reliability part of the
result: a campaign runner that silently drops shards or diverges between
serial and parallel modes corrupts Table IV / Figure 9 exactly like a
TOCTOU attack corrupts DAC commands.  This package applies the paper's
own fault-injection discipline to the execution engine itself:

- :mod:`repro.testing.faults` — a seedable, deterministic fault plan
  (:class:`FaultPlan`) and injector (:class:`ChaosInjector`) that make
  engine workers raise, crash (SIGKILL), or hang at chosen task indices
  and attempts, and corrupt cache shards (truncate, bit-flip, delete,
  stale meta) the moment they are written;
- :mod:`repro.testing.golden` — golden-trace fingerprints
  (:class:`GoldenStore`) pinning canonical simulation outputs so serial,
  parallel, and resumed-from-interrupt execution stay bit-identical.

Production paths pay nothing for any of this: the engine consults the
injector hook only when a ``REPRO_CHAOS_PLAN`` environment variable or an
explicit ``injector=`` argument is present.
"""

from repro.testing.faults import (
    CACHE_FAULT_KINDS,
    FLEET_FAULT_KINDS,
    TASK_FAULT_KINDS,
    ChaosFault,
    ChaosInjector,
    FaultPlan,
    FaultSpec,
)
from repro.testing.golden import GoldenStore, campaign_fingerprint

__all__ = [
    "CACHE_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "TASK_FAULT_KINDS",
    "ChaosFault",
    "ChaosInjector",
    "FaultPlan",
    "FaultSpec",
    "GoldenStore",
    "campaign_fingerprint",
]
