"""MCMM scenario engine: multi-corner/multi-mode sign-off (docs/MCMM.md).

Makes every sign-off query scenario-aware:

* :mod:`repro.mcmm.scenario` — `Corner` x `Mode` scenario model with
  named presets (``typ``, ``slow_setup``, ``fast_hold``, …);
* :mod:`repro.mcmm.sta` — `ScenarioSTA`, the incremental cross-scenario
  facade with per-scenario and merged WNS/TNS/violations, over the
  scenario-batched PERT kernels of :mod:`repro.sta.engine`;
* :mod:`repro.mcmm.penalty` — the LSE-merged worst-over-scenarios
  refinement penalty;
* :mod:`repro.mcmm.prune` — dominance pruning of non-critical scenarios
  during refinement.

A one-element neutral `ScenarioSet` is contractually bitwise-identical
to the pre-MCMM single-scenario path.
"""

from repro.mcmm.scenario import (
    Mode,
    NEUTRAL_HOLD,
    PRESET_MODES,
    Scenario,
    ScenarioSet,
    get_mode,
)
from repro.mcmm.sta import ScenarioMetrics, ScenarioReport, ScenarioSTA
from repro.mcmm.penalty import ScenarioPenalty
from repro.mcmm.prune import DominancePruner

__all__ = [
    "Mode",
    "NEUTRAL_HOLD",
    "PRESET_MODES",
    "Scenario",
    "ScenarioSet",
    "get_mode",
    "ScenarioMetrics",
    "ScenarioReport",
    "ScenarioSTA",
    "ScenarioPenalty",
    "DominancePruner",
]
