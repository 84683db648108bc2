"""Scenario model: operating modes and corner x mode scenario sets.

A *scenario* is the unit every sign-off query is judged against in
MCMM flows: one PVT :class:`~repro.pdk.corners.Corner` combined with
one operating :class:`Mode`.  A :class:`ScenarioSet` is the cross
product the design must close simultaneously; the merged verdict is
the worst WNS over scenarios and the summed TNS (docs/MCMM.md).

The neutral scenario (``typ`` corner, ``func`` mode) reproduces the
single-scenario engine exactly: every derate is 1.0, the clock is
unscaled and no endpoint is disabled, so a one-element neutral set is
contractually bitwise-identical to pre-MCMM behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from repro.pdk.clocks import ClockSpec
from repro.pdk.corners import Corner, get_corner


@dataclass(frozen=True)
class Mode:
    """One operating mode: a clock configuration plus false endpoints.

    ``clock_scale`` multiplies the design's base clock period (an
    overdrive mode runs a shorter cycle); ``disabled_endpoints`` lists
    endpoint pin indices excluded from the mode's WNS/TNS verdict
    (paths that are false or unused in this mode).
    """

    name: str
    clock_scale: float = 1.0
    disabled_endpoints: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.clock_scale <= 0:
            raise ValueError("clock_scale must be positive")

    @property
    def is_neutral(self) -> bool:
        return self.clock_scale == 1.0 and not self.disabled_endpoints


#: Named mode presets.  ``func`` is the nominal functional mode.
PRESET_MODES: Dict[str, Mode] = {
    m.name: m
    for m in (
        Mode("func"),
        Mode("overdrive", clock_scale=0.9),
        Mode("relaxed", clock_scale=1.25),
    )
}


def get_mode(name: str) -> Mode:
    """Look a preset mode up by name."""
    try:
        return PRESET_MODES[name]
    except KeyError:
        raise KeyError(
            f"unknown mode {name!r}; presets: {', '.join(sorted(PRESET_MODES))}"
        ) from None


@dataclass(frozen=True)
class Scenario:
    """One sign-off scenario: a corner timed under a mode."""

    corner: Corner
    mode: Mode

    @property
    def name(self) -> str:
        return f"{self.corner.name}@{self.mode.name}"

    @property
    def check(self) -> str:
        return self.corner.check

    @property
    def is_neutral(self) -> bool:
        return self.corner.is_neutral and self.mode.is_neutral

    def clock(self, base: ClockSpec) -> ClockSpec:
        """The base clock under this scenario's mode and corner.

        For the neutral scenario every factor is exactly 1.0, so the
        returned spec is value-identical to ``base`` (``x * 1.0`` is
        bitwise ``x`` for finite floats).
        """
        return ClockSpec(
            period=base.period * self.mode.clock_scale,
            uncertainty=base.uncertainty * self.corner.uncertainty_scale,
            latency=base.latency,
            input_delay=base.input_delay,
            output_delay=base.output_delay,
        )


#: The neutral hold check: nominal derates and clock, earliest arrivals
#: against the library hold requirement.  The flow's hold sign-off is
#: this scenario's row of its one sign-off pass.  It is not a preset
#: corner, so no ``--corners`` name selects it.
NEUTRAL_HOLD = Scenario(Corner("typ_hold", check="hold"), get_mode("func"))


class ScenarioSet:
    """An ordered, named collection of scenarios (corners x modes)."""

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("a ScenarioSet needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names: {names}")
        self.scenarios: Tuple[Scenario, ...] = scenarios

    # -- container protocol -------------------------------------------
    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, i: int) -> Scenario:
        return self.scenarios[i]

    def __repr__(self) -> str:
        return f"ScenarioSet({', '.join(self.names)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScenarioSet) and self.scenarios == other.scenarios

    def __hash__(self) -> int:
        return hash(self.scenarios)

    # -- queries -------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.scenarios)

    def is_single_neutral(self) -> bool:
        """True when this set is exactly the pre-MCMM single scenario.

        ``refine()`` and the flow use this to keep one-element neutral
        sets on the single-scenario objective and report, preserving
        bitwise-identical behaviour.
        """
        return len(self.scenarios) == 1 and self.scenarios[0].is_neutral

    def setup_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.scenarios) if s.check == "setup")

    def hold_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.scenarios) if s.check == "hold")

    # -- constructors --------------------------------------------------
    @staticmethod
    def from_names(
        corners: Sequence[str], modes: Sequence[str] = ("func",)
    ) -> "ScenarioSet":
        """Cross product of preset corner and mode names."""
        return ScenarioSet(
            [
                Scenario(get_corner(c), get_mode(m))
                for m in modes
                for c in corners
            ]
        )

    @staticmethod
    def default() -> "ScenarioSet":
        """The neutral single scenario (``typ@func``)."""
        return ScenarioSet.from_names(("typ",))

    @staticmethod
    def signoff() -> "ScenarioSet":
        """The three-corner sign-off set: typ, slow-setup, fast-hold."""
        return ScenarioSet.from_names(("typ", "slow_setup", "fast_hold"))
