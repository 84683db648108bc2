"""PVT corner model for multi-corner sign-off (docs/MCMM.md).

A :class:`Corner` bundles the derating knobs one process/voltage/
temperature point applies on top of the nominal technology data:

* ``cell_derate`` scales every NLDM cell delay and output slew;
* ``wire_r_derate`` / ``wire_c_derate`` scale interconnect resistance
  and wire capacitance (pin caps are library data and stay nominal);
* ``setup_margin`` / ``hold_margin`` add to the library setup/hold
  requirements at register data pins;
* ``uncertainty_scale`` scales the clock uncertainty (slow corners are
  usually signed off with extra jitter pessimism).

``check`` selects which analysis the corner participates in: a
``"setup"`` corner is timed with latest (max) arrivals against the
capture edge, a ``"hold"`` corner with earliest (min) arrivals against
the same-cycle race condition.  The named presets below are
130 nm-plausible rather than extracted, matching the rest of the PDK
substrate (docs/SUBSTRATE.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

#: assumed register hold requirement (ns); libraries would provide this
DEFAULT_HOLD_TIME = 0.03


@dataclass(frozen=True)
class Corner:
    """One PVT corner: derates applied on top of the nominal library."""

    name: str
    check: str = "setup"  # "setup" (late/max) or "hold" (early/min)
    cell_derate: float = 1.0
    wire_r_derate: float = 1.0
    wire_c_derate: float = 1.0
    setup_margin: float = 0.0  # ns, added to library setup times
    hold_margin: float = 0.0  # ns, added to the hold requirement
    uncertainty_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.check not in ("setup", "hold"):
            raise ValueError(f"corner check must be 'setup' or 'hold', got {self.check!r}")
        for field in ("cell_derate", "wire_r_derate", "wire_c_derate", "uncertainty_scale"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.setup_margin < 0 or self.hold_margin < 0:
            raise ValueError("margins cannot be negative")

    @property
    def is_neutral(self) -> bool:
        """True when the corner leaves nominal timing untouched."""
        return (
            self.check == "setup"
            and self.cell_derate == 1.0
            and self.wire_r_derate == 1.0
            and self.wire_c_derate == 1.0
            and self.setup_margin == 0.0
            and self.hold_margin == 0.0
            and self.uncertainty_scale == 1.0
        )

    @property
    def delay_scale(self) -> float:
        """Scalar first-order path-delay scale under this corner.

        Cell delay scales with ``cell_derate``; an Elmore wire delay is
        a sum of R*C products, so uniform R and C derates scale it by
        their product — the geometric mean ``sqrt(r*c)`` applied twice.
        Used by the refinement surrogate (repro.mcmm.penalty), not by
        the exact batched STA, which derates R and C separately.
        """
        return self.cell_derate * math.sqrt(self.wire_r_derate * self.wire_c_derate)

    @property
    def wire_key(self) -> Tuple[float, float]:
        """Hashable (R derate, C derate) pair — scenarios sharing it
        share one Elmore pass in the batched STA."""
        return (self.wire_r_derate, self.wire_c_derate)


#: Named corner presets.  ``typ`` is the exact nominal point the
#: single-scenario engine has always timed.
PRESET_CORNERS: Dict[str, Corner] = {
    c.name: c
    for c in (
        Corner("typ"),
        Corner(
            "slow_setup",
            check="setup",
            cell_derate=1.12,
            wire_r_derate=1.10,
            wire_c_derate=1.06,
            setup_margin=0.01,
            uncertainty_scale=1.2,
        ),
        Corner(
            "fast_hold",
            check="hold",
            cell_derate=0.88,
            wire_r_derate=0.92,
            wire_c_derate=0.96,
            hold_margin=0.005,
        ),
        Corner(
            "slow_cold",
            check="setup",
            cell_derate=1.06,
            wire_r_derate=1.15,
            wire_c_derate=1.02,
            setup_margin=0.005,
            uncertainty_scale=1.1,
        ),
        Corner(
            "fast_setup",
            check="setup",
            cell_derate=0.90,
            wire_r_derate=0.94,
            wire_c_derate=0.97,
        ),
    )
}


def get_corner(name: str) -> Corner:
    """Look a preset corner up by name."""
    try:
        return PRESET_CORNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown corner {name!r}; presets: {', '.join(sorted(PRESET_CORNERS))}"
        ) from None
