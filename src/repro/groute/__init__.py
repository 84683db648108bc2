"""Global routing substrate (CUGR stand-in).

Pattern routing (L/Z) with congestion-aware costs, negotiation-style
rip-up-and-reroute with history costs, maze routing fallback, and
timing-aware layer assignment.  The output is columnar: one row per
tree edge, which the sign-off STA engine converts to RC.
"""

from repro.groute.router import GlobalRouter, GlobalRouteResult, RouterConfig
from repro.groute.flat_route import (
    FlatRouteResult,
    estimate_congestion,
    pattern_route_flat,
)
from repro.groute.layer_assign import assign_layers

__all__ = [
    "GlobalRouter",
    "GlobalRouteResult",
    "RouterConfig",
    "FlatRouteResult",
    "estimate_congestion",
    "pattern_route_flat",
    "assign_layers",
]
