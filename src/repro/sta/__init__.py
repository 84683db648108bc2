"""Sign-off static timing analysis (Innovus ``timeDesign -postRoute``
substitute).

Given a netlist, a Steiner forest and (optionally) a global-route
solution, the engine extracts per-net RC trees, computes Elmore wire
delays with PERI slew degradation, looks cell delays up in the NLDM
library, and runs a PERT (topological) traversal to produce per-pin
arrival times and endpoint slacks.  WNS / TNS / #Vios follow Eq. (1)
of the paper.

Two operating points:

* ``route_result=None`` — *pre-route* timing on raw Steiner geometry
  with a default layer (what early-stage estimators see);
* ``route_result=<GlobalRouteResult>`` — *sign-off* timing on routed
  lengths, assigned layers and vias (the label oracle for the GNN and
  the metric reported in all tables).
"""

from repro.sta.engine import STAEngine, TimingReport
from repro.sta.incremental import IncrementalSTA
from repro.sta.metrics import timing_metrics
from repro.sta.paths import TimingPath, extract_critical_paths, trace_path
from repro.sta.hold import HoldReport, run_hold_analysis

__all__ = [
    "STAEngine",
    "TimingReport",
    "IncrementalSTA",
    "timing_metrics",
    "TimingPath",
    "extract_critical_paths",
    "trace_path",
    "HoldReport",
    "run_hold_analysis",
]
