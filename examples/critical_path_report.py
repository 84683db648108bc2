#!/usr/bin/env python3
"""Sign-off analysis deep-dive: critical paths, hold check, visuals.

Runs the baseline flow on ``cic_decimator``, prints the three worst
setup paths pin-by-pin (the `report_timing` view), the routed hold
sign-off summary, an ASCII congestion heat map, a slack histogram, and writes an
SVG rendering of the placed-and-Steinerized die to
``cic_decimator.svg``.

Run:  python examples/critical_path_report.py
"""

from pathlib import Path

from repro import viz
from repro.flow import prepare_design, run_routing_flow
from repro.sta import extract_critical_paths

DESIGN = "cic_decimator"


def main() -> None:
    netlist, forest = prepare_design(DESIGN)
    result = run_routing_flow(netlist, forest)
    report = result.report

    print(f"{DESIGN}: WNS {report.wns:.3f} ns, TNS {report.tns:.3f} ns, "
          f"{report.num_violations} violating endpoints\n")

    print("=== worst setup paths ===")
    for path in extract_critical_paths(netlist, report, n_paths=3):
        print(path.format())
        print()

    print("=== hold sign-off ===")
    hold = result.hold_report
    print(f"worst hold slack {hold.wns:+.4f} ns, "
          f"{hold.num_violations} hold violations\n")

    print("=== endpoint slack distribution ===")
    print(viz.slack_histogram_ascii(report.slack))
    print()

    print("=== GCell congestion ===")
    from repro.routegrid import GCellGrid
    from repro.groute import GlobalRouter

    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    GlobalRouter(grid).route(forest)
    print(viz.congestion_ascii(grid.utilization_map()))

    svg_path = Path(f"{DESIGN}.svg")
    svg_path.write_text(viz.render_design_svg(netlist, forest, congestion=grid.utilization_map()))
    print(f"\nwrote {svg_path} — open it in a browser to see the die.")


if __name__ == "__main__":
    main()
