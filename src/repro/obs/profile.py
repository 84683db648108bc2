"""Span-tree self-time profiler: hotspot attribution from a trace.

``summarize_spans`` in :mod:`repro.obs.report` totals *inclusive*
durations per span name, which double-counts nesting: ``refine``
contains ``sta_update`` contains ``arrival_forward``, so their totals
overlap and the table cannot answer "where did the wall time actually
go?".  This module computes **self time** — a span's duration minus
the durations of its *direct* children — from the ``span_end`` stream
(each event carries ``span``/``parent`` ids and ``dur``).  Self times
partition wall time exactly: for a trace whose spans all closed, the
self-time total equals the summed duration of the root spans to float
rounding, which ``python -m repro report --profile`` states and the
tests assert.

Two aggregations are produced:

* **hotspots** — per span *name*: calls, inclusive total, self total,
  self share of wall;
* **flame table** — per root-to-span *path* (names joined by ``;``),
  rendered as an indented tree in start order — a text flame graph.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["summarize_profile", "render_profile"]


def summarize_profile(
    events: Sequence[Dict[str, Any]], top: int = 15
) -> Optional[Dict[str, Any]]:
    """Aggregate self-time hotspots from a trace's ``span_end`` events.

    Returns None when the trace has no spans.  ``top`` bounds the
    hotspot table (the flame tree keeps every path).
    """
    ends = [e for e in events if e.get("kind") == "span_end"]
    if not ends:
        return None
    # Direct-children inclusive time per parent span id.
    child_dur: Dict[Any, float] = {}
    for ev in ends:
        parent = ev.get("parent")
        if parent is not None:
            child_dur[parent] = child_dur.get(parent, 0.0) + float(
                ev.get("dur", 0.0)
            )
    # Span id -> its end event, to rebuild root-to-span name paths.
    by_id = {ev.get("span"): ev for ev in ends}

    def path_of(ev: Dict[str, Any]) -> str:
        names: List[str] = []
        cursor: Optional[Dict[str, Any]] = ev
        hops = 0
        while cursor is not None and hops < 64:  # cycle guard
            names.append(str(cursor.get("name", "?")))
            cursor = by_id.get(cursor.get("parent"))
            hops += 1
        return ";".join(reversed(names))

    hotspots: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
    flame: Dict[str, Dict[str, float]] = {}
    first_start: Dict[str, int] = {}
    wall = 0.0
    self_total = 0.0
    for ev in ends:
        name = str(ev.get("name", "?"))
        dur = float(ev.get("dur", 0.0))
        self_t = dur - child_dur.get(ev.get("span"), 0.0)
        self_total += self_t
        if ev.get("parent") is None:
            wall += dur
        agg = hotspots.setdefault(
            name, {"calls": 0, "total": 0.0, "self": 0.0, "errors": 0}
        )
        agg["calls"] += 1
        agg["total"] += dur
        agg["self"] += self_t
        if ev.get("status") == "error":
            agg["errors"] += 1
        path = path_of(ev)
        span_id = ev.get("span")
        if isinstance(span_id, int):
            first_start[path] = min(first_start.get(path, span_id), span_id)
        pagg = flame.setdefault(path, {"calls": 0, "total": 0.0, "self": 0.0})
        pagg["calls"] += 1
        pagg["total"] += dur
        pagg["self"] += self_t
    ranked = sorted(hotspots.items(), key=lambda kv: -kv[1]["self"])
    return {
        "spans": len(ends),
        "wall": wall,
        "self_total": self_total,
        "hotspots": [
            {"name": name, **agg} for name, agg in ranked[: max(1, int(top))]
        ],
        # ``span_end`` events arrive children first; span ids rise in
        # start order, so ordering paths by their first span puts every
        # parent above its children.
        "flame": [
            {"path": path, **flame[path]}
            for path in sorted(flame, key=lambda p: first_start.get(p, 0))
        ],
    }


def render_profile(profile: Dict[str, Any]) -> List[str]:
    """Text lines for the ``--profile`` report section."""
    from repro.obs.report import _table  # local import avoids a cycle

    wall = profile["wall"] or 1.0
    lines: List[str] = []
    lines.append(
        f"Profile: {profile['spans']} spans, wall {profile['wall']:.4f} s, "
        f"self-time total {profile['self_total']:.4f} s"
    )
    rows = []
    for h in profile["hotspots"]:
        rows.append(
            [
                h["name"],
                h["calls"],
                f"{h['total']:.4f}",
                f"{h['self']:.4f}",
                f"{100.0 * h['self'] / wall:.1f}%",
                h["errors"],
            ]
        )
    lines.extend(
        _table(
            ["span", "calls", "total_s", "self_s", "self%", "errors"], rows
        )
    )
    lines.append("")
    lines.append("Flame (self-time by call path)")
    for entry in profile["flame"]:
        parts = entry["path"].split(";")
        indent = "  " * (len(parts) - 1)
        lines.append(
            f"  {indent}{parts[-1]}  calls {entry['calls']}  "
            f"self {entry['self']:.4f}s  ({100.0 * entry['self'] / wall:.1f}%)"
        )
    return lines
