"""Scenario-batched PERT kernels: a leading scenario axis over flat STA.

These are line-by-line mirrors of :mod:`repro.sta.engine`'s vectorized
kernels with every per-pin array widened to ``(S, n_pins)`` — one row
per scenario — over the *shared* levelized topology.  Per-scenario
physics enters through three inputs only:

* ``wire_delay`` / ``wire_deg`` / ``net_load`` rows carry each
  scenario's derated Elmore results (wire R/C derates);
* ``cell_derate`` (``(S, 1)``, or ``None`` when every row is 1.0)
  scales NLDM delays and output slews;
* ``early=True`` flips the arc reduction from latest (setup) to
  earliest (hold) arrival.

Every operation is elementwise or an ``axis=1`` segmented reduction, so
each row of the batch is bitwise-identical to running the unbatched
kernel on that scenario alone — the property the MCMM parity tests pin
down (tests/test_mcmm.py).  A neutral row (all derates exactly 1.0)
reproduces today's single-scenario engine bit for bit because
``x * 1.0`` is a bitwise no-op on finite floats.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.pdk.clocks import ClockSpec
from repro.sta import flat as flatmod
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW,
    LevelizedPins,
    PertLevel,
    STAEngine,
    _arc_tables,
)


def launch_arrays_batched(
    engine: STAEngine, clocks: Sequence[ClockSpec]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fresh ``(S, n_pins)`` arrival/slew arrays with per-scenario launch."""
    n_pins = engine.netlist.num_pins
    S = len(clocks)
    arrival = np.full((S, n_pins), np.nan)
    slew = np.full((S, n_pins), DEFAULT_INPUT_SLEW)
    pi = np.array(
        [port.index for port in engine.netlist.primary_inputs()], dtype=np.int64
    )
    ck = np.array(sorted(engine._clock_pins), dtype=np.int64)
    for s, clock in enumerate(clocks):
        launch = clock.launch_time()
        if pi.size:
            arrival[s, pi] = launch + clock.input_delay
        if ck.size:
            arrival[s, ck] = launch
    return arrival, slew


def _eval_cell_arcs_batched(
    pert: LevelizedPins,
    lv: PertLevel,
    arrival: np.ndarray,
    slew: np.ndarray,
    net_load: np.ndarray,
    dest_net: np.ndarray,
    start: np.ndarray,
    counts: np.ndarray,
    arc_rows: Optional[np.ndarray],
    cell_derate: Optional[np.ndarray],
    early: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched max/min-arrival and winner slew per destination.

    Mirrors ``engine._eval_cell_arcs`` with arrays shaped ``(S, .)``;
    ``early`` selects the hold-style earliest-arrival reduction.
    Returns ``(best, winner_slew, valid)`` each ``(S, n_dests)``.
    """
    cell_in = lv.cell_in if arc_rows is None else lv.cell_in[arc_rows]
    n_arc = cell_in.size
    S = arrival.shape[0]
    a_in = arrival[:, cell_in]
    s_in = slew[:, cell_in]
    safe_net = np.maximum(dest_net, 0)
    load_dest = np.where(dest_net >= 0, net_load[:, safe_net], 0.0)
    load_arc = np.repeat(load_dest, counts, axis=1)
    delays, oslews = _arc_tables(pert, lv, arc_rows, s_in, load_arc)
    # PVT derate on cell timing; 1.0 rows are bitwise no-ops, so an
    # all-neutral block passes None and skips the multiply.
    if cell_derate is not None:
        delays *= cell_derate
        oslews *= cell_derate
    sentinel = np.inf if early else -np.inf
    cand = np.where(np.isnan(a_in), sentinel, a_in + delays)
    seg_starts = start[:-1]
    reduce = np.minimum if early else np.maximum
    best = reduce.reduceat(cand, seg_starts, axis=1)
    # First arc achieving the best wins ties, found as a flat index into
    # the (S, n_arc) block so the winner slew is a single 1-D gather.
    n_flat = S * n_arc
    flat_ids = np.arange(n_flat, dtype=np.int64).reshape(S, n_arc)
    masked = np.where(cand == np.repeat(best, counts, axis=1), flat_ids, n_flat)
    first = np.minimum.reduceat(masked, seg_starts, axis=1)
    valid = best < np.inf if early else best > -np.inf
    gather = oslews.ravel()[np.minimum(first, max(n_flat - 1, 0))]
    winner_slew = np.where(valid, gather, DEFAULT_INPUT_SLEW)
    return best, winner_slew, valid


def propagate_levels_batched(
    pert: LevelizedPins,
    arrival: np.ndarray,
    slew: np.ndarray,
    wire_delay: np.ndarray,
    wire_slew_deg: np.ndarray,
    net_load: np.ndarray,
    net_has_tree: np.ndarray,
    cell_derate: Optional[np.ndarray],
    early: bool = False,
) -> None:
    """One full batched PERT pass over all levels (in place).

    All per-pin/per-net inputs carry a leading scenario axis except the
    shared ``net_has_tree`` topology mask.
    """
    for lv in pert.levels:
        if lv.net_dst.size:
            src, dst = lv.net_src, lv.net_dst
            a_drv = arrival[:, src]
            ok = ~np.isnan(a_drv)
            arrival[:, dst] = np.where(ok, a_drv + wire_delay[:, dst], arrival[:, dst])
            s_drv = slew[:, src]
            has_t = net_has_tree[lv.net_net]
            peri = np.sqrt(s_drv * s_drv + wire_slew_deg[:, dst])
            slew[:, dst] = np.where(
                ok, np.where(has_t, peri, s_drv), slew[:, dst]
            )
        if lv.cell_dest.size:
            best, winner_slew, valid = _eval_cell_arcs_batched(
                pert, lv, arrival, slew, net_load,
                lv.cell_dest_net, lv.cell_start, lv.cell_counts, None,
                cell_derate, early,
            )
            dsts = lv.cell_dest
            arrival[:, dsts] = np.where(valid, best, arrival[:, dsts])
            slew[:, dsts] = np.where(valid, winner_slew, slew[:, dsts])


def propagate_from_batched(
    pert: LevelizedPins,
    arrival: np.ndarray,
    slew: np.ndarray,
    wire_delay: np.ndarray,
    wire_slew_deg: np.ndarray,
    net_load: np.ndarray,
    net_has_tree: np.ndarray,
    cell_derate: Optional[np.ndarray],
    recompute: np.ndarray,
    early: bool = False,
) -> int:
    """Batched levelized cone propagation from a seeded frontier.

    ``recompute`` is a shared ``(n_pins,)`` seed mask — the union over
    scenarios of pins whose wire timing or driver load changed.  The
    frontier mask is likewise shared (a pin re-evaluates everywhere if
    it changed in *any* scenario); rows whose inputs did not change
    recompute to bitwise-equal values, so the result matches a full
    batched pass exactly.  Returns the number of levels touched.
    """
    changed = np.zeros(pert.n_pins, dtype=bool)
    levels_touched = 0
    for lv in pert.levels:
        level_touched = False
        if lv.net_dst.size:
            m = recompute[lv.net_dst] | changed[lv.net_src]
            if m.any():
                level_touched = True
                src = lv.net_src[m]
                dst = lv.net_dst[m]
                a_drv = arrival[:, src]
                ok = ~np.isnan(a_drv)
                new_a = np.where(ok, a_drv + wire_delay[:, dst], np.nan)
                s_drv = slew[:, src]
                ht = net_has_tree[lv.net_net[m]]
                peri = np.sqrt(s_drv * s_drv + wire_slew_deg[:, dst])
                new_s = np.where(
                    ok, np.where(ht, peri, s_drv), DEFAULT_INPUT_SLEW
                )
                old_a = arrival[:, dst]
                ch = ~((new_a == old_a) | (np.isnan(new_a) & np.isnan(old_a)))
                ch |= new_s != slew[:, dst]
                arrival[:, dst] = new_a
                slew[:, dst] = new_s
                changed[dst] |= ch.any(axis=0)
        if lv.cell_dest.size:
            dsel = recompute[lv.cell_dest]
            if lv.cell_in.size:
                dsel = dsel | np.logical_or.reduceat(
                    changed[lv.cell_in], lv.cell_start[:-1]
                )
            idx = np.flatnonzero(dsel)
            if idx.size == 0:
                if level_touched:
                    levels_touched += 1
                continue
            level_touched = True
            starts = lv.cell_start[:-1][idx]
            ends = lv.cell_start[1:][idx]
            arc_rows = flatmod._expand_ranges(starts, ends)
            counts = ends - starts
            sub_start = np.zeros(idx.size + 1, dtype=np.int64)
            np.cumsum(counts, out=sub_start[1:])
            best, wslew, valid = _eval_cell_arcs_batched(
                pert, lv, arrival, slew, net_load,
                lv.cell_dest_net[idx], sub_start, counts, arc_rows,
                cell_derate, early,
            )
            dsts = lv.cell_dest[idx]
            new_a = np.where(valid, best, np.nan)
            old_a = arrival[:, dsts]
            ch = ~((new_a == old_a) | (np.isnan(new_a) & np.isnan(old_a)))
            ch |= wslew != slew[:, dsts]
            arrival[:, dsts] = new_a
            slew[:, dsts] = wslew
            changed[dsts] |= ch.any(axis=0)
        if level_touched:
            levels_touched += 1
    return levels_touched


__all__ = [
    "launch_arrays_batched",
    "propagate_levels_batched",
    "propagate_from_batched",
]
