"""Simulated-annealing baseline arm over the ECO op space (docs/ECO.md).

Classic Metropolis acceptance on the same merged penalty score the
greedy driver maximizes, with a geometric cooling schedule
``T_k = t0 * alpha**k``.  Everything is driven by one
``numpy.random.default_rng(seed)`` stream: proposals index into the
*current* netlist/forest, so the whole trajectory — and therefore the
accepted-op digest — is a pure function of (design state, config).
That determinism is what the ``eco-smoke`` CI job asserts.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.eco.ops import BufferInsertOp, EcoOp, NudgeOp, RerouteOp, ResizeOp
from repro.mcmm.sta import ScenarioReport
from repro.obs import get_telemetry
from repro.runtime.budget import Budget


def _propose(ctx, rng: np.random.Generator, config) -> Optional[EcoOp]:
    """One random op against the current state; None when the draw is
    inapplicable (counts as a cooling step, keeping the schedule pure)."""
    netlist = ctx.netlist
    forest = ctx.forest
    lib = netlist.library
    kind = int(rng.integers(4))
    # A draw outside the configured op space is inapplicable too — the
    # rng consumption stays identical across op_kinds settings.
    if ("buffer", "resize", "reroute", "nudge")[kind] not in config.op_kinds:
        return None
    if kind == 0:  # buffer insertion on a random net edge
        if not netlist.nets:
            return None
        net = netlist.nets[int(rng.integers(len(netlist.nets)))]
        if not net.sinks:
            return None
        sink = net.sinks[int(rng.integers(len(net.sinks)))]
        if not config.buffer_cells:
            return None
        cell = config.buffer_cells[int(rng.integers(len(config.buffer_cells)))]
        if cell not in lib:
            return None
        return BufferInsertOp(net.index, sink, cell)
    if kind == 1:  # resize to a random sibling drive strength
        if not netlist.cells:
            return None
        cell = netlist.cells[int(rng.integers(len(netlist.cells)))]
        ct = cell.cell_type
        if ct.is_sequential:
            return None
        others = [v for v in lib.variants_of(ct) if v.name != ct.name]
        if not others:
            return None
        to = others[int(rng.integers(len(others)))]
        return ResizeOp(cell.index, to, from_name=ct.name)
    if kind == 2:  # re-route a random tree
        if not forest.trees:
            return None
        tree = forest.trees[int(rng.integers(len(forest.trees)))]
        return RerouteOp(tree.net_index)
    # Steiner nudge on a random tree
    if not forest.trees:
        return None
    tree = forest.trees[int(rng.integers(len(forest.trees)))]
    if tree.n_steiner == 0:
        return None
    steps = config.polish_steps or (3.0,)
    step = steps[int(rng.integers(len(steps)))]
    dx, dy = ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step))[int(rng.integers(4))]
    return NudgeOp(tree.net_index, dx, dy)


def run_sa(
    ctx,
    config,
    result,
    report: ScenarioReport,
    budget: Optional[Budget] = None,
    on_round: Optional[Callable[[int], None]] = None,
) -> ScenarioReport:
    """Anneal over the op space from ``report`` (the caller's query of
    the starting state); returns the final scenario report.

    Mutates ``ctx`` in place and fills the bookkeeping fields of
    ``result`` (an :class:`repro.eco.driver.EcoResult`).
    """
    from repro.eco.driver import _op_area, score_report

    tel = get_telemetry()
    rng = np.random.default_rng(config.seed)
    score_cur = score_report(report)
    for step in range(config.sa_steps):
        if report.merged_violations == 0:
            break
        if budget is not None and budget.expired():
            result.timed_out = True
            break
        temp = config.sa_t0 * config.sa_alpha**step
        op = _propose(ctx, rng, config)
        result.proposals += 1
        if op is None:
            continue
        if on_round is not None:
            on_round(step + 1)
        result.rounds = step + 1
        ctx.apply(op)
        if budget is not None:
            budget.spend_probe()
        new_report = ctx.run()
        new_score = score_report(new_report)
        result.trials += 1
        ds = new_score - score_cur
        if ds > 0.0:
            accept = True
        else:
            accept = float(rng.random()) < math.exp(ds / max(temp, 1e-9))
        if accept:
            ctx.accept()
            report, score_cur = new_report, new_score
            result.accepted.append(op.describe())
            result.area_delta += _op_area(ctx, op)
            result.history.append(
                {"op": op.describe(), "score": new_score,
                 "wns": new_report.merged_wns, "tns": new_report.merged_tns}
            )
            if tel.enabled:
                tel.count("eco.ops_accepted")
        else:
            ctx.revert(op)
            result.reverted += 1
            if tel.enabled:
                tel.count("eco.ops_reverted")
    return report


__all__ = ["run_sa"]
