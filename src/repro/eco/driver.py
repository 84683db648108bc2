"""Closed-loop ECO driver (docs/ECO.md).

The driver reads per-scenario slack from a :class:`ScenarioSTA`, walks
the critical path of each violating endpoint, generates candidate ops
(buffer insertion, resizing, re-routing), ranks them by estimated gain
per area cost, and validates the best few through the exact sign-off
engine: apply, re-time, accept if the MCMM-merged penalty score
improved, else revert bit-for-bit.  It iterates until sign-off is
clean, no candidate helps, or the runtime budget expires.

Three arms share the op space (``EcoConfig.arm``):

* ``greedy`` — rank-and-validate as above;
* ``sa``     — the seeded simulated-annealing baseline
  (:mod:`repro.eco.sa`);
* ``hybrid`` — greedy, plus a deterministic first-improvement Steiner
  *nudge* polish over each accepted op's dirty cone (the "gradient
  polish after each accepted discrete op" schedule).

Scoring uses the same WNS/TNS weights as the refinement penalty
(:mod:`repro.core.penalty`), so ECO verdicts and refinement verdicts
are commensurable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.penalty import PenaltyConfig
from repro.eco.ops import (
    BufferInsertOp,
    EcoOp,
    NudgeOp,
    RerouteOp,
    ResizeOp,
    _fresh_tree,
    dirty_cone,
)
from repro.mcmm.scenario import ScenarioSet
from repro.mcmm.sta import ScenarioMetrics, ScenarioReport, ScenarioSTA
from repro.netlist.netlist import Netlist
from repro.obs import get_telemetry
from repro.runtime.budget import Budget
from repro.sta.engine import STAEngine
from repro.steiner.flat_forest import flat_cache_entry, restore_flat_cache
from repro.steiner.forest import SteinerForest

#: Routing layer used for quick wire-RC gain estimates (the default
#: horizontal signal layer; estimates only rank candidates, the exact
#: engine always has the last word).
_EST_LAYER = 2

_W_WNS = abs(PenaltyConfig().lambda_wns)
_W_TNS = abs(PenaltyConfig().lambda_tns)


def score_report(report: ScenarioReport) -> float:
    """Merged penalty score; higher is better (0 when timing is clean)."""
    return _W_WNS * min(report.merged_wns, 0.0) + _W_TNS * report.merged_tns


@dataclass(frozen=True)
class EcoConfig:
    """Knobs for one ECO run; every default is deterministic."""

    arm: str = "greedy"  # greedy | sa | hybrid
    seed: int = 0
    max_ops: int = 8  # accepted discrete ops
    max_rounds: int = 12
    trials_per_round: int = 6
    top_endpoints: int = 4
    min_gain: float = 1e-9  # score must improve by more than this
    buffer_cells: Tuple[str, ...] = ("BUF_X2", "BUF_X4")
    #: Candidate op space.  The experiment's Steiner-only reference arm
    #: restricts this to ("reroute", "nudge") to measure what geometry
    #: refinement alone can close without touching the netlist.
    op_kinds: Tuple[str, ...] = ("buffer", "resize", "reroute", "nudge")
    # Hybrid polish: first-improvement nudges over the dirty cone.
    polish_steps: Tuple[float, ...] = (3.0, 6.0)  # um
    polish_trees: int = 4
    # SA baseline schedule (geometric cooling).  t0 is sized to the
    # penalty score scale: typical single-op deltas are ~0.1, so the
    # walk starts permissive and is effectively greedy by the end.
    sa_steps: int = 60
    sa_t0: float = 1.0
    sa_alpha: float = 0.88

    def __post_init__(self) -> None:
        if self.arm not in ("greedy", "sa", "hybrid"):
            raise ValueError(f"unknown ECO arm {self.arm!r}")
        bad = set(self.op_kinds) - {"buffer", "resize", "reroute", "nudge"}
        if bad:
            raise ValueError(f"unknown ECO op kinds {sorted(bad)!r}")


@dataclass
class EcoResult:
    """Outcome of one ECO run (deterministic under a fixed seed)."""

    design: str
    arm: str
    seed: int
    accepted: List[str]  # op descriptions, acceptance order
    digest: str  # sha256 of the accepted-op sequence
    initial: Dict[str, object]
    final: Dict[str, object]
    rounds: int = 0
    proposals: int = 0
    trials: int = 0
    reverted: int = 0
    rebuilds: int = 0
    area_delta: float = 0.0
    timed_out: bool = False
    history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def num_accepted(self) -> int:
        return len(self.accepted)

    def summary(self) -> Dict[str, object]:
        """JSON-able digest for the serving layer and reports."""
        return {
            "design": self.design,
            "arm": self.arm,
            "seed": self.seed,
            "accepted": list(self.accepted),
            "digest": self.digest,
            "initial": self.initial,
            "final": self.final,
            "rounds": self.rounds,
            "proposals": self.proposals,
            "trials": self.trials,
            "reverted": self.reverted,
            "rebuilds": self.rebuilds,
            "area_delta": self.area_delta,
            "timed_out": self.timed_out,
        }


def _metrics_dict(report: ScenarioReport) -> Dict[str, object]:
    return {
        "wns": report.merged_wns,
        "tns": report.merged_tns,
        "violations": report.merged_violations,
        "score": score_report(report),
        "scenarios": {
            m.name + "/" + m.check: {
                "wns": m.wns,
                "tns": m.tns,
                "violations": m.num_violations,
            }
            for m in report.scenarios
        },
    }


def _digest(descriptions: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(descriptions).encode()).hexdigest()[:16]


class EcoContext:
    """One mutable (netlist, forest, STA) triple an ECO run drives.

    Every op re-times incrementally from the state it edits.  A nudge
    re-times its moved tree through the pinned ``ScenarioSTA``'s
    dirty-tree path.  A re-route splices its new tree into the forest's
    flattening (``flat_forest_of``) and the STA re-times from its
    pre-apply state.  A netlist op (a resize, a buffer insertion) gets a
    new engine whose levelization is patched from the current one
    (:meth:`EcoOp.patch_engine`), and a new ``ScenarioSTA`` over it
    (``ScenarioSTA.adopt``) that re-times only the cone of the edit —
    no levelization and no full pass.  ``rebuilds`` counts engine
    constructions, which only a netlist-op revert out of LIFO order
    makes.

    A ``revert`` re-flattens nothing and re-times nothing: by the ops'
    LIFO apply+revert == identity contract the pre-apply flat memo
    entry, ``BatchState`` (and, for a netlist op, the pre-apply engine
    and ``ScenarioSTA``) are exact again, so they are put back.  Undo
    entries form one LIFO stack, one per apply, so nested applies
    revert newest first without a rebuild; a revert of any op but the
    newest drops the stack, and a netlist op's then rebuilds.
    :meth:`accept` drops the stack once the applied ops are to stay, so
    accepted ops hold no pre-apply engine or state.

    Given a ``sta`` (a :class:`ScenarioSTA` over this netlist and
    forest, e.g. the serving workspace's timed neutral one), the
    context starts from it and its engine instead of building its own:
    no levelization and, when the STA is timed, no full pass before the
    first op.  Its scenarios are the context's.  The run then drives
    that object, so its owner must adopt ``sta`` and ``engine`` when
    the run completes, or drop them if it does not.
    """

    def __init__(
        self,
        netlist: Netlist,
        forest: SteinerForest,
        scenarios: Optional[ScenarioSet] = None,
        sta: Optional[ScenarioSTA] = None,
    ) -> None:
        self.netlist = netlist
        self.forest = forest
        self.rebuilds = 0
        #: (op, engine, sta, sta state, flat memo entry) from before each
        #: apply since the last accept, newest last; reverting the
        #: newest op pops and restores its entry.
        self._undo: List[tuple] = []
        if sta is None:
            self.scenarios = scenarios if scenarios is not None else ScenarioSet.default()
            self._make()
            return
        if sta.netlist is not netlist or sta.forest is not forest:
            raise ValueError("EcoContext: sta must time this netlist and forest")
        self.scenarios = sta.scenarios
        self.engine = sta.engine
        self.sta = sta

    def _make(self) -> None:
        self.engine = STAEngine(self.netlist)
        self.sta = ScenarioSTA(
            self.netlist,
            self.forest,
            scenarios=self.scenarios,
            engine=self.engine,
        )

    def rebuild(self) -> None:
        self.rebuilds += 1
        self._make()

    def run(self) -> ScenarioReport:
        return self.sta.run()

    def apply(self, op: EcoOp) -> None:
        undo = (
            op, self.engine, self.sta, self.sta._state,
            flat_cache_entry(self.forest),
        )
        op.apply(self.netlist, self.forest)
        if op.mutates_netlist:
            self.engine, seeds = op.patch_engine(self.engine)
            self.sta = self.sta.adopt(self.engine, seeds)
        self._undo.append(undo)

    def accept(self) -> None:
        """Keep every op applied so far: drop their undo entries."""
        self._undo.clear()

    def revert(self, op: EcoOp) -> None:
        op.revert(self.netlist, self.forest)
        if not self._undo or self._undo[-1][0] is not op:
            # Every held entry describes a state with ``op`` applied.
            self._undo.clear()
            if op.mutates_netlist:
                self.rebuild()
            return
        _, self.engine, self.sta, state, entry = self._undo.pop()
        self.sta._state = state
        restore_flat_cache(self.forest, entry)

    def dirty_nets_of(self, op: EcoOp) -> Tuple[int, ...]:
        if isinstance(op, ResizeOp):
            return op.dirty_nets_on(self.netlist)
        return op.dirty_nets()


def evaluate_candidates(
    netlist: Netlist,
    forest: SteinerForest,
    ops: Sequence[EcoOp],
    scenarios: Optional[ScenarioSet] = None,
    context: Optional[EcoContext] = None,
) -> List[Tuple[float, float]]:
    """(merged WNS, merged TNS) per candidate op, state restored after.

    With a warm ``context`` the ops re-time incrementally; without one
    a fresh context is built first (the cold path the ``eco_loop``
    bench kernel compares against).
    """
    ctx = context if context is not None else EcoContext(netlist, forest, scenarios)
    out: List[Tuple[float, float]] = []
    for op in ops:
        ctx.apply(op)
        report = ctx.run()
        out.append((report.merged_wns, report.merged_tns))
        ctx.revert(op)
    return out


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
def _worst_setup(report: ScenarioReport) -> Optional[ScenarioMetrics]:
    ms = [m for m in report.scenarios if m.check == "setup" and m.num_violations > 0]
    return min(ms, key=lambda m: (m.wns, m.name)) if ms else None


def _worst_hold(report: ScenarioReport) -> Optional[ScenarioMetrics]:
    ms = [m for m in report.scenarios if m.check == "hold" and m.num_violations > 0]
    return min(ms, key=lambda m: (m.wns, m.name)) if ms else None


def _violating_endpoints(metrics: ScenarioMetrics, top: int) -> List[int]:
    bad = [(v, ep) for ep, v in metrics.slack.items() if v < 0.0]
    bad.sort()
    return [ep for _, ep in bad[:top]]


def _critical_path(
    netlist: Netlist,
    arrival: np.ndarray,
    endpoint: int,
    sink_net: Dict[int, "object"],
) -> List[int]:
    """Pins of the worst path into ``endpoint`` (startpoint first).

    Walks backwards: sink -> net driver -> worst-arrival cell input,
    with deterministic lowest-pin-index tie-breaks.  Stops at ports and
    sequential launch pins.
    """
    path = [endpoint]
    p = endpoint
    for _ in range(len(netlist.pins)):
        net = sink_net.get(p)
        if net is None:
            break
        d = net.driver
        path.append(d)
        pin_d = netlist.pins[d]
        if pin_d.cell_index < 0:
            break
        cell = netlist.cells[pin_d.cell_index]
        ct = cell.cell_type
        if ct.is_sequential:
            break
        best = -1
        best_a = -math.inf
        for name in ct.input_pins:
            ip = cell.pin_indices[name]
            a = float(arrival[ip]) if ip < arrival.shape[0] else math.nan
            if math.isnan(a):
                a = -math.inf
            if a > best_a or (a == best_a and (best < 0 or ip < best)):
                best_a, best = a, ip
        if best < 0:
            break
        p = best
        path.append(p)
    path.reverse()
    return path


def _net_load(netlist: Netlist, forest: SteinerForest, net) -> float:
    """Lumped load a net's driver sees: sink caps + estimated wire cap."""
    cap = sum(netlist.pins[s].cap for s in net.sinks)
    try:
        wl = forest.tree_for_net(net.index).wirelength()
    except KeyError:
        wl = 0.0
    _, c_w = netlist.technology.wire_rc(_EST_LAYER, wl)
    return cap + c_w


def _buffer_delay(ct, load: float) -> float:
    arcs = ct.arcs_to(ct.output_pins[0])
    return arcs[0].delay.lookup(0.2, load) if arcs else 0.1


def _driver_res(netlist: Netlist, driver_pin: int) -> float:
    pin = netlist.pins[driver_pin]
    if pin.cell_index < 0:
        return 5.0  # boundary port: nominal source impedance
    return netlist.cells[pin.cell_index].cell_type.drive_res


def generate_candidates(
    ctx: EcoContext, report: ScenarioReport, config: EcoConfig
) -> List[Tuple[float, EcoOp]]:
    """Ranked candidate ops for the current violations.

    Estimates use first-order drive-resistance x load products and the
    technology's per-um wire RC — deliberately cheap, fully
    deterministic, and only ever used to *order* candidates; the exact
    batched STA validates every application.  Returns
    ``(estimated gain per area cost, op)`` best first.
    """
    netlist = ctx.netlist
    forest = ctx.forest
    lib = netlist.library
    tech = netlist.technology
    pos = netlist.pin_positions()
    sink_net = {s: net for net in netlist.nets for s in net.sinks}
    driver_net = {net.driver: net for net in netlist.nets}
    cands: Dict[str, Tuple[float, EcoOp]] = {}

    def add(gain: float, cost: float, op: EcoOp) -> None:
        key = op.describe()
        ranked = gain / max(cost, 0.5)
        if key not in cands or ranked > cands[key][0]:
            cands[key] = (ranked, op)

    setup = _worst_setup(report)
    if setup is not None:
        for ep in _violating_endpoints(setup, config.top_endpoints):
            path = _critical_path(netlist, setup.arrival, ep, sink_net)
            # Net edges along the path: (driver, sink) consecutive pairs.
            for a, b in zip(path, path[1:]):
                net = sink_net.get(b)
                if net is None or net.driver != a:
                    continue
                r_d = _driver_res(netlist, a)
                dist = float(np.abs(pos[a] - pos[b]).sum())
                r_w, c_w = tech.wire_rc(_EST_LAYER, dist)
                sink_cap = netlist.pins[b].cap
                # Buffer insertion: the driver sheds the far half of the
                # wire plus the sink cap, gains the buffer input cap; the
                # buffer re-drives the remaining half.
                if "buffer" in config.op_kinds and net.degree > 1 and dist > 1.0:
                    for cell_name in config.buffer_cells:
                        if cell_name not in lib:
                            continue
                        buf = lib[cell_name]
                        in_cap = buf.input_cap(buf.input_pins[0])
                        shed = sink_cap + 0.5 * c_w - in_cap
                        down = sink_cap + 0.5 * c_w
                        gain = r_d * shed + 0.5 * r_w * down - _buffer_delay(buf, down)
                        add(gain, buf.area, BufferInsertOp(net.index, b, cell_name))
                # Re-route: only when a fresh RSMT shortens the net.
                try:
                    old_wl = forest.tree_for_net(net.index).wirelength()
                except KeyError:
                    old_wl = 0.0
                if "reroute" in config.op_kinds and old_wl > 0.0:
                    new_wl = _fresh_tree(netlist, net.index).wirelength()
                    if old_wl - new_wl > 0.01:
                        _, c_delta = tech.wire_rc(_EST_LAYER, old_wl - new_wl)
                        add(r_d * c_delta, 0.5, RerouteOp(net.index))
            # Upsize combinational cells on the path.
            for p in path if "resize" in config.op_kinds else ():
                pin = netlist.pins[p]
                if pin.cell_index < 0 or pin.direction.value != "output":
                    continue
                cell = netlist.cells[pin.cell_index]
                ct = cell.cell_type
                if ct.is_sequential:
                    continue
                variants = lib.variants_of(ct)
                names = [v.name for v in variants]
                i = names.index(ct.name)
                if i + 1 >= len(variants):
                    continue
                stronger = variants[i + 1]
                net = driver_net.get(p)
                load = _net_load(netlist, forest, net) if net is not None else 0.01
                d_cap = sum(
                    stronger.input_cap(n) - ct.input_cap(n) for n in ct.input_pins
                )
                gain = (ct.drive_res - stronger.drive_res) * load - 3.0 * d_cap
                add(
                    gain,
                    max(stronger.area - ct.area, 0.5),
                    ResizeOp(cell.index, stronger, from_name=ct.name),
                )

    hold = _worst_hold(report)
    if hold is not None:
        pad = config.buffer_cells[0] if config.buffer_cells else "BUF_X2"
        for ep in _violating_endpoints(hold, config.top_endpoints):
            net = sink_net.get(ep)
            if net is None:
                continue
            if "buffer" in config.op_kinds and pad in lib:
                buf = lib[pad]
                down = netlist.pins[ep].cap
                add(
                    _buffer_delay(buf, down),
                    buf.area,
                    BufferInsertOp(net.index, ep, pad),
                )
            # Downsize the driver to slow the short path.
            d_pin = netlist.pins[net.driver]
            if "resize" in config.op_kinds and d_pin.cell_index >= 0:
                cell = netlist.cells[d_pin.cell_index]
                ct = cell.cell_type
                if not ct.is_sequential:
                    variants = lib.variants_of(ct)
                    names = [v.name for v in variants]
                    i = names.index(ct.name)
                    if i > 0:
                        weaker = variants[i - 1]
                        load = _net_load(netlist, forest, net)
                        gain = (weaker.drive_res - ct.drive_res) * load
                        add(gain, 0.5, ResizeOp(cell.index, weaker, from_name=ct.name))

    ranked = sorted(cands.values(), key=lambda t: (-t[0], t[1].describe()))
    return ranked


# ----------------------------------------------------------------------
# Greedy / hybrid loops
# ----------------------------------------------------------------------
def _op_area(ctx: EcoContext, op: EcoOp) -> float:
    if isinstance(op, BufferInsertOp):
        return ctx.netlist.library[op.buffer_cell].area
    if isinstance(op, ResizeOp) and op._saved is not None:
        return op.to_cell.area - op._saved.area
    return 0.0


def _polish_cone(
    ctx: EcoContext,
    op: EcoOp,
    report: ScenarioReport,
    score_cur: float,
    config: EcoConfig,
    result: EcoResult,
    budget: Optional[Budget],
) -> Tuple[ScenarioReport, float]:
    """First-improvement Steiner nudges over an accepted op's cone."""
    if "nudge" not in config.op_kinds:
        return report, score_cur
    nets: List[int] = []
    for ni in ctx.dirty_nets_of(op):
        try:
            if ctx.forest.tree_for_net(ni).n_steiner > 0:
                nets.append(ni)
        except KeyError:
            continue
    for ni in sorted(nets)[: config.polish_trees]:
        if budget is not None and budget.expired():
            result.timed_out = True
            break
        improved = False
        for step in config.polish_steps:
            for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                nudge = NudgeOp(ni, dx, dy)
                ctx.apply(nudge)
                if budget is not None:
                    budget.spend_probe()
                new_report = ctx.run()
                new_score = score_report(new_report)
                result.trials += 1
                if new_score > score_cur + config.min_gain:
                    ctx.accept()
                    report, score_cur = new_report, new_score
                    result.accepted.append(nudge.describe())
                    result.history.append(
                        {"op": nudge.describe(), "score": new_score,
                         "wns": new_report.merged_wns, "tns": new_report.merged_tns}
                    )
                    improved = True
                    break
                ctx.revert(nudge)
                result.reverted += 1
            if improved:
                break
    return report, score_cur


def _run_greedy(
    ctx: EcoContext,
    config: EcoConfig,
    result: EcoResult,
    report: ScenarioReport,
    budget: Optional[Budget],
    on_round: Optional[Callable[[int], None]],
    hybrid: bool,
) -> ScenarioReport:
    tel = get_telemetry()
    score_cur = score_report(report)
    discrete = 0
    for _ in range(config.max_rounds):
        if discrete >= config.max_ops or report.merged_violations == 0:
            break
        if budget is not None and budget.expired():
            result.timed_out = True
            break
        candidates = generate_candidates(ctx, report, config)
        result.proposals += len(candidates)
        if not candidates:
            break
        result.rounds += 1
        if on_round is not None:
            on_round(result.rounds)
        if tel.enabled:
            tel.count("eco.rounds")
        progressed = False
        for _gain, op in candidates[: config.trials_per_round]:
            if budget is not None and budget.expired():
                result.timed_out = True
                break
            ctx.apply(op)
            if budget is not None:
                budget.spend_probe()
            new_report = ctx.run()
            new_score = score_report(new_report)
            result.trials += 1
            if new_score > score_cur + config.min_gain:
                ctx.accept()
                report, score_cur = new_report, new_score
                discrete += 1
                result.accepted.append(op.describe())
                result.area_delta += _op_area(ctx, op)
                result.history.append(
                    {"op": op.describe(), "score": new_score,
                     "wns": new_report.merged_wns, "tns": new_report.merged_tns}
                )
                if tel.enabled:
                    tel.count("eco.ops_accepted")
                if hybrid:
                    report, score_cur = _polish_cone(
                        ctx, op, report, score_cur, config, result, budget
                    )
                progressed = True
                break
            ctx.revert(op)
            result.reverted += 1
            if tel.enabled:
                tel.count("eco.ops_reverted")
        if not progressed:
            break
    return report


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_eco(
    netlist: Netlist,
    forest: SteinerForest,
    config: Optional[EcoConfig] = None,
    scenarios: Optional[ScenarioSet] = None,
    budget: Optional[Budget] = None,
    on_round: Optional[Callable[[int], None]] = None,
    context: Optional[EcoContext] = None,
) -> EcoResult:
    """Run one ECO closure loop, mutating ``netlist``/``forest`` in place.

    Callers who must not mutate shared state wrap their inputs with
    :func:`repro.eco.ops.clone_state` first (the flow stage and the
    experiment harness do).  Deterministic: same inputs + same config
    (seed included) produce the same accepted-op digest.  A caller
    that passes its own ``context`` (over the same netlist, forest and
    scenarios) keeps the engine and ``ScenarioSTA`` the run ends with:
    bound to the mutated netlist, levelized and timed at the final
    state (the serving commit adopts them).
    """
    config = config if config is not None else EcoConfig()
    tel = get_telemetry()
    ctx = context if context is not None else EcoContext(netlist, forest, scenarios)
    with tel.span("eco_run", design=netlist.name, arm=config.arm) as span:
        base = ctx.run()
        result = EcoResult(
            design=netlist.name,
            arm=config.arm,
            seed=config.seed,
            accepted=[],
            digest="",
            initial=_metrics_dict(base),
            final={},
        )
        if config.arm == "sa":
            from repro.eco.sa import run_sa

            final = run_sa(ctx, config, result, base, budget=budget, on_round=on_round)
        else:
            final = _run_greedy(
                ctx, config, result, base, budget, on_round,
                hybrid=config.arm == "hybrid",
            )
        result.final = _metrics_dict(final)
        result.rebuilds = ctx.rebuilds
        result.digest = _digest(result.accepted)
        if tel.enabled:
            span.annotate(
                accepted=result.num_accepted,
                trials=result.trials,
                rounds=result.rounds,
                digest=result.digest,
                final_wns=final.merged_wns,
                final_tns=final.merged_tns,
            )
    return result


__all__ = [
    "EcoConfig",
    "EcoContext",
    "EcoResult",
    "evaluate_candidates",
    "generate_candidates",
    "run_eco",
    "score_report",
]
