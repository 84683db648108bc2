"""Typed, reversible ECO transforms (docs/ECO.md).

Every op mutates the ``(netlist, forest)`` pair **in place** through
``apply()`` and restores it bit-for-bit through ``revert()``.  Reverts
are LIFO: an op must be reverted before any later structural op touches
the same state (the driver applies one candidate at a time, so this
holds by construction).

Two invariants make accept/revert cheap and exact:

* **Tree-identity caching** — ``flat_forest_of`` validates the forest's
  one cap-free flattening per edited slot (``tree._topo`` and
  ``tree.pin_xy`` identity at the slots ``refresh_offsets`` stamped),
  not per forest object or STA engine, so swapping one entry of
  ``forest.trees`` invalidates it, an op that only changes the netlist
  (a resize) keeps it, and ``revert()`` restores the *original tree
  objects* and the original coordinates bitwise.
* **List-tail construction** — ``Netlist.add_cell``/``add_net`` only
  append, so a structural revert is ``del list[tail:]`` plus restoring
  the one spliced sink, leaving every pre-existing object untouched.

Ops that change the netlist (:class:`BufferInsertOp`,
:class:`ResizeOp`) set ``mutates_netlist = True``: an STA engine binds
cell arcs and pin caps in its levelization, so the driver re-times such
an op through :meth:`EcoOp.patch_engine` — a new engine whose
levelization is patched from the pre-apply one — and
``ScenarioSTA.adopt``, which re-times only the edit's cone.  Re-route
and nudge ops keep the netlist intact: a nudge re-times through the
incremental dirty-tree path, and a re-route's new tree is spliced into
the flattening and re-timed from the pre-apply STA state, without a
full pass.

Each op reports the nets it perturbs (``dirty_nets()``); the fan-out
cone of those nets (:func:`dirty_cone`) is the exact set of endpoints
whose slack can change — used to target hybrid polish and to verify
that accepted ops only moved the endpoints they claimed to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import CellInst, Net, Netlist, Pin, PinDirection
from repro.pdk.liberty import CellType
from repro.steiner.forest import SteinerForest
from repro.steiner.rsmt import construct_tree
from repro.steiner.tree import SteinerTree

if TYPE_CHECKING:
    from repro.sta.engine import STAEngine


# ----------------------------------------------------------------------
# Forest surgery helpers
# ----------------------------------------------------------------------
def _fresh_tree(netlist: Netlist, net_index: int) -> SteinerTree:
    """Fresh RSMT for one net at the current positions of its pins."""
    net = netlist.nets[net_index]
    pins = net.pins
    return construct_tree(net.index, pins, netlist.pin_positions_of(pins))


# ----------------------------------------------------------------------
# Dirty cone
# ----------------------------------------------------------------------
def dirty_cone(netlist: Netlist, net_indices: Iterable[int]) -> List[int]:
    """Endpoints reachable from the given nets' sinks (sorted pin ids).

    Forward BFS over combinational cell arcs and net edges.  Register D
    pins and PO ports terminate (they *are* endpoints); sequential
    cells do not propagate (the clock network is ideal, so a launch arc
    is never downstream of a signal net's sink).  This is the exact set
    of endpoints whose arrival can change when the listed nets' delays
    change.
    """
    driver_net: Dict[int, Net] = {net.driver: net for net in netlist.nets}
    endpoint_set = set(netlist.endpoints())
    seen: set = set()
    cone: set = set()
    queue: List[int] = []
    for ni in net_indices:
        for s in netlist.nets[ni].sinks:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    head = 0
    while head < len(queue):
        p = queue[head]
        head += 1
        if p in endpoint_set:
            cone.add(p)
            continue
        pin = netlist.pins[p]
        if pin.cell_index < 0:
            continue  # dangling port that is not an endpoint
        cell = netlist.cells[pin.cell_index]
        ct = cell.cell_type
        if ct.is_sequential:
            continue
        for out_name in ct.output_pins:
            out_pin = cell.pin_indices[out_name]
            net = driver_net.get(out_pin)
            if net is None:
                continue
            for s in net.sinks:
                if s not in seen:
                    seen.add(s)
                    queue.append(s)
    return sorted(cone)


# ----------------------------------------------------------------------
# State cloning (flow/experiments must never mutate shared designs)
# ----------------------------------------------------------------------
def clone_netlist(netlist: Netlist) -> Netlist:
    """Structural deep copy sharing the immutable library/technology."""
    clone = Netlist(netlist.name, netlist.library, netlist.technology, netlist.clock)
    clone.die_width = netlist.die_width
    clone.die_height = netlist.die_height
    clone.cells = [
        CellInst(c.index, c.name, c.cell_type, c.x, c.y, dict(c.pin_indices))
        for c in netlist.cells
    ]
    clone.pins = [
        Pin(p.index, p.name, p.direction, p.cell_index, p.offset, p.cap, p.is_port)
        for p in netlist.pins
    ]
    clone.nets = [Net(n.index, n.name, n.driver, list(n.sinks)) for n in netlist.nets]
    return clone


def clone_state(netlist: Netlist, forest: SteinerForest) -> Tuple[Netlist, SteinerForest]:
    """Private (netlist, forest) pair an ECO run may mutate freely (the
    forest copy shares only read-only pin arrays and its flattening)."""
    clone = clone_netlist(netlist)
    work = forest.copy()
    work.netlist = clone
    return clone, work


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------
class EcoOp:
    """Base class: a reversible in-place transform of (netlist, forest)."""

    #: True when apply() changes cells/pins/nets — the caller must then
    #: re-time against an engine from :meth:`patch_engine` (arcs and pin
    #: caps bind in an engine's levelization).
    mutates_netlist = False

    def patch_engine(self, engine: "STAEngine") -> Tuple["STAEngine", np.ndarray]:
        """``(engine, seeds)`` for the netlist after ``apply``: an STA
        engine whose levelization is patched from ``engine``'s (left as
        it was) and the pins whose fan-in arcs the op changed, for
        ``ScenarioSTA.adopt``.  Ops that keep the netlist return
        ``engine`` itself and no seeds."""
        return engine, np.zeros(0, dtype=np.int64)

    def apply(self, netlist: Netlist, forest: SteinerForest) -> None:
        raise NotImplementedError

    def revert(self, netlist: Netlist, forest: SteinerForest) -> None:
        raise NotImplementedError

    def dirty_nets(self) -> Tuple[int, ...]:
        """Nets whose delay this op perturbs (valid after ``apply``)."""
        raise NotImplementedError

    def cost(self) -> float:
        """Area cost in sites (0 for coordinate/topology-only ops)."""
        return 0.0

    def describe(self) -> str:
        """Stable, index-based description (digest + ranking tie-break)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class BufferInsertOp(EcoOp):
    """Insert a buffer between a net's driver and one sink.

    The sink is spliced onto a new single-sink net driven by the
    buffer's output; the buffer input joins the original net in the
    sink's place.  Both nets get fresh RSMTs.  The buffer lands at the
    driver->sink midpoint, clamped to the die.
    """

    mutates_netlist = True

    def __init__(self, net_index: int, sink_pin: int, buffer_cell: str = "BUF_X2") -> None:
        self.net_index = int(net_index)
        self.sink_pin = int(sink_pin)
        self.buffer_cell = buffer_cell
        self._saved: Optional[dict] = None

    def apply(self, netlist: Netlist, forest: SteinerForest) -> None:
        if self._saved is not None:
            raise RuntimeError("op already applied")
        net = netlist.nets[self.net_index]
        k = net.sinks.index(self.sink_pin)
        slot = forest.tree_slot(self.net_index)
        saved = {
            "n_cells": len(netlist.cells),
            "n_pins": len(netlist.pins),
            "n_nets": len(netlist.nets),
            "sink_slot": k,
            "tree_slot": slot,
            "old_tree": forest.trees[slot],
            # The netlist's pin memos, put back by revert.
            "pin_net": netlist._pin_net,
            "pin_static": netlist._pin_static,
        }
        dx, dy = netlist.pin_positions_of([net.driver, self.sink_pin])
        ct = netlist.library[self.buffer_cell]
        inst = netlist.add_cell(f"eco_buf{saved['n_cells']}", ct)
        inst.x = float(np.clip(0.5 * (dx[0] + dy[0]), 0.0, netlist.die_width))
        inst.y = float(np.clip(0.5 * (dx[1] + dy[1]), 0.0, netlist.die_height))
        net.sinks[k] = inst.pin_indices[ct.input_pins[0]]
        new_net = netlist.add_net(
            f"eco_bufnet{saved['n_nets']}",
            driver=inst.pin_indices[ct.output_pins[0]],
            sinks=[self.sink_pin],
        )
        saved["new_net"] = new_net.index
        self._saved = saved
        pin_net = saved["pin_net"]
        if pin_net is not None:
            # ``pin_net_map()`` of the edited netlist, without its loop.
            grown = np.full(len(netlist.pins), -1, dtype=np.int64)
            grown[: pin_net.size] = pin_net
            grown[net.sinks[k]] = self.net_index
            grown[[new_net.driver, self.sink_pin]] = new_net.index
            netlist._pin_net = grown
        forest.trees[slot] = _fresh_tree(netlist, self.net_index)
        forest.trees.append(_fresh_tree(netlist, new_net.index))
        forest.refresh_offsets(slot)

    def revert(self, netlist: Netlist, forest: SteinerForest) -> None:
        saved = self._saved
        if saved is None:
            raise RuntimeError("op not applied")
        del netlist.cells[saved["n_cells"]:]
        del netlist.pins[saved["n_pins"]:]
        del netlist.nets[saved["n_nets"]:]
        netlist.nets[self.net_index].sinks[saved["sink_slot"]] = self.sink_pin
        netlist._pin_net = saved["pin_net"]
        netlist._pin_static = saved["pin_static"]
        forest.trees.pop()
        forest.trees[saved["tree_slot"]] = saved["old_tree"]
        forest.refresh_offsets(saved["tree_slot"])
        self._saved = None

    def dirty_nets(self) -> Tuple[int, ...]:
        if self._saved is not None:
            return (self.net_index, self._saved["new_net"])
        return (self.net_index,)

    def patch_engine(self, engine: "STAEngine") -> Tuple["STAEngine", np.ndarray]:
        return engine.buffered(self.net_index, self._saved["new_net"])

    def cost(self) -> float:
        return 2.0  # buffer area; refined by the driver from the library

    def describe(self) -> str:
        return f"buf net={self.net_index} sink={self.sink_pin} cell={self.buffer_cell}"


class ResizeOp(EcoOp):
    """Swap a cell instance to a drive-strength variant.

    The variant must share the pin interface (``CellLibrary.variants_of``
    guarantees this), so only ``cell_type`` and the input pin caps
    change — pin ids, offsets and net connectivity stay put.
    """

    mutates_netlist = True

    def __init__(self, cell_index: int, to_cell: CellType, from_name: str = "?") -> None:
        self.cell_index = int(cell_index)
        self.to_cell = to_cell
        self.from_name = from_name
        self._saved: Optional[CellType] = None

    def apply(self, netlist: Netlist, forest: SteinerForest) -> None:
        if self._saved is not None:
            raise RuntimeError("op already applied")
        cell = netlist.cells[self.cell_index]
        old = cell.cell_type
        if (
            old.input_pins != self.to_cell.input_pins
            or old.output_pins != self.to_cell.output_pins
            or old.is_sequential != self.to_cell.is_sequential
        ):
            raise ValueError(
                f"resize {old.name} -> {self.to_cell.name}: pin interfaces differ"
            )
        self._saved = old
        cell.cell_type = self.to_cell
        for pin_name in self.to_cell.input_pins:
            netlist.pins[cell.pin_indices[pin_name]].cap = self.to_cell.input_cap(pin_name)

    def revert(self, netlist: Netlist, forest: SteinerForest) -> None:
        old = self._saved
        if old is None:
            raise RuntimeError("op not applied")
        cell = netlist.cells[self.cell_index]
        cell.cell_type = old
        for pin_name in old.input_pins:
            netlist.pins[cell.pin_indices[pin_name]].cap = old.input_cap(pin_name)
        self._saved = None

    def _nets_touching(self, netlist: Netlist) -> Tuple[int, ...]:
        pins = list(netlist.cells[self.cell_index].pin_indices.values())
        nets = netlist.pin_net_map()[pins]
        return tuple(sorted({int(n) for n in nets if n >= 0}))

    def patch_engine(self, engine: "STAEngine") -> Tuple["STAEngine", np.ndarray]:
        return engine.resized(self.cell_index)

    def dirty_nets(self) -> Tuple[int, ...]:
        # Resolved lazily by the driver via dirty_nets_on(); the static
        # fallback is empty because net membership needs the netlist.
        return ()

    def dirty_nets_on(self, netlist: Netlist) -> Tuple[int, ...]:
        return self._nets_touching(netlist)

    def cost(self) -> float:
        if self._saved is not None:
            return max(self.to_cell.area - self._saved.area, 0.0)
        return max(self.to_cell.area - 1.0, 0.0)

    def describe(self) -> str:
        frm = self._saved.name if self._saved is not None else self.from_name
        return f"resize cell={self.cell_index} {frm}->{self.to_cell.name}"


class RerouteOp(EcoOp):
    """Replace one net's tree with a fresh RSMT at current positions."""

    def __init__(self, net_index: int) -> None:
        self.net_index = int(net_index)
        self._saved: Optional[Tuple[int, SteinerTree]] = None

    def apply(self, netlist: Netlist, forest: SteinerForest) -> None:
        if self._saved is not None:
            raise RuntimeError("op already applied")
        slot = forest.tree_slot(self.net_index)
        self._saved = (slot, forest.trees[slot])
        forest.trees[slot] = _fresh_tree(netlist, self.net_index)
        forest.refresh_offsets(slot)

    def revert(self, netlist: Netlist, forest: SteinerForest) -> None:
        if self._saved is None:
            raise RuntimeError("op not applied")
        slot, old_tree = self._saved
        forest.trees[slot] = old_tree
        forest.refresh_offsets(slot)
        self._saved = None

    def dirty_nets(self) -> Tuple[int, ...]:
        return (self.net_index,)

    def describe(self) -> str:
        return f"reroute net={self.net_index}"


class NudgeOp(EcoOp):
    """Shift one tree's Steiner points by (dx, dy), clamped to the die.

    Coordinate-only: the pinned ``ScenarioSTA`` re-times it through the
    incremental dirty-tree path.  Apply writes the tree's rows of the
    forest's coordinate matrix in place; revert writes the saved values
    back into the same rows, so the round trip is bitwise-exact.
    """

    def __init__(self, net_index: int, dx: float, dy: float) -> None:
        self.net_index = int(net_index)
        self.dx = float(dx)
        self.dy = float(dy)
        self._saved: Optional[Tuple[int, np.ndarray]] = None

    def apply(self, netlist: Netlist, forest: SteinerForest) -> None:
        if self._saved is not None:
            raise RuntimeError("op already applied")
        slot = forest.tree_slot(self.net_index)
        xy = forest.trees[slot].steiner_xy
        self._saved = (slot, xy.copy())
        xy += np.array([self.dx, self.dy])
        np.clip(xy[:, 0], 0.0, netlist.die_width, out=xy[:, 0])
        np.clip(xy[:, 1], 0.0, netlist.die_height, out=xy[:, 1])

    def revert(self, netlist: Netlist, forest: SteinerForest) -> None:
        if self._saved is None:
            raise RuntimeError("op not applied")
        slot, old_xy = self._saved
        forest.trees[slot].steiner_xy[...] = old_xy
        self._saved = None

    def dirty_nets(self) -> Tuple[int, ...]:
        return (self.net_index,)

    def describe(self) -> str:
        return f"nudge net={self.net_index} dx={self.dx:g} dy={self.dy:g}"


__all__ = [
    "BufferInsertOp",
    "EcoOp",
    "NudgeOp",
    "RerouteOp",
    "ResizeOp",
    "clone_netlist",
    "clone_state",
    "dirty_cone",
]
