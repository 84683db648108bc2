"""Netlist data model.

A :class:`Netlist` is the single source of truth for design structure:
cell instances (placed or not), pins with global integer ids, and nets
(one driver, many sinks).  Primary inputs/outputs are modelled as
port pins that belong to no cell (``cell_index == -1``) and carry their
own coordinates on the die boundary.

The clock network is ideal: register clock pins are driven directly by
the clock source with the spec's latency, so no clock net appears in
the net list (the paper likewise optimizes signal nets only).

Timing-graph conventions (used by both the STA engine and the GNN):

* *startpoints* — PI ports and register ``Q`` pins;
* *endpoints* — PO ports and register ``D`` pins;
* *cell edges* — input pin -> output pin inside a combinational cell
  (and ``CK -> Q`` inside a register);
* *net edges* — driver pin -> each sink pin of a net.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.pdk.clocks import ClockSpec
from repro.pdk.liberty import CellLibrary, CellType
from repro.pdk.technology import Technology


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass
class Pin:
    """A pin: either a cell pin or a boundary port.

    ``offset`` is relative to the owning cell's origin; for ports the
    offset *is* the absolute position.
    """

    index: int
    name: str
    direction: PinDirection
    cell_index: int  # -1 for ports
    offset: Tuple[float, float]
    cap: float = 0.0  # pF, input pins only
    is_port: bool = False

    @property
    def is_cell_pin(self) -> bool:
        return self.cell_index >= 0


@dataclass
class CellInst:
    """A placed instance of a library cell."""

    index: int
    name: str
    cell_type: CellType
    x: float = 0.0
    y: float = 0.0
    pin_indices: Dict[str, int] = field(default_factory=dict)

    @property
    def is_sequential(self) -> bool:
        return self.cell_type.is_sequential

    @property
    def width(self) -> float:
        return self.cell_type.area  # in sites; scaled by site width at placement


@dataclass
class Net:
    """A signal net: one driver pin and one or more sink pins."""

    index: int
    name: str
    driver: int
    sinks: List[int] = field(default_factory=list)

    @property
    def pins(self) -> List[int]:
        return [self.driver] + self.sinks

    @property
    def degree(self) -> int:
        return 1 + len(self.sinks)


class Netlist:
    """Container tying cells, pins and nets together."""

    def __init__(
        self,
        name: str,
        library: CellLibrary,
        technology: Technology,
        clock: ClockSpec,
    ) -> None:
        self.name = name
        self.library = library
        self.technology = technology
        self.clock = clock
        self.cells: List[CellInst] = []
        self.pins: List[Pin] = []
        self.nets: List[Net] = []
        self.die_width: float = 0.0
        self.die_height: float = 0.0
        self._pin_net: Optional[np.ndarray] = None
        self._pin_static: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_cell(self, name: str, cell_type: CellType) -> CellInst:
        """Create a cell instance together with all its pins."""
        cell = CellInst(index=len(self.cells), name=name, cell_type=cell_type)
        self.cells.append(cell)
        n_pins = len(cell_type.input_pins) + len(cell_type.output_pins)
        for k, pin_name in enumerate(cell_type.input_pins):
            pin = Pin(
                index=len(self.pins),
                name=f"{name}/{pin_name}",
                direction=PinDirection.INPUT,
                cell_index=cell.index,
                offset=(0.1 + 0.2 * k, 0.3),
                cap=cell_type.input_cap(pin_name),
            )
            self.pins.append(pin)
            cell.pin_indices[pin_name] = pin.index
        for k, pin_name in enumerate(cell_type.output_pins):
            pin = Pin(
                index=len(self.pins),
                name=f"{name}/{pin_name}",
                direction=PinDirection.OUTPUT,
                cell_index=cell.index,
                offset=(0.1 + 0.2 * (n_pins - 1 - k), 0.7),
            )
            self.pins.append(pin)
            cell.pin_indices[pin_name] = pin.index
        self._pin_net = None
        self._pin_static = None
        return cell

    def add_port(self, name: str, direction: PinDirection, x: float, y: float, cap: float = 0.004) -> Pin:
        """Create a boundary port pin.

        A primary *input* port drives a net, hence carries
        ``PinDirection.OUTPUT`` from the netlist-graph point of view;
        a primary *output* port is a net sink (``INPUT``).
        """
        pin = Pin(
            index=len(self.pins),
            name=name,
            direction=direction,
            cell_index=-1,
            offset=(x, y),
            cap=cap if direction == PinDirection.INPUT else 0.0,
            is_port=True,
        )
        self.pins.append(pin)
        self._pin_net = None
        self._pin_static = None
        return pin

    def add_net(self, name: str, driver: int, sinks: Sequence[int]) -> Net:
        if self.pins[driver].direction != PinDirection.OUTPUT:
            raise ValueError(f"net {name}: driver pin {driver} is not an output")
        for s in sinks:
            if self.pins[s].direction != PinDirection.INPUT:
                raise ValueError(f"net {name}: sink pin {s} is not an input")
        net = Net(index=len(self.nets), name=name, driver=driver, sinks=list(sinks))
        self.nets.append(net)
        self._pin_net = None
        return net

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_pins(self) -> int:
        return len(self.pins)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def _pin_structure(self) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized static pin layout: (owning cell per pin, offsets).

        Pin offsets and cell ownership never change after construction
        (cells only *move*), so the gather arrays are built once; the
        ``add_*`` methods reset the memo alongside ``_pin_net``.
        """
        static = self._pin_static
        if static is None:
            n = len(self.pins)
            cell_of = np.fromiter(
                (p.cell_index for p in self.pins), dtype=np.int64, count=n
            )
            offsets = np.array([p.offset for p in self.pins], dtype=np.float64)
            static = self._pin_static = (cell_of, offsets.reshape(n, 2))
        return static

    def pin_positions(self) -> np.ndarray:
        """(num_pins, 2) array of absolute pin coordinates.

        Vectorized gather over the memoized pin structure; only cell
        origins are re-read per call (placement moves cells between
        calls, never pin offsets).  Bitwise-equal to the per-pin loop:
        float addition is commutative.
        """
        cell_of, offsets = self._pin_structure()
        pos = offsets.copy()
        if self.cells:
            cell_xy = np.array(
                [(c.x, c.y) for c in self.cells], dtype=np.float64
            ).reshape(-1, 2)
            mask = cell_of >= 0
            pos[mask] += cell_xy[cell_of[mask]]
        return pos

    def pin_positions_of(self, pins: Sequence[int]) -> np.ndarray:
        """(len(pins), 2) absolute coordinates of the given pins only.

        Each row is the pin's offset plus its cell's origin, the same
        one float addition :meth:`pin_positions` makes, so the rows are
        bitwise equal to ``pin_positions()[pins]`` at a cost that
        follows ``len(pins)``, not the design.
        """
        pin_objs = [self.pins[p] for p in pins]
        pos = np.array([q.offset for q in pin_objs], dtype=np.float64).reshape(-1, 2)
        on_cell = [k for k, q in enumerate(pin_objs) if q.cell_index >= 0]
        if on_cell:
            cells = [self.cells[pin_objs[k].cell_index] for k in on_cell]
            pos[on_cell] += np.array([(c.x, c.y) for c in cells], dtype=np.float64)
        return pos

    def pin_net_map(self) -> np.ndarray:
        """Array mapping pin index -> net index (-1 if unconnected)."""
        if self._pin_net is None:
            mapping = np.full(len(self.pins), -1, dtype=np.int64)
            for net in self.nets:
                for p in net.pins:
                    mapping[p] = net.index
            self._pin_net = mapping
        return self._pin_net

    def ports(self, direction: Optional[PinDirection] = None) -> List[Pin]:
        result = [p for p in self.pins if p.is_port]
        if direction is not None:
            result = [p for p in result if p.direction == direction]
        return result

    def primary_inputs(self) -> List[Pin]:
        return self.ports(PinDirection.OUTPUT)

    def primary_outputs(self) -> List[Pin]:
        return self.ports(PinDirection.INPUT)

    def registers(self) -> List[CellInst]:
        return [c for c in self.cells if c.is_sequential]

    def startpoints(self) -> List[int]:
        """Pin indices where timing paths begin (PIs and register Q)."""
        points = [p.index for p in self.primary_inputs()]
        for cell in self.registers():
            for out_pin in cell.cell_type.output_pins:
                points.append(cell.pin_indices[out_pin])
        return points

    def endpoints(self) -> List[int]:
        """Pin indices where timing paths end (POs and register D)."""
        points = [p.index for p in self.primary_outputs()]
        for cell in self.registers():
            for in_pin in cell.cell_type.input_pins:
                if in_pin != cell.cell_type.clock_pin:
                    points.append(cell.pin_indices[in_pin])
        return points

    def cell_edges(self) -> List[Tuple[int, int]]:
        """All (input pin, output pin) arcs inside cells.

        For registers, only the clock-to-q arc is included; the D pin
        has no outgoing arc because it terminates paths.
        """
        edges: List[Tuple[int, int]] = []
        for cell in self.cells:
            ct = cell.cell_type
            if ct.is_sequential:
                for out_pin in ct.output_pins:
                    edges.append((cell.pin_indices[ct.clock_pin], cell.pin_indices[out_pin]))
            else:
                for out_pin in ct.output_pins:
                    for in_pin in ct.input_pins:
                        edges.append((cell.pin_indices[in_pin], cell.pin_indices[out_pin]))
        return edges

    def net_edges(self) -> List[Tuple[int, int, int]]:
        """All (driver pin, sink pin, net index) arcs."""
        edges: List[Tuple[int, int, int]] = []
        for net in self.nets:
            for sink in net.sinks:
                edges.append((net.driver, sink, net.index))
        return edges

    def topological_pin_order(self) -> List[int]:
        """Pins in dependency order over combinational cell+net arcs.

        Raises ``ValueError`` on a combinational loop — synchronous
        designs from the generator never have one, but hand-built test
        netlists might.
        """
        n = len(self.pins)
        adj: List[List[int]] = [[] for _ in range(n)]
        # A Python list: scalar updates on a numpy array cost far more.
        indeg = [0] * n
        for a, b in self.cell_edges():
            adj[a].append(b)
            indeg[b] += 1
        for a, b, _ in self.net_edges():
            adj[a].append(b)
            indeg[b] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order.append(u)
            for v in adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != n:
            raise ValueError("combinational loop detected in netlist")
        return order

    def validate(self) -> None:
        """Structural sanity checks; raises on inconsistency."""
        driven = set()
        for net in self.nets:
            if not net.sinks:
                raise ValueError(f"net {net.name} has no sinks")
            for p in net.pins:
                if not 0 <= p < len(self.pins):
                    raise ValueError(f"net {net.name} references unknown pin {p}")
            if net.driver in driven:
                raise ValueError(f"pin {net.driver} drives multiple nets")
            driven.add(net.driver)
        for sink_count in np.bincount(
            np.array([s for net in self.nets for s in net.sinks], dtype=np.int64),
            minlength=len(self.pins),
        ):
            if sink_count > 1:
                raise ValueError("a sink pin is connected to multiple nets")
        self.topological_pin_order()

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, cells={self.num_cells}, "
            f"nets={self.num_nets}, pins={self.num_pins})"
        )
