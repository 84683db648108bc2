"""Single-net Steiner tree.

Node numbering convention: nodes ``0 .. n_pins-1`` are pin nodes in the
order of ``pin_ids`` (index 0 is always the net's driver); nodes
``n_pins .. n_pins+n_steiner-1`` are Steiner nodes.  Pin positions are
fixed (owned by placement); Steiner positions are the movable state.

Edges are undirected pairs; a valid tree has exactly
``n_nodes - 1`` edges and is connected.  Edge length is rectilinear
(L1), matching how each two-pin segment is realized as an L-shaped
route.

A tree bound into a :class:`~repro.steiner.forest.SteinerForest` tells
it about every edit that changes its flattening: an edge rewrite
(:meth:`SteinerTree.invalidate_topology`) and a new ``pin_xy`` array
(re-placement assigns one), so the forest's flat memo learns the
edited slot without a sweep over the trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class TreeTopology:
    """Driver-rooted integer-array view of one tree's topology.

    Memoized on the tree (topology never changes during refinement,
    only coordinates — Definition 1 of the paper) so repeated timing
    queries pay the BFS / edge-index construction exactly once.
    """

    parent: np.ndarray  # (n_nodes,) parent node, -1 at the driver
    bfs_order: np.ndarray  # (n_reached,) BFS order from the driver
    depth: np.ndarray  # (n_nodes,) BFS depth from the driver
    directed: np.ndarray  # (n_edges, 2) (parent, child), child ascending
    dir_edge_local: np.ndarray  # (n_edges,) undirected edge index per row
    directed_list: List[Tuple[int, int]]  # directed as python tuples


@dataclass
class SteinerTree:
    """Steiner tree of one net."""

    net_index: int
    pin_ids: List[int]  # global pin indices; [0] is the driver
    pin_xy: np.ndarray  # (n_pins, 2) fixed coordinates
    steiner_xy: np.ndarray  # (n_steiner, 2) movable coordinates
    edges: List[Tuple[int, int]] = field(default_factory=list)
    _topo: Optional[TreeTopology] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Weak reference to the forest that bound this tree (set by
    #: ``SteinerForest.refresh_offsets``), told about flattening edits.
    _owner: ClassVar[Optional["weakref.ref"]] = None

    def __post_init__(self) -> None:
        self.pin_xy = np.asarray(self.pin_xy, dtype=np.float64).reshape(-1, 2)
        self.steiner_xy = np.asarray(self.steiner_xy, dtype=np.float64).reshape(-1, 2)
        if len(self.pin_ids) != self.pin_xy.shape[0]:
            raise ValueError("pin_ids and pin_xy disagree")
        self._topo = None

    @classmethod
    def _trusted(
        cls,
        net_index: int,
        pin_ids: List[int],
        pin_xy: np.ndarray,
        steiner_xy: np.ndarray,
        edges: List[Tuple[int, int]],
    ) -> "SteinerTree":
        """Construct without the ``__post_init__`` normalization pass.

        For callers that already hold well-formed ``(n, 2)`` float64
        arrays — the flat batched builder materializes thousands of
        trees per design, and the per-tree ``asarray``/``reshape``
        round-trips dominate its runtime otherwise.
        """
        tree = cls.__new__(cls)
        tree.net_index = net_index
        tree.pin_ids = pin_ids
        tree._pin_xy = pin_xy
        tree.steiner_xy = steiner_xy
        tree.edges = edges
        tree._topo = None
        return tree

    def __getstate__(self) -> dict:
        # The owner is a weak reference; the forest re-binds on unpickle.
        state = self.__dict__.copy()
        state.pop("_owner", None)
        return state

    def _edited(self) -> None:
        """Tell the owning forest this tree's flattening changed."""
        owner = self._owner
        forest = owner() if owner is not None else None
        if forest is not None:
            forest._touch(self)

    # ------------------------------------------------------------------
    @property
    def n_pins(self) -> int:
        return len(self.pin_ids)

    @property
    def n_steiner(self) -> int:
        return self.steiner_xy.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.n_pins + self.n_steiner

    def node_xy(self) -> np.ndarray:
        """(n_nodes, 2) positions, pins first then Steiner nodes."""
        if self.n_steiner == 0:
            return self.pin_xy.copy()
        return np.vstack([self.pin_xy, self.steiner_xy])

    def is_steiner_node(self, node: int) -> bool:
        return node >= self.n_pins

    def edge_lengths(self) -> np.ndarray:
        """Rectilinear length of every edge."""
        xy = self.node_xy()
        if not self.edges:
            return np.zeros(0)
        e = np.asarray(self.edges, dtype=np.int64)
        d = np.abs(xy[e[:, 0]] - xy[e[:, 1]])
        return d[:, 0] + d[:, 1]

    def wirelength(self) -> float:
        return float(self.edge_lengths().sum())

    # ------------------------------------------------------------------
    def topology(self) -> TreeTopology:
        """Driver-rooted topology arrays, memoized until edges change.

        Any method that rewrites ``edges`` must call
        :meth:`invalidate_topology`; moving coordinates does not.
        """
        topo = self._topo
        if topo is not None:
            return topo
        n = self.n_nodes
        adj = self.adjacency()
        parent = np.full(n, -1, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        order = [0]
        seen = [False] * n
        seen[0] = True
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    order.append(v)
        slot: dict = {}
        for i, (u, v) in enumerate(self.edges):
            slot[(u, v)] = i
            slot[(v, u)] = i
        children = np.flatnonzero(parent >= 0)
        if children.size:
            directed = np.stack([parent[children], children], axis=1)
        else:
            directed = np.zeros((0, 2), dtype=np.int64)
        directed_list = [(int(p), int(c)) for p, c in directed]
        dir_local = np.asarray(
            [slot[pc] for pc in directed_list], dtype=np.int64
        )
        topo = TreeTopology(
            parent=parent,
            bfs_order=np.asarray(order, dtype=np.int64),
            depth=depth,
            directed=directed,
            dir_edge_local=dir_local,
            directed_list=directed_list,
        )
        self._topo = topo
        return topo

    def invalidate_topology(self) -> None:
        """Drop memoized topology after an edge rewrite."""
        self._topo = None
        self._edited()

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def validate(self) -> None:
        """Check tree-ness: edge count, connectivity, index bounds."""
        n = self.n_nodes
        if n == 1:
            if self.edges:
                raise ValueError("single-node tree must have no edges")
            return
        if len(self.edges) != n - 1:
            raise ValueError(
                f"net {self.net_index}: {len(self.edges)} edges for {n} nodes (want {n - 1})"
            )
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"net {self.net_index}: bad edge ({u}, {v})")
        seen = [False] * n
        stack = [0]
        seen[0] = True
        adj = self.adjacency()
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            raise ValueError(f"net {self.net_index}: tree is disconnected")

    def driver_paths(self) -> List[List[int]]:
        """Node path from the driver (node 0) to every sink pin node."""
        parent = self._parents_from_driver()
        paths: List[List[int]] = []
        for sink_node in range(1, self.n_pins):
            path = [sink_node]
            while path[-1] != 0:
                path.append(parent[path[-1]])
            paths.append(list(reversed(path)))
        return paths

    def _parents_from_driver(self) -> List[int]:
        return self.topology().parent.tolist()

    def directed_edges(self) -> List[Tuple[int, int]]:
        """Edges oriented away from the driver (parent -> child)."""
        return self.topology().directed_list

    def segments(self) -> Iterator[Tuple[Tuple[float, float], Tuple[float, float]]]:
        """Yield ((x1, y1), (x2, y2)) per edge at current positions."""
        xy = self.node_xy()
        for u, v in self.edges:
            yield (tuple(xy[u]), tuple(xy[v]))

    def copy(self) -> "SteinerTree":
        return SteinerTree(
            net_index=self.net_index,
            pin_ids=list(self.pin_ids),
            pin_xy=self.pin_xy.copy(),
            steiner_xy=self.steiner_xy.copy(),
            edges=list(self.edges),
        )

    def prune_degree2_steiner(self) -> None:
        """Remove Steiner nodes of degree 2 whose removal keeps a tree.

        Such nodes add optimization variables without adding topology;
        construction calls this to normalize trees.  Degree-2 corner
        points are *kept* only if their two edges are not collinear —
        the corner carries geometric meaning (an L-bend).
        """
        changed = True
        while changed:
            changed = False
            adj = self.adjacency()
            xy = self.node_xy()
            for node in range(self.n_pins, self.n_nodes):
                if len(adj[node]) != 2:
                    continue
                a, b = adj[node]
                # Collinear if the node lies on the bounding path of a-b
                # in one coordinate: both edges purely horizontal or
                # both purely vertical through the node.
                same_x = xy[a][0] == xy[node][0] == xy[b][0]
                same_y = xy[a][1] == xy[node][1] == xy[b][1]
                if not (same_x or same_y):
                    continue
                self._remove_steiner_node(node, a, b)
                changed = True
                break
        self.invalidate_topology()

    def prune_leaf_steiner(self) -> None:
        """Remove Steiner nodes of degree <= 1 (never useful in a tree)."""
        changed = True
        while changed:
            changed = False
            adj = self.adjacency()
            for node in range(self.n_pins, self.n_nodes):
                if len(adj[node]) <= 1:
                    self.edges = [e for e in self.edges if node not in e]
                    local = node - self.n_pins
                    self.steiner_xy = np.delete(self.steiner_xy, local, axis=0)
                    remap = lambda u: u - 1 if u > node else u
                    self.edges = [(remap(u), remap(v)) for u, v in self.edges]
                    self.invalidate_topology()
                    changed = True
                    break

    def _remove_steiner_node(self, node: int, a: int, b: int) -> None:
        new_edges = [e for e in self.edges if node not in e]
        new_edges.append((a, b))
        # Renumber: drop the Steiner row, shift higher node ids down.
        local = node - self.n_pins
        self.steiner_xy = np.delete(self.steiner_xy, local, axis=0)
        remap = lambda u: u - 1 if u > node else u
        self.edges = [(remap(u), remap(v)) for u, v in new_edges]
        self.invalidate_topology()


def _get_pin_xy(tree: SteinerTree) -> np.ndarray:
    return tree._pin_xy


def _set_pin_xy(tree: SteinerTree, value: np.ndarray) -> None:
    tree._pin_xy = value
    tree._edited()


# Installed after the dataclass is built, so ``pin_xy`` stays an
# ``__init__`` field: (n_pins, 2) fixed pin coordinates, read-only
# (re-placement assigns a new array, which the owning forest is told).
SteinerTree.pin_xy = property(_get_pin_xy, _set_pin_xy)
