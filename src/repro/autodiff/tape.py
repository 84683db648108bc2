"""Tape-based autodiff executor: compile once, replay as flat loops.

The closure engine in :mod:`repro.autodiff.tensor` rebuilds the whole
computation graph — one ``Tensor`` object plus one backward closure per
op — on *every* forward call.  For the refinement loop that is pure
overhead: the op sequence depends only on the graph topology and the
model configuration, while only the input arrays change between
iterations.

:func:`compile_tape` lifts an already-built closure graph into a flat
instruction program.  Compilation is *lifting*, not tracing: the eager
closure forward runs once and the tape is derived from the graph it
built, so tape and closure can never disagree about which ops ran.
The compiler then plans aggressively, because everything the closure
engine decides at runtime is static for a fixed topology:

* **Static adjoint schedule.**  Whether each backward rule runs
  (``node.grad is not None`` in the closure engine) and whether each
  contribution is the first write or an accumulation depends only on
  graph structure.  Both are resolved at compile time, so the replay
  loop is guard-free: first contributions write through ``out=``
  straight into the adjoint buffer, later ones add in arrival order —
  the exact ``Tensor._accumulate`` semantics.
* **Alias contributions.**  An identity first-contribution (``add``
  either side, ``sub`` left side, ``reshape``, contiguous ``concat``
  slices) makes the parent's adjoint a *view* of the child's — zero
  runtime cost.  Safe because a node's adjoint is only ever read by its
  own rule: once that rule has run, later writes through the alias can
  no longer be observed.
* **Entry-order scatter plans.**  Scatter-adds (``getitem`` backward,
  ``segment_sum`` forward) replicate ``np.add.at``'s per-element
  accumulation order, choosing per index array: duplicate-free indices
  use one fancy assignment, low-duplication indices are decomposed into
  occurrence *rounds* (the r-th occurrence of every index forms a
  duplicate-free round; per output element the addends arrive in entry
  order), everything else falls back to ``np.add.at`` itself.
* **Buffer pooling.**  Forward values and adjoints are only live for a
  statically-known window, so buffers are recycled through a
  shape-keyed free pool the moment their last reader has run.  This
  shrinks the working set from one buffer per node (hundreds of MB on
  the bench designs) to one buffer per live window and shape: on
  picorv32a with 32 hidden units, 1,148 buffers (568 forward, 580
  adjoint) holding 29.7 MiB.
  Values the backward pass reads (e.g. ``tanh`` outputs) are kept live;
  view ops (``reshape``/``transpose``) of static storage are
  precomputed and cost no instruction at all.
* **One slab per tape.**  Every array the tape owns — pooled buffers,
  root adjoint, backward scratch, masks, winners, index packs — is a
  view into private anonymous ``mmap`` chunks that belong to this tape
  alone (:class:`_Slab`), all carved at compile time.  Freeing the tape
  unmaps them whole; nothing is left behind in the malloc heap between
  the trace's temporaries.
* **Forward prefixes.**  Each named output records the instruction
  prefix that computes it, and :meth:`Tape.run_forward` accepts
  ``start``/``upto`` bounds — the refinement loop's accept path replays
  only the penalty tail on top of the forward state the acceptance
  evaluation already computed.

Data-dependent quantities the closure engine computes from live values
at graph-build time (log-sum-exp shifts, congestion cell indices) are
recorded as detached recompute nodes (see ``functional._detached``)
and re-derived from live inputs on every replay rather than baked as
constants.

Replay parity with the closure engine is *bitwise* (asserted by
``tests/test_tape.py`` and the ``tape-parity`` kernels): every value
and every gradient matches ``np.array_equal`` with the reference,
which tolerates only ±0.0 sign differences (e.g. a duplicate-free
scatter assigns ``-0.0`` where ``0.0 + -0.0`` would give ``+0.0``).
Graphs containing an op the compiler does not know raise
:class:`TapeUnsupported`; callers fall back to the closure engine
(see ``timing_model/compiled.py``).
"""

from __future__ import annotations

import math
import mmap
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor, _unbroadcast


class TapeUnsupported(RuntimeError):
    """The recorded graph uses an op the tape compiler cannot replay."""


#: Ops the forward emitter understands; anything else aborts compilation.
_KNOWN_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt", "abs",
        "tanh", "sigmoid", "relu", "leaky_relu", "clip", "sum", "matmul",
        "reshape", "transpose", "getitem", "concat", "segment_sum",
        "segment_max", "detached_max", "detached_div", "detached_squeeze",
        "bilinear",
    }
)

_BINARY_UFUNC = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}

#: Elementwise ops whose output may safely reuse a dying operand buffer
#: (any operand/output aliasing is well-defined for elementwise ufuncs).
_INPLACE_SAFE = frozenset(
    {"add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt", "abs",
     "tanh", "sigmoid", "relu", "leaky_relu", "clip"}
)

#: Ops that are pure views of their parent when the parent's storage is
#: a fixed array: no instruction is emitted at all.
_VIEW_OPS = frozenset({"reshape", "transpose", "detached_squeeze"})

#: Above this many occurrence rounds a scatter falls back to np.add.at.
_MAX_SCATTER_ROUNDS = 8


# ----------------------------------------------------------------------
# Scatter plans (closure parity: np.add.at entry order per element)
# ----------------------------------------------------------------------
def _int1d(idx) -> bool:
    return (
        isinstance(idx, np.ndarray)
        and idx.ndim == 1
        and issubclass(idx.dtype.type, np.integer)
        and (idx.size == 0 or int(idx.min()) >= 0)
    )


def _occurrence_rounds(idx: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split ``idx`` into duplicate-free rounds by occurrence number.

    Round ``r`` holds the entry positions where an index value appears
    for the (r+1)-th time.  Applying the rounds in order reproduces
    ``np.add.at``'s per-output-element entry order exactly, while each
    round is a plain duplicate-free fancy assignment/addition.
    """
    uniq, inv, counts = np.unique(idx, return_inverse=True, return_counts=True)
    order = np.argsort(inv, kind="stable")
    starts = np.zeros(len(uniq), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    occ_sorted = np.arange(len(idx), dtype=np.int64) - starts[inv[order]]
    rounds = []
    for r in range(int(counts.max())):
        sel = np.sort(order[occ_sorted == r])
        rounds.append((sel, idx[sel]))
    return rounds


class _ScatterPlan:
    """Compile-time plan for ``scatter_add(zeros, idx, g)`` of one site.

    ``write(dst, g)`` overwrites ``dst`` with the scatter (zeros
    included); ``add_into(dst, g, scr)`` adds the scatter onto ``dst``,
    staging multi-round scatters in ``scr`` first so the addition onto
    ``dst`` happens as a single ``+=`` — exactly like the closure
    engine's ``_accumulate(full)``.
    """

    __slots__ = ("idx", "kind", "rounds")

    def __init__(self, idx, out_shape: Tuple[int, ...], g_ndim: int) -> None:
        self.idx = idx
        self.rounds: List[Tuple[np.ndarray, np.ndarray]] = []
        if not _int1d(idx):
            self.kind = "generic"
        elif g_ndim == 1:
            self.kind = "bincount"  # bitwise == np.add.at for 1-D weights
        elif idx.size == 0 or np.unique(idx).size == idx.size:
            self.kind = "dupfree"
        else:
            rounds = _occurrence_rounds(idx)
            if len(rounds) <= _MAX_SCATTER_ROUNDS:
                self.kind = "rounds"
                self.rounds = rounds
            else:
                self.kind = "generic"

    @property
    def needs_scratch(self) -> bool:
        return self.kind in ("generic", "rounds")

    def write(self, dst: np.ndarray, g: np.ndarray) -> None:
        kind = self.kind
        if kind == "bincount":
            dst[...] = np.bincount(self.idx, weights=g, minlength=dst.shape[0])
        elif kind == "dupfree":
            dst.fill(0.0)
            if self.idx.size:
                dst[self.idx] = g
        elif kind == "rounds":
            dst.fill(0.0)
            sel0, tgt0 = self.rounds[0]
            dst[tgt0] = g[sel0]
            for sel, tgt in self.rounds[1:]:
                dst[tgt] += g[sel]
        else:
            dst.fill(0.0)
            np.add.at(dst, self.idx, g)

    def add_into(self, dst: np.ndarray, g: np.ndarray, scr: Optional[np.ndarray]) -> None:
        kind = self.kind
        if kind == "bincount":
            dst += np.bincount(self.idx, weights=g, minlength=dst.shape[0])
        elif kind == "dupfree":
            if self.idx.size:
                dst[self.idx] += g
        else:
            self.write(scr, g)
            dst += scr


# ----------------------------------------------------------------------
# Tape-owned memory
# ----------------------------------------------------------------------
#: Size of a slab's first chunk; later chunks double the slab.
_CHUNK_BYTES = 1 << 20
#: Alignment of every slab view (one cache line).
_ALIGN = 64


def _map_private(nbytes: int) -> mmap.mmap:
    """A private anonymous mapping of ``nbytes`` (a page multiple).

    Private, not Python's default shared mapping: process pools fork on
    Linux, and a forked child must get copy-on-write pages rather than
    replay into its parent's buffers.
    """
    flags = getattr(mmap, "MAP_PRIVATE", None)
    if flags is None:  # Windows: anonymous maps are process-private
        return mmap.mmap(-1, nbytes)
    return mmap.mmap(-1, nbytes, flags=flags)


class _Slab:
    """Bump allocator over anonymous mmap chunks owned by one tape.

    Every array a tape owns (pooled forward values and adjoints, the
    root adjoint, backward scratch, masks, segment-max winners, bilinear
    index packs) is a 64-byte-aligned view into one of ``chunks``.  A
    chunk is unmapped whole when its last view dies, so a freed tape
    hands its memory straight back to the kernel instead of leaving
    holes in the malloc heap between the trace's temporaries.  Chunks
    grow geometrically; the unused tail of a chunk is never touched, so
    it costs address space but no resident memory.
    """

    __slots__ = ("chunks", "nbytes", "_used")

    def __init__(self) -> None:
        self.chunks: List[mmap.mmap] = []
        #: Bytes handed out across all chunks (excluding alignment padding).
        self.nbytes = 0
        self._used = 0  # bytes handed out from chunks[-1]

    def empty(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Uninitialised array of ``shape``/``dtype`` carved from the slab."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        off = -(-self._used // _ALIGN) * _ALIGN
        if not self.chunks or off + nbytes > len(self.chunks[-1]):
            size = max(_CHUNK_BYTES, nbytes, sum(len(c) for c in self.chunks))
            self.chunks.append(_map_private(-(-size // mmap.PAGESIZE) * mmap.PAGESIZE))
            off = 0
        self._used = off + nbytes
        self.nbytes += nbytes
        return np.ndarray(shape, dtype, buffer=self.chunks[-1], offset=off)


# ----------------------------------------------------------------------
# The compiled tape
# ----------------------------------------------------------------------
class Tape:
    """A compiled forward/adjoint program over pooled, preallocated buffers.

    Built by :func:`compile_tape`; replay with :meth:`run_forward` /
    :meth:`run_backward`.  One instance is single-threaded and reuses
    its buffers across calls — callers who keep results must copy them
    (:meth:`grad` already copies).
    """

    def __init__(
        self,
        values: List[Optional[np.ndarray]],
        fwd: List[Callable[[], None]],
        bwd: List[Callable[[], None]],
        input_specs: List[Tuple[str, int, Tensor]],
        input_slots: Dict[str, Optional[int]],
        output_slots: Dict[str, int],
        prefix: Dict[str, int],
        root_slot: int,
        grad_bufs: Dict[str, Optional[np.ndarray]],
        fwd_ops: List[str],
        bwd_ops: List[str],
        stats: Dict[str, int],
        slab: _Slab,
    ) -> None:
        self._values = values
        self._fwd = fwd
        self._bwd = bwd
        self._input_specs = input_specs
        self._input_slots = input_slots
        self._output_slots = output_slots
        self._prefix = prefix
        self._root = root_slot
        self._grad_bufs = grad_bufs
        #: Op name per forward/backward instruction (profiling aid).
        self.fwd_ops = fwd_ops
        self.bwd_ops = bwd_ops
        #: Compile-time statistics (instruction/buffer/alias counts,
        #: slab size).
        self.stats = stats
        #: The memory every buffer of this tape is a view into.
        self.slab = slab

    # -- introspection -------------------------------------------------
    @property
    def n_instructions(self) -> int:
        return len(self._fwd)

    @property
    def n_bwd_instructions(self) -> int:
        return len(self._bwd)

    @property
    def n_slots(self) -> int:
        return len(self._values)

    @property
    def input_names(self) -> List[str]:
        return list(self._input_slots)

    def prefix_length(self, name: str) -> int:
        """Number of forward instructions needed to compute output ``name``."""
        return self._prefix[name]

    # -- replay --------------------------------------------------------
    def run_forward(
        self,
        overrides: Optional[Dict[str, np.ndarray]] = None,
        upto: Optional[str] = None,
        start: int = 0,
    ) -> None:
        """Replay the forward pass with live input values.

        ``overrides`` maps input names to arrays; inputs not overridden
        read the bound tensor's current ``.data`` (so rebinding a
        parameter via ``load_state_dict`` is picked up automatically).
        ``upto`` stops after the instructions needed for that output;
        ``start`` skips a prefix whose buffer state is already valid —
        the caller owns that invariant (see ``CompiledObjective``).
        """
        vals = self._values
        for name, slot, tensor in self._input_specs:
            data = None if overrides is None else overrides.get(name)
            vals[slot] = tensor.data if data is None else data
        stop = len(self._fwd) if upto is None else self._prefix[upto]
        for f in self._fwd[start:stop]:
            f()

    def value(self, name: str) -> np.ndarray:
        """Output array for ``name`` — a live buffer view, copy to keep."""
        return self._values[self._output_slots[name]]

    def root_value(self) -> float:
        return float(self._values[self._root].reshape(()))

    def run_backward(self) -> None:
        """Adjoint replay seeded at the root (must follow run_forward).

        The program is guard-free: the first write to every adjoint
        buffer is a full overwrite, so replay starts from clean state
        by construction — an interrupted previous backward cannot leak
        stale adjoints into this one.
        """
        for fn in self._bwd:
            fn()

    def grad(self, name: str) -> Optional[np.ndarray]:
        """Copy of the adjoint accumulated for input ``name``.

        ``None`` when no gradient reached it — same contract as
        ``Tensor.grad`` after ``backward()``.
        """
        buf = self._grad_bufs.get(name)
        if buf is None:
            return None
        return np.array(buf, copy=True)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class _Pool:
    """Shape-keyed free list of float64 buffers carved from a slab."""

    def __init__(self, slab: _Slab) -> None:
        self._slab = slab
        self._free: Dict[Tuple[int, ...], List[np.ndarray]] = {}
        self.allocated = 0
        self.reused = 0

    def take(self, shape: Tuple[int, ...]) -> np.ndarray:
        lst = self._free.get(shape)
        if lst:
            self.reused += 1
            return lst.pop()
        self.allocated += 1
        return self._slab.empty(shape)

    def give(self, buf: np.ndarray) -> None:
        self._free.setdefault(buf.shape, []).append(buf)


def _ctx_key(ctx):
    """Hashable identity key for an op's recorded parameters."""
    if isinstance(ctx, np.ndarray):
        return ("arr", id(ctx))
    if isinstance(ctx, tuple):
        return tuple(_ctx_key(c) for c in ctx)
    if isinstance(ctx, (int, float, str, bool, type(None), slice)):
        return ctx
    return ("obj", id(ctx))


def compile_tape(
    root: Tensor,
    inputs: Dict[str, Tensor],
    outputs: Optional[Dict[str, Tensor]] = None,
    grad_targets: Optional[Sequence[str]] = None,
) -> Tape:
    """Lift the closure graph under ``root`` into a :class:`Tape`.

    ``inputs`` binds leaf tensors (by object identity) to named slots
    whose values are read live at every replay; gradient-carrying
    inputs get adjoints readable via :meth:`Tape.grad`.  ``outputs``
    names interior values to expose (each also records a forward prefix
    length so it can be computed without running the full tape).
    ``root`` is the scalar the backward pass seeds with ones.

    ``grad_targets`` names the inputs whose gradients the caller will
    read (default: every gradient-carrying input).  The adjoint program
    is pruned to the rules on a root -> target path — bitwise-safe for
    the surviving targets because every consumer of a reached node is
    itself reached, so no contribution to a needed adjoint is ever
    dropped; ``grad`` on a non-target input returns ``None``.
    """
    if not isinstance(root, Tensor) or not root.requires_grad:
        raise TapeUnsupported("tape root must be a Tensor with requires_grad=True")
    if root.data.size != 1:
        raise TapeUnsupported("tape root must be a scalar")
    outputs = dict(outputs or {})
    roots: List[Tuple[str, Tensor]] = [(n, t) for n, t in outputs.items()]
    roots.append(("__root__", root))

    input_names: Dict[int, str] = {}
    for name, t in inputs.items():
        if not isinstance(t, Tensor):
            raise TapeUnsupported(f"input {name!r} is not a Tensor")
        if id(t) in input_names:
            raise TapeUnsupported(f"tensor bound to two input names ({name!r})")
        input_names[id(t)] = name

    # ---- phase 1: collect every reachable node, parents-first ----
    post: List[Tensor] = []
    marks: List[int] = []  # node count after traversing each root
    visited: Set[int] = set()
    for _, r in roots:
        stack: List[Tuple[Tensor, bool]] = [(r, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                post.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        marks.append(len(post))

    for node in post:
        if node._parents and node._op not in _KNOWN_OPS:
            raise TapeUnsupported(f"op {node._op!r} has no tape rule")
        nid = id(node)
        if nid in input_names and node._parents:
            raise TapeUnsupported(f"input {input_names[nid]!r} is not a leaf tensor")

    # ---- phase 2: adjoint pruning (root -> grad-target paths) ----
    if grad_targets is None:
        target_ids = {id(t) for t in inputs.values() if t.requires_grad}
    else:
        unknown = [n for n in grad_targets if n not in inputs]
        if unknown:
            raise TapeUnsupported(f"grad targets {unknown} are not inputs")
        target_ids = {id(inputs[n]) for n in grad_targets}
    reach: Set[int] = set()
    for node in post:  # parents precede children, so one pass suffices
        if node.requires_grad and (
            id(node) in target_ids or any(id(p) in reach for p in node._parents)
        ):
            reach.add(id(node))

    # ---- phase 3: backward rule order (replicate Tensor.backward) ----
    border: List[Tensor] = []
    bvisited: Set[int] = set()
    bstack: List[Tuple[Tensor, bool]] = [(root, False)]
    while bstack:
        node, processed = bstack.pop()
        if processed:
            border.append(node)
            continue
        if id(node) in bvisited:
            continue
        bvisited.add(id(node))
        bstack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in bvisited:
                bstack.append((parent, False))
    exec_nodes = list(reversed(border))

    # ---- phase 4: static contribution plan + adjoint buffers ----
    # count mirrors the closure engine's ``node.grad is not None`` guard
    # and first-write-copies semantics; both are structural, never
    # data-dependent, so the whole schedule is resolved here.
    plans: List[Tuple[Tensor, List[Tuple[int, Tensor, str, bool]]]] = []
    adj_buf: Dict[int, np.ndarray] = {}
    slab = _Slab()
    adj_pool = _Pool(slab)
    adj_owned: Dict[int, np.ndarray] = {}
    alias_blocked: Set[int] = set()  # adjoint memory shared via alias: never pooled
    needed_fwd: Set[int] = set()  # node ids whose forward value backward reads
    n_alias = 0
    count: Dict[int, int] = {}

    def _concat_slicers(node: Tensor) -> List[Tuple[slice, ...]]:
        axis = node._ctx
        sizes = [p.data.shape[axis] for p in node._parents]
        offsets = np.cumsum([0] + sizes)
        out = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * node.data.ndim
            slicer[axis] = slice(int(start), int(stop))
            out.append(tuple(slicer))
        return out

    if id(root) in reach:
        root_adj = slab.empty(root.data.shape)
        adj_buf[id(root)] = root_adj
        count[id(root)] = 1
        for node in exec_nodes:
            nid = id(node)
            if nid not in reach or count.get(nid, 0) == 0 or node._backward is None:
                continue
            op = node._op
            g = adj_buf[nid]
            plist: List[Tuple[int, Tensor, str, bool]] = []
            slicers = _concat_slicers(node) if op == "concat" else None
            for side, p in enumerate(node._parents):
                pid = id(p)
                if pid not in reach:
                    continue
                first = count.get(pid, 0) == 0
                count[pid] = count.get(pid, 0) + 1
                aliased = False
                if first:
                    view: Optional[np.ndarray] = None
                    if op == "add" and p.data.shape == node.data.shape:
                        view = g
                    elif op == "sub" and side == 0 and p.data.shape == node.data.shape:
                        view = g
                    elif op == "reshape":
                        v = g.reshape(p.data.shape)
                        if np.shares_memory(v, g):
                            view = v
                    elif op == "concat":
                        v = g[slicers[side]]
                        if v.flags["C_CONTIGUOUS"]:
                            view = v
                    if view is not None:
                        adj_buf[pid] = view
                        alias_blocked.add(nid)
                        alias_blocked.add(pid)
                        aliased = True
                        n_alias += 1
                    else:
                        buf = adj_pool.take(p.data.shape)
                        adj_buf[pid] = buf
                        adj_owned[pid] = buf
                plist.append((side, p, "init" if first else "acc", aliased))
                # Which forward values will this contribution read?
                if op == "mul" or op == "matmul":
                    needed_fwd.add(id(node._parents[1 - side]))
                elif op == "div":
                    needed_fwd.add(id(node._parents[1]))
                    if side == 1:
                        needed_fwd.add(id(node._parents[0]))
                elif op in ("pow", "log", "abs"):
                    needed_fwd.add(id(node._parents[0]))
                elif op in ("exp", "sqrt", "tanh", "sigmoid"):
                    needed_fwd.add(nid)
            if plist:
                plans.append((node, plist))
            owned = adj_owned.pop(nid, None)
            if owned is not None and nid not in alias_blocked:
                adj_pool.give(owned)

    # ---- phase 5a: forward analysis (CSE, views, liveness) ----
    rep: Dict[int, int] = {}  # node id -> representative node id (CSE)
    node_by_id: Dict[int, Tensor] = {id(n): n for n in post}
    kind: Dict[int, str] = {}  # input | const | op | view | cse
    dynamic: Set[int] = set()  # storage rebinds per run (inputs + views of them)
    owner: Dict[int, int] = {}  # node id -> id of node owning its storage
    last_read: Dict[int, int] = {}  # owner id -> last reading postorder pos
    cse_tab: Dict[tuple, int] = {}
    n_cse = 0

    def _rep(nid: int) -> int:
        return rep.get(nid, nid)

    for pos, node in enumerate(post):
        nid = id(node)
        if nid in input_names:
            kind[nid] = "input"
            dynamic.add(nid)
            owner[nid] = nid
            continue
        if not node._parents:
            kind[nid] = "const"
            owner[nid] = nid
            continue
        op = node._op
        if nid not in reach:
            key = (op, tuple(_rep(id(p)) for p in node._parents), _ctx_key(node._ctx))
            hit = cse_tab.get(key)
            if hit is not None:
                rep[nid] = hit
                kind[nid] = "cse"
                owner[nid] = owner[hit]
                n_cse += 1
                continue
            cse_tab[key] = nid
        if op in _VIEW_OPS:
            kind[nid] = "view"
            powner = owner[_rep(id(node._parents[0]))]
            owner[nid] = powner
            if powner in dynamic or _rep(id(node._parents[0])) in dynamic:
                dynamic.add(nid)
            last_read[owner[_rep(id(node._parents[0]))]] = pos
            continue
        kind[nid] = "op"
        owner[nid] = nid
        for p in node._parents:
            last_read[owner[_rep(id(p))]] = pos

    persistent: Set[int] = {owner[_rep(id(r))] for _, r in roots}
    persistent.update(owner[_rep(fid)] for fid in needed_fwd if fid in owner)

    # ---- phase 5b: forward emission (pooling + fast paths) ----
    slot_of: Dict[int, int] = {}
    values: List[Optional[np.ndarray]] = []
    fwd: List[Callable[[], None]] = []
    fwd_ops: List[str] = []
    instr_count_at: List[int] = []
    fwd_pool = _Pool(slab)
    poolable: Dict[int, np.ndarray] = {}  # owner id -> released buffer
    input_specs: List[Tuple[str, int, Tensor]] = []
    packs: Dict[tuple, dict] = {}  # bilinear index packs
    aux: Dict[int, object] = {}  # node id -> masks/winners for backward rules

    def _new_slot(arr: Optional[np.ndarray]) -> int:
        values.append(arr)
        return len(values) - 1

    def _release_dead(node: Tensor, pos: int) -> None:
        for p in node._parents:
            o = owner[_rep(id(p))]
            if last_read.get(o) == pos and o not in persistent:
                buf = poolable.pop(o, None)
                if buf is not None:
                    fwd_pool.give(buf)

    def _alloc_out(node: Tensor, pos: int) -> np.ndarray:
        nid = id(node)
        inplace = node._op in _INPLACE_SAFE
        if inplace:
            _release_dead(node, pos)
        buf = fwd_pool.take(node.data.shape)
        if nid not in persistent:
            poolable[nid] = buf
        if not inplace:
            _release_dead(node, pos)
        return buf

    vals = values  # alias for closure brevity

    for pos, node in enumerate(post):
        nid = id(node)
        k = kind[nid]
        if k == "cse":
            slot_of[nid] = slot_of[rep[nid]]
            instr_count_at.append(len(fwd))
            continue
        if k == "input":
            slot = _new_slot(None)
            slot_of[nid] = slot
            input_specs.append((input_names[nid], slot, node))
            instr_count_at.append(len(fwd))
            continue
        if k == "const":
            slot_of[nid] = _new_slot(node.data)
            instr_count_at.append(len(fwd))
            continue
        if k == "view":
            a = slot_of[id(node._parents[0])]
            slot = _new_slot(None)
            slot_of[nid] = slot
            op = node._op
            shape, ctx = node.data.shape, node._ctx
            if nid in dynamic:
                if op == "reshape":
                    def f(vals=vals, slot=slot, a=a, shape=shape):
                        vals[slot] = vals[a].reshape(shape)
                elif op == "transpose":
                    def f(vals=vals, slot=slot, a=a):
                        vals[slot] = vals[a].T
                else:  # detached_squeeze
                    def f(vals=vals, slot=slot, a=a, axis=ctx):
                        x = vals[a]
                        vals[slot] = (
                            np.squeeze(x, axis=axis) if axis is not None else x.reshape(())
                        )
                fwd.append(f)
                fwd_ops.append(op)
            else:
                src = values[a]
                if op == "reshape":
                    v = src.reshape(shape)
                elif op == "transpose":
                    v = src.T
                else:
                    v = np.squeeze(src, axis=ctx) if ctx is not None else src.reshape(())
                if np.shares_memory(v, src):
                    values[slot] = v
                else:
                    # reshape of a non-contiguous view copies: recompute per run.
                    def f(vals=vals, slot=slot, a=a, shape=shape):
                        vals[slot] = vals[a].reshape(shape)
                    fwd.append(f)
                    fwd_ops.append(op)
            instr_count_at.append(len(fwd))
            continue

        # ---- real op ----
        op = node._op
        ctx = node._ctx
        ps = [slot_of[id(p)] for p in node._parents]
        shape = node.data.shape
        f = _emit_forward(
            node, op, ctx, ps, shape, vals, _alloc_out, pos, packs, slot_of, aux, slab
        )
        slot_of[nid] = slot_of.get(nid, len(values) - 1)
        if f is not None:
            fwd.append(f)
            fwd_ops.append(op)
        instr_count_at.append(len(fwd))

    # ---- per-output forward prefixes ----
    prefix: Dict[str, int] = {}
    for (name, _), mark in zip(roots, marks):
        prefix[name] = instr_count_at[mark - 1] if mark else 0

    # ---- phase 6: backward emission ----
    bwd: List[Callable[[], None]] = []
    bwd_ops: List[str] = []
    # Backward scratch holds nothing across instructions: a rule writes
    # its scratch before reading it.  So every shape shares one region
    # per temporary a rule keeps at once (at most two), sized for the
    # largest node; pages past the largest request are never touched.
    scratch_cap = max(
        (max(n.data.size, p.data.size) for n, plist in plans for _, p, _, _ in plist),
        default=0,
    )
    regions: Dict[int, np.ndarray] = {}

    def scratch(shape: Tuple[int, ...], i: int = 0) -> np.ndarray:
        region = regions.get(i)
        if region is None:
            region = regions[i] = slab.empty((scratch_cap,))
        return region[: math.prod(shape)].reshape(shape)

    if id(root) in reach:
        root_adj = adj_buf[id(root)]

        def seed(root_adj=root_adj):
            root_adj.fill(1.0)

        bwd.append(seed)
        bwd_ops.append("seed")
        for node, plist in plans:
            g = adj_buf[id(node)]
            for side, p, mode, aliased in plist:
                if aliased:
                    continue
                dst = adj_buf[id(p)]
                fn = _emit_contribution(
                    node, side, p, mode, g, dst, vals, slot_of, scratch, aux
                )
                bwd.append(fn)
                bwd_ops.append(node._op)

    input_slots: Dict[str, Optional[int]] = {
        name: slot_of.get(id(t)) for name, t in inputs.items()
    }
    output_slots = {name: slot_of[id(t)] for name, t in outputs.items()}
    grad_bufs: Dict[str, Optional[np.ndarray]] = {}
    for name, t in inputs.items():
        grad_bufs[name] = adj_buf.get(id(t)) if count.get(id(t), 0) > 0 else None

    stats = {
        "fwd_instructions": len(fwd),
        "bwd_instructions": len(bwd),
        "slots": len(values),
        "cse_hits": n_cse,
        "alias_contributions": n_alias,
        "fwd_buffers": fwd_pool.allocated,
        "fwd_buffer_reuses": fwd_pool.reused,
        "adj_buffers": adj_pool.allocated,
        "adj_buffer_reuses": adj_pool.reused,
        "slab_bytes": slab.nbytes,
        "slab_chunks": len(slab.chunks),
    }

    return Tape(
        values=values,
        fwd=fwd,
        bwd=bwd,
        input_specs=input_specs,
        input_slots=input_slots,
        output_slots=output_slots,
        prefix=prefix,
        root_slot=slot_of[id(root)],
        grad_bufs=grad_bufs,
        fwd_ops=fwd_ops,
        bwd_ops=bwd_ops,
        stats=stats,
        slab=slab,
    )


# ----------------------------------------------------------------------
# Forward instruction emission
# ----------------------------------------------------------------------
def _emit_forward(
    node: Tensor,
    op: str,
    ctx,
    ps: List[int],
    shape: Tuple[int, ...],
    vals: List[Optional[np.ndarray]],
    alloc_out: Callable[[Tensor, int], np.ndarray],
    pos: int,
    packs: Dict[tuple, dict],
    slot_of: Dict[int, int],
    aux: Dict[int, object],
    slab: _Slab,
) -> Optional[Callable[[], None]]:
    """Emit one forward instruction; registers the node's slot in vals.

    Masks, scales, winners and index packs come from the tape's ``slab``.

    Returns the callable, or ``None`` when the node needs no runtime
    instruction (shared bilinear pack members reuse the pack's work).
    """

    def out_slot(buf: np.ndarray) -> None:
        vals.append(buf)
        slot_of[id(node)] = len(vals) - 1

    if op in _BINARY_UFUNC:
        a, b = ps
        buf = alloc_out(node, pos)
        out_slot(buf)
        u = _BINARY_UFUNC[op]

        def f(u=u, vals=vals, a=a, b=b, buf=buf):
            u(vals[a], vals[b], out=buf)

        return f

    if op == "neg":
        (a,) = ps
        buf = alloc_out(node, pos)
        out_slot(buf)
        return lambda vals=vals, a=a, buf=buf: np.negative(vals[a], out=buf)

    if op == "pow":
        (a,) = ps
        buf = alloc_out(node, pos)
        out_slot(buf)
        return lambda vals=vals, a=a, buf=buf, k=ctx: np.power(vals[a], k, out=buf)

    if op in ("exp", "log", "sqrt", "abs", "tanh"):
        (a,) = ps
        buf = alloc_out(node, pos)
        out_slot(buf)
        u = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh}[op]
        return lambda u=u, vals=vals, a=a, buf=buf: u(vals[a], out=buf)

    if op == "sigmoid":
        (a,) = ps
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf):
            # 1.0 / (1.0 + np.exp(-x)), fused in place.
            np.negative(vals[a], out=buf)
            np.exp(buf, out=buf)
            np.add(1.0, buf, out=buf)
            np.divide(1.0, buf, out=buf)

        return f

    if op == "relu":
        (a,) = ps
        mask = slab.empty(shape, bool)
        aux[id(node)] = mask  # read by the backward rule
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, mask=mask):
            np.greater(vals[a], 0, out=mask)
            np.multiply(vals[a], mask, out=buf)

        return f

    if op == "leaky_relu":
        (a,) = ps
        slope = ctx
        mask = slab.empty(shape, bool)
        scale = slab.empty(shape)
        aux[id(node)] = scale
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, mask=mask, scale=scale, slope=slope):
            # scale == np.where(x > 0, 1.0, slope) element for element.
            np.greater(vals[a], 0, out=mask)
            scale.fill(slope)
            scale[mask] = 1.0
            np.multiply(vals[a], scale, out=buf)

        return f

    if op == "clip":
        (a,) = ps
        low, high = ctx
        mask = slab.empty(shape, bool)
        aux[id(node)] = mask
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, mask=mask, low=low, high=high):
            x = vals[a]
            mask[...] = (x > low) & (x < high)
            np.clip(x, low, high, out=buf)

        return f

    if op == "sum":
        (a,) = ps
        axis, keepdims = ctx
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, axis=axis, keepdims=keepdims):
            np.sum(vals[a], axis=axis, keepdims=keepdims, out=buf)

        return f

    if op == "matmul":
        a, b = ps
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, b=b, buf=buf):
            np.matmul(vals[a], vals[b], out=buf)

        return f

    if op == "getitem":
        (a,) = ps
        index = ctx
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, index=index):
            buf[...] = vals[a][index]

        return f

    if op == "concat":
        axis = ctx
        sizes = [p.data.shape[axis] for p in node._parents]
        offsets = np.cumsum([0] + sizes)
        buf = alloc_out(node, pos)
        out_slot(buf)
        pieces = []
        for slot_p, start, stop in zip(ps, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * node.data.ndim
            slicer[axis] = slice(int(start), int(stop))
            pieces.append((slot_p, buf[tuple(slicer)]))

        def f(vals=vals, pieces=pieces):
            for slot_p, view in pieces:
                np.copyto(view, vals[slot_p])

        return f

    if op == "segment_sum":
        (a,) = ps
        seg, _num = ctx
        seg = np.asarray(seg, dtype=np.int64)
        plan = _ScatterPlan(seg, shape, node._parents[0].data.ndim)
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, plan=plan):
            plan.write(buf, vals[a])

        return f

    if op == "segment_max":
        (a,) = ps
        seg, num_segments, fill = ctx
        seg = np.asarray(seg, dtype=np.int64)
        empty = ~np.isin(np.arange(num_segments), seg)
        winner = slab.empty(node._parents[0].data.shape, bool)
        aux[id(node)] = (seg, winner)
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, seg=seg, empty=empty, fill=fill, winner=winner):
            x = vals[a]
            buf.fill(-np.inf)
            np.maximum.at(buf, seg, x)
            buf[empty] = fill
            np.equal(buf[seg], x, out=winner)

        return f

    # ---- detached recompute nodes (never carry gradient) ----
    if op == "detached_max":
        (a,) = ps
        axis = ctx
        buf = alloc_out(node, pos)
        out_slot(buf)

        def f(vals=vals, a=a, buf=buf, axis=axis):
            np.max(vals[a], axis=axis, keepdims=True, out=buf)

        return f

    if op == "detached_div":
        (a,) = ps
        buf = alloc_out(node, pos)
        out_slot(buf)
        return lambda vals=vals, a=a, buf=buf, d=ctx: np.divide(vals[a], d, out=buf)

    if op == "bilinear":
        cxs, cys = ps
        field, which = ctx
        nx, ny = field.shape
        key = (cxs, cys, id(field))
        pack = packs.get(key)
        buf = alloc_out(node, pos)
        out_slot(buf)
        n = shape[0] if shape else 1
        if pack is None:
            pack = packs[key] = {
                "ix": slab.empty((n,), np.int64),
                "iy": slab.empty((n,), np.int64),
                "ix2": slab.empty((n,), np.int64),
                "iy2": slab.empty((n,), np.int64),
                "f": slab.empty((n,)),
            }
            ix, iy, ix2, iy2, ftmp = (
                pack["ix"], pack["iy"], pack["ix2"], pack["iy2"], pack["f"]
            )
            hx, hy = max(nx - 2, 0), max(ny - 2, 0)

            def index_fn(
                vals=vals, cxs=cxs, cys=cys, ix=ix, iy=iy, ix2=ix2, iy2=iy2,
                ftmp=ftmp, hx=hx, hy=hy, nx=nx, ny=ny,
            ):
                np.floor(vals[cxs], out=ftmp)
                np.clip(ftmp, 0, hx, out=ftmp)
                ix[...] = ftmp
                np.floor(vals[cys], out=ftmp)
                np.clip(ftmp, 0, hy, out=ftmp)
                iy[...] = ftmp
                np.minimum(ix + 1, nx - 1, out=ix2)
                np.minimum(iy + 1, ny - 1, out=iy2)

            pack["index_fn"] = index_fn
        ix, iy, ix2, iy2 = pack["ix"], pack["iy"], pack["ix2"], pack["iy2"]
        index_fn = pack.pop("index_fn", None)
        if which == "ixf":
            def gather(buf=buf, ix=ix):
                buf[...] = ix
        elif which == "iyf":
            def gather(buf=buf, iy=iy):
                buf[...] = iy
        elif which == "c00":
            def gather(buf=buf, field=field, ix=ix, iy=iy):
                buf[...] = field[ix, iy]
        elif which == "c10":
            def gather(buf=buf, field=field, ix2=ix2, iy=iy):
                buf[...] = field[ix2, iy]
        elif which == "c01":
            def gather(buf=buf, field=field, ix=ix, iy2=iy2):
                buf[...] = field[ix, iy2]
        else:  # c11
            def gather(buf=buf, field=field, ix2=ix2, iy2=iy2):
                buf[...] = field[ix2, iy2]
        if index_fn is not None:
            def f(index_fn=index_fn, gather=gather):
                index_fn()
                gather()
            return f
        return gather

    raise TapeUnsupported(f"op {op!r} has no tape rule")


# ----------------------------------------------------------------------
# Backward contribution emission
# ----------------------------------------------------------------------
def _store(dst: np.ndarray, mode: str) -> Callable[[np.ndarray], None]:
    """init: full overwrite; acc: add — Tensor._accumulate, compiled."""
    if mode == "init":
        def s(c, dst=dst):
            np.copyto(dst, c)
    else:
        def s(c, dst=dst):
            dst += c
    return s


def _emit_contribution(
    node: Tensor,
    side: int,
    p: Tensor,
    mode: str,
    g: np.ndarray,
    dst: np.ndarray,
    vals: List[Optional[np.ndarray]],
    slot_of: Dict[int, int],
    scratch: Callable[..., np.ndarray],
    aux: Dict[int, object],
) -> Callable[[], None]:
    """One adjoint contribution, transcribing the closure rule bit for bit.

    Every numpy call chain reproduces the corresponding closure in
    ``tensor.py``/``functional.py`` term for term (operand order,
    ``_unbroadcast`` placement) — the only licensed deviations are
    ``out=`` placement and ±0.0 signs, neither of which changes a
    value.  ``mode`` bakes the first-write/accumulate decision; alias
    contributions never reach this function.
    """
    op = node._op
    ctx = node._ctx
    shape = node.data.shape
    pshape = p.data.shape
    eq = pshape == shape
    init = mode == "init"
    store = _store(dst, mode)

    if op in ("add", "sub"):
        # Non-alias cases only: acc, shape-mismatch, or sub's right side.
        if op == "add" or side == 0:
            if eq:
                if init:
                    return lambda dst=dst, g=g: np.copyto(dst, g)
                return lambda dst=dst, g=g: np.add(dst, g, out=dst)
            return lambda store=store, g=g, pshape=pshape: store(_unbroadcast(g, pshape))
        if eq:
            if init:
                return lambda dst=dst, g=g: np.negative(g, out=dst)
            return lambda dst=dst, g=g: np.subtract(dst, g, out=dst)

        def f(store=store, g=g, pshape=pshape, s=scratch(shape)):
            np.negative(g, out=s)
            store(_unbroadcast(s, pshape))

        return f

    if op == "mul":
        b = slot_of[id(node._parents[1 - side])]

        if eq and init:
            return lambda dst=dst, g=g, vals=vals, b=b: np.multiply(g, vals[b], out=dst)

        def f(store=store, g=g, vals=vals, b=b, s=scratch(shape), pshape=pshape):
            np.multiply(g, vals[b], out=s)
            store(_unbroadcast(s, pshape))

        return f

    if op == "div":
        if side == 0:
            b = slot_of[id(node._parents[1])]
            if eq and init:
                return lambda dst=dst, g=g, vals=vals, b=b: np.divide(g, vals[b], out=dst)

            def f(store=store, g=g, vals=vals, b=b, s=scratch(shape), pshape=pshape):
                np.divide(g, vals[b], out=s)
                store(_unbroadcast(s, pshape))

            return f
        a = slot_of[id(node._parents[0])]
        b = slot_of[id(node._parents[1])]

        def f(
            store=store, g=g, vals=vals, a=a, b=b, pshape=pshape,
            s=scratch(shape), s2=scratch(shape, 1),
        ):
            # -g * a / (b ** 2), with the closure's exact op sequence.
            np.negative(g, out=s)
            np.multiply(s, vals[a], out=s)
            np.power(vals[b], 2, out=s2)
            np.divide(s, s2, out=s)
            store(_unbroadcast(s, pshape))

        return f

    if op == "neg":
        if init:
            return lambda dst=dst, g=g: np.negative(g, out=dst)
        return lambda dst=dst, g=g: np.subtract(dst, g, out=dst)

    if op == "pow":
        a = slot_of[id(p)]
        k = ctx

        def f(
            g=g, vals=vals, a=a, k=k, dst=dst, init=init,
            s=scratch(shape), s2=scratch(shape, 1),
        ):
            np.multiply(g, k, out=s)
            np.power(vals[a], k - 1, out=s2)
            if init:
                np.multiply(s, s2, out=dst)
            else:
                np.multiply(s, s2, out=s)
                dst += s

        return f

    if op in ("exp", "sqrt", "tanh", "sigmoid"):
        o = slot_of[id(node)]  # own forward output

        if op == "exp":
            if init:
                return lambda dst=dst, g=g, vals=vals, o=o: np.multiply(g, vals[o], out=dst)

            def f(dst=dst, g=g, vals=vals, o=o, s=scratch(shape)):
                np.multiply(g, vals[o], out=s)
                dst += s

            return f
        if op == "sqrt":

            def f(dst=dst, g=g, vals=vals, o=o, s=scratch(shape), init=init):
                # g * 0.5 / out
                np.multiply(g, 0.5, out=s)
                if init:
                    np.divide(s, vals[o], out=dst)
                else:
                    np.divide(s, vals[o], out=s)
                    dst += s

            return f
        if op == "tanh":

            def f(dst=dst, g=g, vals=vals, o=o, s=scratch(shape), init=init):
                # g * (1.0 - out ** 2)
                np.power(vals[o], 2, out=s)
                np.subtract(1.0, s, out=s)
                if init:
                    np.multiply(g, s, out=dst)
                else:
                    np.multiply(g, s, out=s)
                    dst += s

            return f

        def f(
            dst=dst, g=g, vals=vals, o=o, init=init,
            s=scratch(shape), s2=scratch(shape, 1),
        ):
            # g * out * (1.0 - out)
            np.multiply(g, vals[o], out=s)
            np.subtract(1.0, vals[o], out=s2)
            if init:
                np.multiply(s, s2, out=dst)
            else:
                np.multiply(s, s2, out=s)
                dst += s

        return f

    if op == "log":
        a = slot_of[id(p)]
        if init:
            return lambda dst=dst, g=g, vals=vals, a=a: np.divide(g, vals[a], out=dst)

        def f(dst=dst, g=g, vals=vals, a=a, s=scratch(shape)):
            np.divide(g, vals[a], out=s)
            dst += s

        return f

    if op == "abs":
        a = slot_of[id(p)]

        def f(dst=dst, g=g, vals=vals, a=a, s=scratch(shape), init=init):
            np.sign(vals[a], out=s)
            if init:
                np.multiply(g, s, out=dst)
            else:
                np.multiply(g, s, out=s)
                dst += s

        return f

    if op in ("relu", "clip", "leaky_relu"):
        mask = aux[id(node)]  # bool mask / float scale from the forward

        if init:
            return lambda dst=dst, g=g, mask=mask: np.multiply(g, mask, out=dst)

        def f(dst=dst, g=g, mask=mask, s=scratch(shape)):
            np.multiply(g, mask, out=s)
            dst += s

        return f

    if op == "sum":
        axis, keepdims = ctx
        ge = g
        if axis is not None and not keepdims:
            ge = np.expand_dims(g, axis)
        bview = np.broadcast_to(ge, pshape)
        if init:
            return lambda dst=dst, bview=bview: np.copyto(dst, bview)
        return lambda dst=dst, bview=bview: np.add(dst, bview, out=dst)

    if op == "matmul":
        other = slot_of[id(node._parents[1 - side])]
        if side == 0:
            if init:
                return lambda dst=dst, g=g, vals=vals, b=other: np.matmul(
                    g, vals[b].T, out=dst
                )

            def f(dst=dst, g=g, vals=vals, b=other, s=scratch(pshape)):
                np.matmul(g, vals[b].T, out=s)
                dst += s

            return f
        if init:
            return lambda dst=dst, g=g, vals=vals, a=other: np.matmul(
                vals[a].T, g, out=dst
            )

        def f(dst=dst, g=g, vals=vals, a=other, s=scratch(pshape)):
            np.matmul(vals[a].T, g, out=s)
            dst += s

        return f

    if op == "reshape":
        gv = g.reshape(pshape)  # alias handled upstream; this is the copy case
        if init:
            return lambda dst=dst, gv=gv: np.copyto(dst, gv)
        return lambda dst=dst, gv=gv: np.add(dst, gv, out=dst)

    if op == "transpose":
        gv = g.T
        if init:
            return lambda dst=dst, gv=gv: np.copyto(dst, gv)

        def f(dst=dst, gv=gv):
            dst += gv

        return f

    if op == "concat":
        axis = ctx
        sizes = [q.data.shape[axis] for q in node._parents]
        offsets = np.cumsum([0] + sizes)
        slicer = [slice(None)] * node.data.ndim
        slicer[axis] = slice(int(offsets[side]), int(offsets[side + 1]))
        gv = g[tuple(slicer)]
        if init:
            return lambda dst=dst, gv=gv: np.copyto(dst, gv)

        def f(dst=dst, gv=gv):
            dst += gv

        return f

    if op == "getitem":
        index = ctx
        plan = _ScatterPlan(
            index if isinstance(index, np.ndarray) else index,
            pshape,
            g.ndim,
        )
        if init:
            return lambda plan=plan, dst=dst, g=g: plan.write(dst, g)
        scr = scratch(pshape) if plan.needs_scratch else None
        return lambda plan=plan, dst=dst, g=g, scr=scr: plan.add_into(dst, g, scr)

    if op == "segment_sum":
        seg, _num = ctx
        seg = np.asarray(seg, dtype=np.int64)
        if init:
            def f(dst=dst, g=g, seg=seg):
                dst[...] = g[seg]
        else:
            def f(dst=dst, g=g, seg=seg):
                dst += g[seg]
        return f

    if op == "segment_max":
        seg, winner = aux[id(node)]

        def f(store=store, g=g, seg=seg, winner=winner, shape=shape):
            contrib = np.where(winner, g[seg], 0.0)
            tie_counts = np.zeros(shape, dtype=np.float64)
            np.add.at(tie_counts, seg, winner.astype(np.float64))
            tie_counts = np.maximum(tie_counts, 1.0)
            store(contrib / tie_counts[seg])

        return f

    raise TapeUnsupported(f"op {op!r} has no backward tape rule")
