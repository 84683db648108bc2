"""The two-stage GNN sign-off timing evaluator.

Stage 1 — Steiner-graph message passing (broadcast + reduce, three
iterations as in the paper), producing per-sink embeddings that encode
the geometry between each net's driver, its Steiner points and the
sink.

Stage 2 — levelized netlist-graph propagation with a timing-engine-
inspired accumulation: each net arc and cell arc contributes a learned
*non-negative* delay (softplus), summed along paths and max-reduced at
multi-input cells.  This inductive bias is what lets the evaluator
reach high R² from only six training designs, exactly as the
reference-[13] architecture the paper builds on.

Differentiability: the only input tensor with ``requires_grad`` is the
flat Steiner coordinate matrix.  Gradients reach it through two
physical channels — edge-length features of the Steiner graph
(geometry) and per-net total wirelength (driver load) — matching how
Steiner positions affect real sign-off timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff import nn
from repro.autodiff.tensor import Tensor, concatenate
from repro.obs import get_telemetry
from repro.timing_model.graph import TimingGraph


@dataclass
class EvaluatorConfig:
    """Model hyper-parameters."""

    hidden: int = 24
    steiner_iterations: int = 3  # paper: three broadcast/reduce rounds
    seed: int = 42
    pos_scale: float = 0.01  # um -> feature units
    cap_scale: float = 100.0  # pF -> feature units
    res_scale: float = 0.1  # kOhm -> feature units
    # Smoothed-L1 half-width (um).  Rectilinear length |d| has a kink at
    # d = 0, and initial RSMT trees put *every* corner exactly on that
    # kink: the raw-L1 evaluator then sees any Steiner move as a strict
    # wirelength increase and Algorithm 1 rejects every candidate.
    # sqrt(d^2 + delta^2) - delta is exact for |d| >> delta and smooth
    # at 0, restoring a usable gradient field (the paper's evaluator is
    # smooth by construction because it consumes raw coordinates).
    length_smoothing: float = 1.0
    # Weight of the free-form learned correction on top of the
    # physics-anchored delay heads.  The physics part (positive-
    # coefficient combination of Elmore/drive/load/congestion features)
    # carries the gradient signal the refinement loop consumes; the
    # correction absorbs router/layer effects the features miss.  Too
    # large a correction re-opens the door to gradient exploitation.
    correction_scale: float = 0.25


class TimingEvaluator(nn.Module):
    """Predicts per-pin sign-off arrival times from Steiner geometry."""

    N_SG_FEATS = 7  # type one-hot (3), cap, x, y, congestion-at-node
    N_EDGE_FEATS = 5  # |dx|, |dy|, L1, congestion at both endpoints
    N_NET_FEATS = 5  # wirelength, sink caps, drive res, RC proxy, congestion
    N_ARC_FEATS = 4  # path length, Elmore proxies, path congestion
    N_CELL_FEATS = 4  # from TimingGraph.cell_feat
    N_START_FEATS = 2  # PI vs register launch

    def __init__(self, config: Optional[EvaluatorConfig] = None) -> None:
        cfg = config or EvaluatorConfig()
        self.config = cfg
        rng = np.random.default_rng(cfg.seed)
        d = cfg.hidden
        self.sg_embed = nn.Linear(self.N_SG_FEATS, d, rng)
        self.bcast_msg = nn.MLP([d + self.N_EDGE_FEATS, d, d], rng)
        self.bcast_upd = nn.MLP([2 * d, d], rng)
        self.reduce_msg = nn.Linear(d, d, rng)
        self.reduce_upd = nn.MLP([2 * d, d], rng)
        self.start_mlp = nn.Linear(self.N_START_FEATS, d, rng)
        self.net_msg = nn.MLP([2 * d + self.N_NET_FEATS + self.N_ARC_FEATS, d, d], rng)
        self.wire_delay = nn.Linear(d, 1, rng)
        self.cell_msg = nn.MLP([d + self.N_CELL_FEATS + self.N_NET_FEATS, d, d], rng)
        self.cell_delay = nn.Linear(d, 1, rng)
        # Physics-anchored head weights: effective coefficients are
        # softplus(w), i.e. non-negative — predicted delay can only
        # *decrease* when Elmore/load/congestion features decrease, so
        # the refinement gradient cannot point the wrong way through
        # these terms.  Initialized near the oracle's raw magnitudes.
        # softplus(-2.5) ~= 0.079: start with gentle positive slopes and
        # let training calibrate them to the oracle's effective RC.
        self.wire_phys = Tensor(np.full((self.N_ARC_FEATS, 1), -2.5), requires_grad=True)
        self.cell_phys = Tensor(np.full((self.N_NET_FEATS + 1, 1), -2.5), requires_grad=True)

    # ------------------------------------------------------------------
    def _static_tensors(self, graph: TimingGraph) -> Dict:
        """Evaluator-static arrays, cached on ``graph._static``.

        Everything here depends only on the graph topology and scale
        hyper-parameters, so repeated ``forward`` calls on the same
        graph (every refinement iteration) reuse one copy.  The cache
        key includes the config values the arrays bake in.
        """
        cfg = self.config
        key = ("evaluator", cfg.cap_scale, cfg.hidden)
        tel = get_telemetry()
        cached = graph._static.get(key)
        if cached is not None:
            if tel.enabled:
                tel.count("evaluator.static_cache_hits")
            return cached
        if tel.enabled:
            tel.count("evaluator.static_cache_misses")
        m = graph.n_sg_nodes
        type_onehot = np.zeros((m, 3))
        type_onehot[np.arange(m), graph.sg_node_type] = 1.0
        static_feat = np.concatenate(
            [type_onehot, (graph.sg_node_cap * cfg.cap_scale)[:, None]], axis=1
        )
        levels = []
        for lv in graph.levels:
            sink_safe = np.maximum(lv.net_sink_node, 0)
            sink_mask = np.broadcast_to(
                (lv.net_sink_node >= 0).astype(np.float64)[:, None],
                (lv.net_sink_node.size, cfg.hidden),
            ).copy()
            out_net = np.maximum(lv.cell_out_net, 0)
            has_net = (lv.cell_out_net >= 0).astype(np.float64)[:, None]
            # Compact per-destination max: unique output pins and the
            # arc -> compact-slot map (np.unique returns them sorted).
            uniq_out, out_inv = (
                np.unique(lv.cell_out, return_inverse=True)
                if lv.cell_out.size
                else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            )
            levels.append(
                {
                    "sink_safe": sink_safe,
                    "sink_mask": sink_mask,
                    "out_net": out_net,
                    "has_net": has_net,
                    "cell_feat0": lv.cell_feat[:, 0:1].copy(),
                    "uniq_out": uniq_out,
                    "out_inv": out_inv,
                    # Fused scatter targets: net sinks and cell outputs
                    # are disjoint pin sets, so one segment_sum over the
                    # concatenation equals the two separate adds bitwise.
                    "arrival_idx": np.concatenate([lv.net_sink, uniq_out]),
                    "u_idx": np.concatenate([lv.net_sink, lv.cell_out]),
                }
            )
        cached = {"static_feat": static_feat, "levels": levels}
        graph._static[key] = cached
        return cached

    # ------------------------------------------------------------------
    def forward(self, graph: TimingGraph, steiner_coords: Tensor) -> Dict[str, Tensor]:
        """Full forward pass.

        ``steiner_coords`` is the forest's flat (S, 2) coordinate
        matrix; set ``requires_grad=True`` on it to obtain refinement
        gradients via ``backward`` on a scalar of the output.
        """
        tel = get_telemetry()
        if tel.enabled:
            tel.count("evaluator.forward")
        cfg = self.config
        m = graph.n_sg_nodes
        static = self._static_tensors(graph)

        # ---- assemble node positions (static pins + movable Steiner) ----
        pos = Tensor(graph.sg_static_pos)
        if graph.num_steiner:
            pos = pos + F.segment_sum(steiner_coords, graph.sg_steiner_rows, m)

        # Differentiable congestion sample at every Steiner-graph node.
        node_cong = self._sample_congestion(graph, pos)

        # ---- stage 1: Steiner graph ----
        static_feat = static["static_feat"]
        node_feat = concatenate(
            [Tensor(static_feat), pos * cfg.pos_scale, node_cong.reshape(m, 1)], axis=1
        )
        h = self.sg_embed(node_feat).leaky_relu(0.1)

        edge_feat = None
        if graph.sg_bcast_src.size:
            delta = self._smooth_abs(pos[graph.sg_bcast_src] - pos[graph.sg_bcast_dst])
            l1 = delta.sum(axis=1, keepdims=True)
            n_e = graph.sg_bcast_src.size
            edge_feat = concatenate(
                [
                    delta * cfg.pos_scale,
                    l1 * cfg.pos_scale,
                    node_cong[graph.sg_bcast_src].reshape(n_e, 1),
                    node_cong[graph.sg_bcast_dst].reshape(n_e, 1),
                ],
                axis=1,
            )

        for _ in range(cfg.steiner_iterations):
            if edge_feat is not None:
                msg_in = concatenate([h[graph.sg_bcast_src], edge_feat], axis=1)
                msgs = self.bcast_msg(msg_in)
                agg = F.segment_sum(msgs, graph.sg_bcast_dst, m)
                h = h + self.bcast_upd(concatenate([h, agg], axis=1)).tanh()
            if graph.sg_reduce_src.size:
                rmsg = self.reduce_msg(h[graph.sg_reduce_src]).leaky_relu(0.1)
                ragg = F.segment_sum(rmsg, graph.sg_reduce_dst, m)
                h = h + self.reduce_upd(concatenate([h, ragg], axis=1)).tanh()

        # ---- per-net differentiable load features ----
        net_feats = self._net_features(graph, pos, node_cong)
        arc_feats = self._arc_features(graph, pos, node_cong)

        # ---- stage 2: levelized netlist propagation ----
        n_pins = graph.n_pins
        arrival = F.segment_sum(
            Tensor(graph.start_arrival), graph.startpoints, n_pins
        )
        u = F.segment_sum(
            self.start_mlp(Tensor(graph.start_feat)).leaky_relu(0.1),
            graph.startpoints,
            n_pins,
        )

        for lv, lvst in zip(graph.levels, static["levels"]):
            parts_a = []
            parts_u = []
            if lv.net_sink.size:
                z = self._sink_embeddings(h, lvst["sink_safe"], lvst["sink_mask"])
                af = arc_feats[lv.net_arc_id]
                msg_in = concatenate(
                    [u[lv.net_driver], z, net_feats[lv.net_of_sink], af], axis=1
                )
                mw = self.net_msg(msg_in)
                phys = (af @ F.softplus(self.wire_phys)).reshape(-1)
                corr = F.softplus(self.wire_delay(mw)).reshape(-1)
                d_wire = phys + corr * cfg.correction_scale
                parts_a.append(arrival[lv.net_driver] + d_wire)
                parts_u.append(mw.tanh())
            if lv.cell_in.size:
                nf = net_feats[lvst["out_net"]] * Tensor(lvst["has_net"])
                msg_in = concatenate(
                    [u[lv.cell_in], Tensor(lv.cell_feat), nf], axis=1
                )
                mc = self.cell_msg(msg_in)
                # Physics inputs: characteristic arc delay + load terms.
                phys_in = concatenate([Tensor(lvst["cell_feat0"]), nf], axis=1)
                phys = (phys_in @ F.softplus(self.cell_phys)).reshape(-1)
                corr = F.softplus(self.cell_delay(mc)).reshape(-1)
                d_cell = phys + corr * cfg.correction_scale
                cand = arrival[lv.cell_in] + d_cell
                parts_a.append(
                    F.segment_max(
                        cand, lvst["out_inv"], lvst["uniq_out"].size, fill=0.0
                    )
                )
                parts_u.append(mc.tanh())
            if parts_a:
                # One fused scatter per level: destination pin sets of
                # the two branches are disjoint, so this equals the
                # sequential full-width adds bit for bit.
                vals = parts_a[0] if len(parts_a) == 1 else concatenate(parts_a, axis=0)
                arrival = arrival + F.segment_sum(vals, lvst["arrival_idx"], n_pins)
                uvals = parts_u[0] if len(parts_u) == 1 else concatenate(parts_u, axis=0)
                u = u + F.segment_sum(uvals, lvst["u_idx"], n_pins)

        return {"arrival": arrival, "pin_embedding": u, "steiner_embedding": h}

    # ------------------------------------------------------------------
    def _smooth_abs(self, t: Tensor) -> Tensor:
        """Smoothed |t|: sqrt(t^2 + delta^2) - delta (0 at 0, ~|t| away)."""
        delta = self.config.length_smoothing
        if delta <= 0:
            return t.abs()
        return (t * t + delta * delta).sqrt() - delta

    def _sample_congestion(self, graph: TimingGraph, pos: Tensor) -> Tensor:
        """Bilinear sample of the GCell congestion field at positions.

        Differentiable w.r.t. positions through the interpolation
        weights (the cell indices are piecewise-constant): the gradient
        points *down* the congestion slope, which is exactly the
        direction that reduces detour likelihood.
        """
        field = graph.congestion
        n = pos.shape[0]
        if field is None or graph.gcell_size <= 0:
            return Tensor(np.zeros(n))
        g = graph.gcell_size
        # Continuous cell coordinates with centers at k + 0.5.
        cx = pos[:, 0] * (1.0 / g) - 0.5
        cy = pos[:, 1] * (1.0 / g) - 0.5
        # Cell corners and gathered values are detached recompute nodes
        # (piecewise constant in pos — no gradient; re-derived from the
        # live coordinates when this forward is replayed from a tape).
        ixf, iyf, c00, c10, c01, c11 = F.bilinear_parts(field, cx, cy)
        fx = (cx - ixf).clip(0.0, 1.0)
        fy = (cy - iyf).clip(0.0, 1.0)
        one = Tensor(np.ones(n))
        return (
            c00 * (one - fx) * (one - fy)
            + c10 * fx * (one - fy)
            + c01 * (one - fx) * fy
            + c11 * fx * fy
        )

    def _arc_features(self, graph: TimingGraph, pos: Tensor, node_cong: Tensor) -> Tensor:
        """Per driver->sink arc physics features (differentiable).

        * smoothed rectilinear path length driver -> sink;
        * Elmore proxy: sum over path edges of length x downstream
          sink-pin capacitance (the first-order R*C term);
        * path length x driver resistance (drive-limited delay term);
        * path congestion: summed field samples along the path (detour
          likelihood of this arc's route).
        """
        cfg = self.config
        n = graph.n_net_arcs
        if n == 0 or graph.path_src.size == 0:
            return Tensor(np.zeros((max(n, 1), self.N_ARC_FEATS)))
        entry_len = self._smooth_abs(pos[graph.path_src] - pos[graph.path_dst]).sum(axis=1)
        path_len = F.segment_sum(entry_len, graph.path_arc, n)
        weighted = entry_len * Tensor(graph.path_downcap * cfg.cap_scale)
        elmore = F.segment_sum(weighted, graph.path_arc, n)
        drive = path_len * Tensor(graph.arc_drive_res * cfg.res_scale)
        entry_cong = (node_cong[graph.path_src] + node_cong[graph.path_dst]) * 0.5
        path_cong = F.segment_sum(entry_cong, graph.path_arc, n)
        return concatenate(
            [
                (path_len * cfg.pos_scale).reshape(n, 1),
                (elmore * cfg.pos_scale).reshape(n, 1),
                (drive * cfg.pos_scale).reshape(n, 1),
                path_cong.reshape(n, 1),
            ],
            axis=1,
        )

    def _net_features(self, graph: TimingGraph, pos: Tensor, node_cong: Tensor) -> Tensor:
        cfg = self.config
        n_nets = graph.n_nets
        if graph.net_edge_src_node.size:
            delta = self._smooth_abs(pos[graph.net_edge_src_node] - pos[graph.net_edge_dst_node])
            lengths = delta.sum(axis=1)
            net_wl = F.segment_sum(lengths, graph.net_of_edge, n_nets)
            edge_cong = (
                node_cong[graph.net_edge_src_node] + node_cong[graph.net_edge_dst_node]
            ) * 0.5
            net_cong = F.segment_sum(edge_cong, graph.net_of_edge, n_nets)
        else:
            net_wl = Tensor(np.zeros(n_nets))
            net_cong = Tensor(np.zeros(n_nets))
        wl = (net_wl * cfg.pos_scale).reshape(n_nets, 1)
        caps = Tensor((graph.net_sink_cap_sum * cfg.cap_scale).reshape(n_nets, 1))
        res = Tensor((graph.net_drive_res * cfg.res_scale).reshape(n_nets, 1))
        rc_proxy = wl * res  # driver-resistance x wirelength, Elmore-like
        return concatenate([wl, caps, res, rc_proxy, net_cong.reshape(n_nets, 1)], axis=1)

    @staticmethod
    def _sink_embeddings(h: Tensor, safe: np.ndarray, mask: np.ndarray) -> Tensor:
        """Steiner-graph embedding per sink; zero row where no tree node.

        ``safe``/``mask`` come precomputed from :meth:`_static_tensors`.
        """
        return h[safe] * Tensor(mask)

    # ------------------------------------------------------------------
    def objective(self, graph: TimingGraph, gamma: float, telemetry=None, merge=None, active=None):
        """The refinement objective ``refine()`` queries on ``graph``: the
        cached :class:`~repro.timing_model.compiled.CompiledObjective`
        for ``gamma`` (and, under MCMM, the ``merge`` scenario penalty
        over the ``active`` mask), compiled on first use."""
        from repro.timing_model.compiled import get_compiled_objective

        return get_compiled_objective(
            self, graph, gamma, telemetry=telemetry, merge=merge, active=active
        )

    def predict_arrivals(self, graph: TimingGraph, steiner_coords: np.ndarray) -> np.ndarray:
        """Inference-only helper returning a numpy arrival array."""
        from repro.autodiff.tensor import no_grad

        with no_grad():
            out = self.forward(graph, Tensor(np.asarray(steiner_coords)))
        return out["arrival"].numpy()
