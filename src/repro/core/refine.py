"""Concurrent Steiner point refinement — Algorithm 1 of the paper.

The loop mirrors the pseudocode line for line:

* initial evaluated WNS/TNS become ``init_*`` and ``best_*`` (lines 1-2);
* the adaptive stepsize seeds the stochastic optimizer (lines 3-5);
* each iteration applies the Eq. (7) update to all Steiner points
  *concurrently* (line 7), evaluates the candidate with the frozen
  GNN evaluator (line 8), and accepts it when either evaluated metric
  improves, reverting otherwise (lines 9-14);
* the loop breaks at ``N`` iterations (line 16) or when either metric
  has improved by the converge ratio ``mu`` (line 19);
* from iteration 5 onward the penalty weights escalate by 1 % per
  iteration (Section IV-A), sharpening the objective once the easy
  gains are taken;
* every candidate is clamped to the routing-grid boundary, and the
  per-iteration displacement is capped by the GCell dimensions
  ("we constrain the largest moving distance according to the width
  and length of the global routing grid graph").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.autodiff.optim import AccumulatingSO, PaperSO
from repro.autodiff.tensor import Tensor
from repro.core.adaptive import adaptive_theta
from repro.core.penalty import PenaltyConfig, hard_metrics, refinement_penalty
from repro.obs import SCHEMA_VERSION, get_telemetry
from repro.runtime import (
    Budget,
    BudgetExceeded,
    CheckpointError,
    ValidatorError,
    atomic_save_npz,
    check_finite,
    load_npz,
    retry_call,
    validate_policy,
)
from repro.steiner.forest import SteinerForest
from repro.timing_model.graph import TimingGraph
from repro.timing_model.model import TimingEvaluator


# Backtracking never shrinks the stepsize below this floor.
MIN_THETA = 1e-4
# Gentle re-growth of the stepsize on every accept, capped at theta0.
EXPAND_ON_ACCEPT = 1.05
# Proposal schedule for hybrid mode: (move fraction, theta scale)
# profiles.  The move fraction is the share of Steiner points moved per
# iteration, chosen by gradient magnitude (criticality); 1.0 is
# Eq. (7)'s move-everything step.  After each validated revert the loop
# rotates to the next profile, so rejected dense moves are followed by
# sparser, smaller, more surgical candidates — mirroring how greedy
# per-point search finds the improving moves dense concurrent steps
# miss.  Evaluator mode always moves every point.
PROPOSAL_SCHEDULE = ((1.0, 1.0), (0.3, 0.5), (0.08, 0.3), (0.02, 0.15))
# The oracle polish moves one of the POLISH_TOP_K highest-gradient
# points per probe, by one of POLISH_STEPS (GCell units, cycled).
POLISH_TOP_K = 24
POLISH_STEPS = (0.5, 1.0, 2.0)


@dataclass
class RefinementConfig:
    """Algorithm 1 hyper-parameters (paper Section IV-A defaults)."""

    max_iterations: int = 50  # N
    converge_ratio: float = 0.1  # mu
    alpha: float = 5.0  # probe scale for adaptive theta
    beta1: float = 0.9
    beta2: float = 0.999
    # Eq. (7)'s epsilon.  With per-step moments the update degenerates
    # to theta*(1-b1)/sqrt(1-b2)*sign(g) wherever |g| >> eps, moving
    # *every* point the same distance regardless of how critical it is.
    # A larger eps keeps points with tiny gradients nearly still while
    # critical points take full steps — essential for the concurrent
    # update to be accepted by the evaluator.
    eps: float = 1e-2
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    escalation_start: int = 5
    escalation_rate: float = 1.01  # +1 % per iteration
    move_limit_gcells: float = 1.0  # per-iteration displacement cap
    optimizer: str = "paper"  # "paper" (Eq. 7) or "adam" (ablation)
    # Backtracking is an addition over the paper's pseudocode: a
    # rejected candidate leaves coordinates unchanged, so without it
    # Algorithm 1 regenerates the same rejected move forever once theta
    # overshoots.  Shrinking theta on rejection restores progress while
    # preserving the accept/revert semantics.  Set to 1.0 to disable
    # (the ablation bench measures the difference).
    backtrack: float = 0.7
    # Validation mode.  "evaluator" is the paper's literal Algorithm 1:
    # acceptance judged solely by the GNN evaluator.  "hybrid" keeps
    # evaluator-driven gradients and per-step acceptance but, every
    # ``validate_every`` accepted steps, re-times the candidate with a
    # fast routing+STA probe and reverts if the *real* metrics
    # regressed — guarding against the evaluator being over-optimized
    # into regions where its own error masquerades as improvement.
    acceptance: str = "hybrid"
    # A validated candidate is kept only when its real metrics improve
    # the Eq. (6)-weighted score |lambda_w|*WNS + |lambda_t|*TNS, so a
    # WNS gain cannot silently sacrifice an outsized amount of TNS.
    validate_every: int = 5
    # Oracle-polish stage (hybrid mode only): after the concurrent
    # gradient phase, a budgeted per-point local search moves the
    # highest-gradient Steiner points one at a time along their negative
    # gradient direction, accepting only oracle-validated improvements.
    # The evaluator supplies criticality ranking and direction; the
    # oracle guarantees the harvest is real.  Set to 0 to disable
    # (recovering the pure concurrent loop for the ablation bench).
    polish_probes: int = 48
    # ---- resilience (docs/RESILIENCE.md) ----
    # Non-finite gradients / arrivals / candidate coordinates either
    # abort the run ("raise", a NumericalError) or skip the poisoned
    # step and shrink theta ("sanitize") so one bad step cannot discard
    # the whole refinement.
    nonfinite_policy: str = "raise"
    # A failing oracle probe is retried; once retries are exhausted the
    # loop degrades to evaluator-only acceptance
    # (RefinementResult.degraded) instead of crashing Algorithm 1.
    validator_retries: int = 2


@dataclass
class RefinementResult:
    """Outcome of one refinement run."""

    coords: np.ndarray  # best flat Steiner coordinates
    init_wns: float
    init_tns: float
    best_wns: float
    best_tns: float
    iterations: int
    theta: float
    accepted: int
    history: List[Tuple[float, float]] = field(default_factory=list)
    validations: int = 0  # oracle probes run (hybrid mode)
    validated_reverts: int = 0  # probes that rejected the candidate
    timed_out: bool = False  # a budget expired; best-so-far returned
    degraded: bool = False  # validator failed; evaluator-only acceptance
    skipped_steps: int = 0  # steps dropped by the non-finite guard
    resumed: bool = False  # run continued from a checkpoint

    @property
    def wns_improvement(self) -> float:
        """Relative predicted-WNS improvement (positive is better)."""
        if abs(self.init_wns) < 1e-12:
            return 0.0
        return (self.init_wns - self.best_wns) / self.init_wns

    @property
    def tns_improvement(self) -> float:
        if abs(self.init_tns) < 1e-12:
            return 0.0
        return (self.init_tns - self.best_tns) / self.init_tns


class _Oracle:
    """The evaluator's forward/backward for one refinement run.

    ``gradient`` differentiates the refinement objective w.r.t. the
    Steiner coordinates: the Eq. (6) penalty, or under MCMM
    (docs/MCMM.md) the LSE merge of the per-scenario penalties over the
    dominance pruner's *active* scenarios.  ``gradient``/``evaluate``
    report hard metrics — under MCMM the merged (worst-WNS, summed-TNS)
    verdict over *all* scenarios, so the Algorithm 1 accept/revert rule
    judges sign-off across every corner.

    Both replay the compiled tape cached on the graph's topology cache
    (one per active mask under MCMM).  The closure engine runs instead
    only when the graph cannot be compiled or the model exposes no
    ``named_parameters()`` for the tape to read live.
    """

    def __init__(self, model: TimingEvaluator, graph: TimingGraph, gamma: float, scenarios, tel) -> None:
        self.model = model
        self.graph = graph
        self.tel = tel
        self.gamma = gamma
        self.compilable = callable(getattr(model, "named_parameters", None))
        self.merge = self.pruner = self.scenario_names = None
        self.last_wns_vector: Optional[np.ndarray] = None
        if scenarios is not None and not scenarios.is_single_neutral():
            from repro.mcmm.penalty import ScenarioPenalty
            from repro.mcmm.prune import DominancePruner

            self.scenario_names = list(scenarios.names)
            self.merge = ScenarioPenalty(graph, scenarios)
            self.pruner = DominancePruner(scenarios.names, telemetry=tel)

    @property
    def _active(self) -> Optional[np.ndarray]:
        return None if self.pruner is None else self.pruner.active

    def _compiled(self):
        if not self.compilable:
            return None
        from repro.timing_model.compiled import get_compiled_objective

        return get_compiled_objective(
            self.model,
            self.graph,
            self.gamma,
            telemetry=self.tel,
            merge=self.merge,
            active=self._active,
        )

    def _hard(self, arrival: np.ndarray) -> Tuple[float, float]:
        if self.merge is None:
            wns, tns, _ = hard_metrics(arrival, self.graph.endpoints, self.graph.required)
            return wns, tns
        self.last_wns_vector, _, wns, tns = self.merge.hard_all(arrival)
        return wns, tns

    def gradient(
        self, coords: np.ndarray, pcfg: PenaltyConfig
    ) -> Tuple[np.ndarray, float, float, float]:
        """(dP/dcoords, evaluated WNS, evaluated TNS, penalty) at ``coords``."""
        with self.tel.span("refine.gradient"):
            if self.pruner is not None:
                self.pruner.tick()
            obj = self._compiled()
            if obj is not None:
                grad, arrival, penalty = obj.gradient(coords, pcfg)
            else:
                t_coords = Tensor(coords, requires_grad=True)
                out = self.model(self.graph, t_coords)
                root = refinement_penalty(out["arrival"], self.graph, pcfg, self.merge, self._active)
                root.backward()
                grad = t_coords.grad if t_coords.grad is not None else np.zeros_like(coords)
                arrival, penalty = out["arrival"].data, root.item()
            self.tel.count("evaluator.backward")
            wns, tns = self._hard(arrival)
        return np.asarray(grad, dtype=np.float64), wns, tns, float(penalty)

    def evaluate(self, coords: np.ndarray) -> Tuple[float, float]:
        with self.tel.span("refine.evaluate"):
            obj = self._compiled()
            if obj is not None:
                return self._hard(obj.evaluate(coords))
            return self._hard(self.model.predict_arrivals(self.graph, coords))

    def on_accept(self) -> None:
        """Feed the accepted candidate's per-scenario WNS to the pruner."""
        if self.pruner is not None and self.last_wns_vector is not None:
            self.pruner.observe(self.last_wns_vector)

    def save_state(self, arrays: dict, meta: dict) -> None:
        """Add the pruner state and scenario names to a checkpoint."""
        if self.pruner is not None:
            arrays.update(self.pruner.state_arrays())
            meta["mcmm_scenarios"] = self.scenario_names

    def load_state(self, arrays, meta: dict) -> None:
        """Restore :meth:`save_state`; a snapshot taken under another
        scenario set cannot seed this run."""
        ckpt_scen = meta.get("mcmm_scenarios")
        if ckpt_scen != self.scenario_names:
            raise CheckpointError(
                f"checkpoint scenario set {ckpt_scen} does not match this "
                f"run's {self.scenario_names}"
            )
        if self.pruner is not None:
            self.pruner.load_state_arrays(arrays)

    def invalidate(self) -> None:
        """Drop cached static evaluator tensors bound to ``self.graph``."""
        static = getattr(self.graph, "_static", None)
        if static is not None:
            static.clear()


Validator = Callable[[np.ndarray], Tuple[float, float]]

_REFINE_CKPT_KIND = "refine-v1"


@dataclass
class RefineState:
    """Algorithm 1 loop state — and the ``refine-v1`` checkpoint schema.

    One field per checkpoint key, in file order.  :meth:`to_arrays` and
    :meth:`from_arrays` walk :func:`dataclasses.fields`, flattening the
    escalated ``penalty`` into ``lambda_wns``/``lambda_tns``/``gamma``
    and the optional real anchor metrics into ``has_real`` + ``real_*``.
    """

    coords: np.ndarray  # the trajectory point
    best_coords: np.ndarray  # last accepted candidate
    real_coords: np.ndarray  # last validated anchor (hybrid mode)
    history: List[Tuple[float, float]]  # evaluated (WNS, TNS) per iteration
    t: int = 0  # iterations run
    accepted: int = 0
    pending_accepts: int = 0  # accepts since the last validation
    prop_idx: int = 0  # proposal-schedule cursor
    validations: int = 0  # oracle probes run
    validated_reverts: int = 0
    skipped_steps: int = 0
    best_wns: float = 0.0
    best_tns: float = 0.0
    init_wns: float = 0.0
    init_tns: float = 0.0
    theta0: float = 0.0  # adaptive stepsize (Eq. 8-9)
    so_theta: float = 0.0  # current stepsize after backtracking
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    degraded: bool = False
    validator_on: bool = False
    real_wns: Optional[float] = None
    real_tns: Optional[float] = None

    def to_arrays(self) -> Dict[str, Any]:
        arrays: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "penalty":
                arrays.update(asdict(value))
                continue
            if f.name == "history":
                value = np.asarray(value, dtype=np.float64).reshape(-1, 2)
            elif f.name == "real_wns":
                arrays["has_real"] = value is not None
            arrays[f.name] = float("nan") if value is None else value
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Dict[str, Any]) -> "RefineState":
        values: Dict[str, Any] = {}
        for f in fields(cls):
            if f.name == "penalty":
                values[f.name] = PenaltyConfig(**{g.name: float(arrays[g.name]) for g in fields(PenaltyConfig)})
            elif f.name == "history":
                pairs = np.asarray(arrays[f.name]).reshape(-1, 2)
                values[f.name] = [(float(w), float(n)) for w, n in pairs]
            elif f.name in ("real_wns", "real_tns"):
                values[f.name] = float(arrays[f.name]) if arrays["has_real"] else None
            elif isinstance(arrays[f.name], np.ndarray):
                values[f.name] = np.array(arrays[f.name], dtype=np.float64, copy=True)
            else:
                values[f.name] = arrays[f.name]
        return cls(**values)


class _Refinement:
    """One :func:`refine` run: its phases as methods over a RefineState."""

    def __init__(self, model, graph, cfg, clamp_fn, validator, budget, checkpoint_path, tel, scenarios):
        self.cfg = cfg
        self.policy = validate_policy(cfg.nonfinite_policy)
        self.clamp = clamp_fn or (lambda c: c)
        self.validator = validator
        self.budget = budget
        self.checkpoint_path = checkpoint_path
        self.tel = tel
        self.oracle = _Oracle(model, graph, cfg.penalty.gamma, scenarios, tel)
        self.gcell = graph.netlist.technology.gcell_size
        self.move_cap = cfg.move_limit_gcells * self.gcell
        self.checkpoint_saves = 0
        self.timed_out = False
        self.resumed = False

    def score(self, wns: float, tns: float) -> float:
        """The Eq. (6)-weighted real score that validation and polish improve."""
        pen = self.cfg.penalty
        return abs(pen.lambda_wns) * wns + abs(pen.lambda_tns) * tns

    def _proposal(self) -> Tuple[float, float]:
        return PROPOSAL_SCHEDULE[self.s.prop_idx % len(PROPOSAL_SCHEDULE)]

    # ---- start: fresh or resumed ----------------------------------------
    def start(self, coords: np.ndarray, resume: bool) -> None:
        cfg = self.cfg
        ckpt = self._load(coords) if resume else None
        self.resumed = ckpt is not None
        if ckpt is None:
            # Lines 1-2: initial evaluated metrics.
            init_wns, init_tns = self.oracle.evaluate(coords)
            # Line 3: adaptive stepsize (Eq. 8-9).
            theta = adaptive_theta(
                coords,
                lambda c: self.oracle.gradient(self.clamp(c), cfg.penalty)[0],
                alpha=cfg.alpha,
                fallback=self.gcell * 0.1,
            )
            self.s = RefineState(
                coords=coords,
                best_coords=coords.copy(),
                real_coords=coords.copy(),
                history=[],
                best_wns=init_wns,
                best_tns=init_tns,
                init_wns=init_wns,
                init_tns=init_tns,
                theta0=theta,
                so_theta=theta,
                penalty=cfg.penalty,
                validator_on=cfg.acceptance == "hybrid" and self.validator is not None,
            )
        else:
            self.s = RefineState.from_arrays(ckpt)
            self.s.validator_on = self.s.validator_on and self.validator is not None

        s = self.s
        # Line 5: optimizer.
        optimizer = {"paper": PaperSO, "adam": AccumulatingSO}.get(cfg.optimizer)
        if optimizer is None:
            raise ValueError(f"unknown optimizer {cfg.optimizer!r}")
        self.so = optimizer(s.theta0, cfg.beta1, cfg.beta2, cfg.eps)
        if ckpt is not None:
            if "so_m" in ckpt:  # accumulated moments of the "adam" ablation
                self.so._m = np.array(ckpt["so_m"], dtype=np.float64, copy=True)
                self.so._v = np.array(ckpt["so_v"], dtype=np.float64, copy=True)
                self.so._t = int(ckpt["so_t"])
            # A resumed run may hand us a live oracle from the
            # interrupted attempt whose caches describe coordinates the
            # restored trajectory never visited — drop them.  A stateful
            # validator needs no reset: its STA diffs every probe
            # against its own state.
            self.oracle.invalidate()
        elif s.validator_on:
            # Hybrid mode: the real anchor of the initial point.
            s.validations += 1
            anchor = self._probe(coords)
            if anchor is not None:
                s.real_wns, s.real_tns = anchor

        if self.tel.enabled:
            self.tel.event(
                "refine_start",
                init_wns=s.init_wns,
                init_tns=s.init_tns,
                theta0=s.theta0,
                points=int(coords.shape[0]),
                max_iterations=cfg.max_iterations,
                acceptance=cfg.acceptance,
                resumed=self.resumed,
            )

    def _load(self, coords: np.ndarray) -> Optional[Dict[str, Any]]:
        """The snapshot at ``checkpoint_path``, checked against this run."""
        path = self.checkpoint_path
        if path is None or not Path(path).exists():
            return None
        ckpt = load_npz(path)
        meta = ckpt.get("meta") or {}
        if meta.get("kind") != _REFINE_CKPT_KIND:
            raise CheckpointError(f"{path} is not a refinement checkpoint")
        if np.asarray(ckpt["coords"]).shape != coords.shape:
            raise CheckpointError(
                f"checkpoint coords shape {np.asarray(ckpt['coords']).shape} does "
                f"not match design shape {coords.shape}"
            )
        # The trajectory is a function of the config and scenario state:
        # a snapshot taken under others cannot seed this run.
        config, saved = asdict(self.cfg), meta.get("config") or {}
        changed = sorted(k for k in config if saved.get(k) != config[k])
        if changed:
            raise CheckpointError(
                f"checkpoint was taken under a different RefinementConfig ({', '.join(changed)})"
            )
        self.oracle.load_state(ckpt, meta)
        # Stitch this trace onto the interrupted run's trajectory: the
        # snapshot carries the run-id of the telemetry that wrote it.
        self.tel.event(
            "checkpoint_resume",
            what="refine",
            parent_run=meta.get("telemetry_run"),
            parent_schema=meta.get("telemetry_schema"),
            iteration=int(ckpt["t"]),
        )
        return ckpt

    def _save(self) -> None:
        """Snapshot the loop state atomically."""
        arrays = self.s.to_arrays()
        so = self.so
        if isinstance(so, AccumulatingSO) and so._m is not None:
            arrays.update(so_m=so._m, so_v=so._v, so_t=so._t)
        meta = {
            "kind": _REFINE_CKPT_KIND,
            "telemetry_run": self.tel.run_id,
            "telemetry_schema": SCHEMA_VERSION,
            "config": asdict(self.cfg),
        }
        self.oracle.save_state(arrays, meta)
        atomic_save_npz(self.checkpoint_path, arrays, meta=meta)
        self.checkpoint_saves += 1
        self.tel.count("refine.checkpoint_saves")

    # ---- oracle probes --------------------------------------------------
    def _probe(self, coords: np.ndarray) -> Optional[Tuple[float, float]]:
        """Probe the real flow with retry; ``None`` == degrade, don't crash."""
        s, tel = self.s, self.tel
        tel.count("refine.validator_probes")
        with tel.span("refine.validate"):
            if self.budget is not None:
                self.budget.spend_probe()

            def probe(arr: np.ndarray) -> Tuple[float, float]:
                rw, rt = self.validator(arr)
                if not (np.isfinite(rw) and np.isfinite(rt)):
                    raise ValidatorError(f"validator returned non-finite metrics ({rw}, {rt})")
                return float(rw), float(rt)

            try:
                return retry_call(probe, coords, attempts=self.cfg.validator_retries + 1)
            except BudgetExceeded:
                raise
            except Exception as exc:
                s.degraded = True
                s.validator_on = False
                tel.event("validator_degraded", error=f"{type(exc).__name__}: {exc}")
                return None

    def _validate(self) -> None:
        """Probe the real flow; keep or revert to the last real anchor.

        Candidates are validated *post-rounding* so the probe times the
        byte-identical geometry the production flow will route — the
        0.01 um snap can flip GCell assignments, so validating the
        unrounded point would anchor on a different route.

        A probe that keeps failing after retries flips the run into
        degraded evaluator-only mode: the pending candidate stays
        accepted on the evaluator's word, and no further probes run.
        """
        s = self.s
        s.validations += 1
        rounded = SteinerForest.round_array(s.coords)
        probed = self._probe(rounded)
        if probed is None:  # degraded — stop validating, keep refining
            s.pending_accepts = 0
            return
        if self.score(*probed) > self.score(s.real_wns, s.real_tns):
            s.real_wns, s.real_tns = probed
            s.real_coords = rounded.copy()
        else:
            s.validated_reverts += 1
            s.coords = s.real_coords.copy()
            s.best_coords = s.real_coords.copy()
            # Reset the predicted-metric baseline to the anchor, else
            # the inflated rejected prediction blocks all future accepts.
            s.best_wns, s.best_tns = self.oracle.evaluate(s.coords)
            # Rotate to the next proposal profile: sparser and smaller.
            s.prop_idx += 1
            s.so_theta = max(s.theta0 * self._proposal()[1], MIN_THETA)
        s.pending_accepts = 0

    # ---- the concurrent loop --------------------------------------------
    def _candidate(self, grad: np.ndarray) -> Optional[np.ndarray]:
        """Line 7: the Eq. (7) step of all Steiner points, capped by the
        GCell size, focused on the proposal's most critical share and
        clamped to the grid; ``None`` when the step is poisoned."""
        s = self.s
        if not check_finite(grad, "refinement gradient", self.policy):
            return None
        self.so.theta = s.so_theta
        candidate = self.so.update(s.coords, grad)
        step = np.clip(candidate - s.coords, -self.move_cap, self.move_cap)
        fraction = self._proposal()[0] if s.validator_on else 1.0
        if fraction < 1.0 and s.coords.shape[0] > 4:
            # Concentrate the move on the most critical points.
            magnitude = np.abs(grad).sum(axis=1)
            k = max(1, int(np.ceil(s.coords.shape[0] * fraction)))
            threshold = np.partition(magnitude, -k)[-k]
            step = step * (magnitude >= threshold)[:, None]
        candidate = self.clamp(s.coords + step)
        if not check_finite(candidate, "candidate coordinates", self.policy):
            return None
        return candidate

    def iterate(self) -> None:
        cfg, s, tel = self.cfg, self.s, self.tel
        while True:
            # Line 16: iteration cap.
            if s.t >= cfg.max_iterations:
                break
            # Line 19: auto-convergence at ratio mu.
            if _converged(s.init_wns, s.best_wns, cfg.converge_ratio) or _converged(
                s.init_tns, s.best_tns, cfg.converge_ratio
            ):
                break
            # Cooperative budget check: wind down with the best-so-far.
            if self.budget is not None and self.budget.expired():
                self.timed_out = True
                tel.event("budget_expired", where="refine", iteration=s.t)
                break

            lam_w, lam_t = s.penalty.lambda_wns, s.penalty.lambda_tns
            grad, _, _, penalty_value = self.oracle.gradient(s.coords, s.penalty)
            candidate = self._candidate(grad)
            # Line 8: evaluate the temporary solution.
            metrics = None if candidate is None else self.oracle.evaluate(candidate)
            skipped = metrics is None or not check_finite(metrics, "evaluated metrics", self.policy)
            accepted = False
            if skipped:
                # Poisoned step under the sanitize policy: skip it, shrink
                # theta so the next proposal differs, keep the run alive.
                s.skipped_steps += 1
                s.so_theta = max(s.so_theta * cfg.backtrack, MIN_THETA)
                s.history.append((s.best_wns, s.best_tns))
            else:
                wns, tns = metrics
                s.history.append((wns, tns))
                # Lines 9-14: accept if either metric improved, else revert.
                if wns > s.best_wns or tns > s.best_tns:
                    s.best_wns = max(s.best_wns, wns)
                    s.best_tns = max(s.best_tns, tns)
                    s.coords = candidate
                    s.best_coords = candidate.copy()
                    s.accepted += 1
                    accepted = True
                    s.pending_accepts += 1
                    # Under MCMM the accepted candidate's per-scenario
                    # WNS drives dominance pruning of the merged gradient.
                    self.oracle.on_accept()
                    s.so_theta = min(s.so_theta * EXPAND_ON_ACCEPT, s.theta0)
                    if s.validator_on and s.pending_accepts >= cfg.validate_every:
                        self._validate()
                else:
                    # Revert; shrink the stepsize so the next candidate differs.
                    s.so_theta = max(s.so_theta * cfg.backtrack, MIN_THETA)

            s.t += 1
            # Penalty escalation from iteration 5 (Section IV-A).
            if s.t >= cfg.escalation_start:
                s.penalty = s.penalty.escalated(cfg.escalation_rate)

            if self.checkpoint_path is not None:
                self._save()

            if tel.enabled:
                it_wns, it_tns = s.history[-1]
                tel.event(
                    "refine_iter",
                    i=s.t - 1,
                    wns=it_wns,
                    tns=it_tns,
                    best_wns=s.best_wns,
                    best_tns=s.best_tns,
                    penalty=penalty_value,
                    theta=s.so_theta,
                    lambda_w=lam_w,
                    lambda_t=lam_t,
                    accepted=accepted,
                    skipped=skipped,
                    validations=s.validations,
                    validated_reverts=s.validated_reverts,
                    checkpoint_saves=self.checkpoint_saves,
                )

    # ---- oracle polish and the result -----------------------------------
    def polish(self) -> None:
        """Per-point oracle-validated descent on the most critical points.

        Cycles through the ``POLISH_TOP_K`` Steiner points with the
        largest evaluator-gradient magnitude; each probe moves one point
        of the real anchor by one of ``POLISH_STEPS`` GCells along its
        negative gradient direction and keeps the move only if the real
        weighted :meth:`score` improves.  The gradient is re-evaluated
        after every accepted move so the ranking tracks the evolving
        critical paths.  A probe that degrades the run (the oracle went
        down) stops the stage at the validated best; so does an expired
        budget (flagging the run ``timed_out``).
        """
        s = self.s

        def ranked() -> Tuple[np.ndarray, np.ndarray]:
            grad = self.oracle.gradient(s.real_coords, s.penalty)[0]
            return grad, np.argsort(-np.abs(grad).sum(axis=1))[:POLISH_TOP_K]

        grad, order = ranked()
        probes = cursor = step_idx = 0
        while probes < self.cfg.polish_probes and order.size:
            if self.budget is not None and self.budget.expired():
                self.timed_out = True
                break
            point = int(order[cursor % order.size])
            direction = -grad[point]
            norm = float(np.linalg.norm(direction))
            cursor += 1
            if norm < 1e-15:
                if cursor > order.size:  # gradient exhausted
                    break
                continue
            step = POLISH_STEPS[step_idx % len(POLISH_STEPS)] * self.gcell
            step_idx += 1
            candidate = s.real_coords.copy()
            candidate[point] = candidate[point] + step * direction / norm
            candidate = SteinerForest.round_array(self.clamp(candidate))
            probed = self._probe(candidate)
            probes += 1
            s.validations += 1
            if probed is None:  # oracle down — keep the validated best
                break
            if self.score(*probed) > self.score(s.real_wns, s.real_tns):
                s.real_coords = candidate
                s.real_wns, s.real_tns = probed
                grad, order = ranked()
                cursor = 0

    def finish(self) -> RefinementResult:
        """Final validation and polish, then the result and ``refine_end``."""
        s, cfg = self.s, self.cfg
        with self.tel.span("refine.finish"):
            polished = False
            if s.validator_on:
                if s.pending_accepts and not self.timed_out:
                    self._validate()
                if s.validator_on and cfg.polish_probes > 0 and not self.timed_out:
                    polished = True
                    self.polish()
            if s.validator_on or polished:
                # The last validated point — also when the validator went
                # down during polish, which keeps its best validated probe.
                s.best_coords = s.real_coords
            elif s.degraded and cfg.acceptance == "hybrid":
                # Degraded mid-run: the surviving coordinates are the
                # evaluator's accepted trajectory; round them so the
                # hybrid-mode contract (routable snapped geometry) holds.
                s.best_coords = SteinerForest.round_array(s.best_coords)

        end = dict(
            init_wns=s.init_wns,
            init_tns=s.init_tns,
            best_wns=s.best_wns,
            best_tns=s.best_tns,
            iterations=s.t,
            accepted=s.accepted,
            validations=s.validations,
            validated_reverts=s.validated_reverts,
            skipped_steps=s.skipped_steps,
            checkpoint_saves=self.checkpoint_saves,
            timed_out=self.timed_out,
            degraded=s.degraded,
            resumed=self.resumed,
        )
        if self.tel.enabled:
            self.tel.event("refine_end", **end)
        del end["checkpoint_saves"]
        return RefinementResult(coords=s.best_coords, theta=s.theta0, history=s.history, **end)


def refine(
    model: TimingEvaluator,
    graph: TimingGraph,
    initial_coords: np.ndarray,
    config: Optional[RefinementConfig] = None,
    clamp_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    validator: Optional[Validator] = None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    telemetry=None,
    scenarios=None,
) -> RefinementResult:
    """Run Algorithm 1; returns the best coordinates found.

    ``clamp_fn`` clamps candidate coordinates to the grid boundary
    (typically ``forest.clamp_coords``); identity when omitted.
    ``validator`` maps coordinates to real (WNS, TNS) — required for
    ``acceptance="hybrid"``, ignored in ``"evaluator"`` mode.  It only
    ever gets coordinates: a stateful validator finds by itself what
    changed since its last probe (a revert or a resume included).

    MCMM (docs/MCMM.md): ``scenarios`` (a ``repro.mcmm.ScenarioSet``)
    switches acceptance, gradients and reported metrics to the merged
    worst-over-scenarios verdict; per-scenario WNS feeds dominance
    pruning.  ``None`` or a one-element neutral set runs the original
    single-scenario path bitwise-unchanged.  An MCMM validator should
    return merged (WNS, TNS) — see ``TSteiner._make_validator``.

    Resilience (docs/RESILIENCE.md): an expired ``budget`` returns the
    best-so-far result flagged ``timed_out=True``; ``checkpoint_path``
    snapshots the :class:`RefineState` atomically after every iteration,
    and ``resume=True`` continues from such a snapshot with
    byte-identical results to an uninterrupted run.  A snapshot taken
    under another config or scenario set raises ``CheckpointError``.

    Observability (docs/OBSERVABILITY.md): ``telemetry`` records one
    ``refine_iter`` event per iteration (WNS/TNS, smoothed penalty,
    stepsize, penalty weights, accept/revert, probe and checkpoint
    counts) bracketed by ``refine_start``/``refine_end``, and the
    ``refine.gradient``/``refine.evaluate``/``refine.validate``/
    ``refine.finish`` spans; defaults to the process-global telemetry
    (NULL — observation-free).
    """
    tel = telemetry if telemetry is not None else get_telemetry()
    cfg = config or RefinementConfig()
    run = _Refinement(model, graph, cfg, clamp_fn, validator, budget, checkpoint_path, tel, scenarios)
    coords = np.asarray(initial_coords, dtype=np.float64).reshape(-1, 2).copy()
    if coords.shape[0] != graph.num_steiner:
        raise ValueError(
            f"coordinate count {coords.shape[0]} does not match the graph's "
            f"{graph.num_steiner} Steiner nodes"
        )
    if coords.size == 0:
        wns, tns = run.oracle.evaluate(coords)
        return RefinementResult(coords, wns, tns, wns, tns, 0, 0.0, 0)
    run.start(coords, resume)
    run.iterate()
    return run.finish()


def _converged(init: float, best: float, mu: float) -> bool:
    """Line 19 test: relative improvement exceeded the converge ratio."""
    if abs(init) < 1e-12:
        return False
    return (init - best) / init > mu
