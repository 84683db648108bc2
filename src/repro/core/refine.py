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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
from repro.timing_model.graph import TimingGraph
from repro.timing_model.model import TimingEvaluator


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
    min_theta: float = 1e-4
    expand_on_accept: float = 1.05  # gentle re-growth, capped at theta0
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
    # Proposal schedule for hybrid mode: (move fraction, theta scale)
    # profiles.  The move fraction is the share of Steiner points moved
    # per iteration, chosen by gradient magnitude (criticality); 1.0 is
    # Eq. (7)'s move-everything step.  After each validated revert the
    # loop rotates to the next profile, so rejected dense moves are
    # followed by sparser, smaller, more surgical candidates — mirroring
    # how greedy per-point search finds the improving moves dense
    # concurrent steps miss.  Evaluator mode always moves every point.
    proposal_schedule: Tuple[Tuple[float, float], ...] = (
        (1.0, 1.0),
        (0.3, 0.5),
        (0.08, 0.3),
        (0.02, 0.15),
    )
    # Oracle-polish stage (hybrid mode only): after the concurrent
    # gradient phase, a budgeted per-point local search moves the
    # highest-gradient Steiner points one at a time along their negative
    # gradient direction, accepting only oracle-validated improvements.
    # The evaluator supplies criticality ranking and direction; the
    # oracle guarantees the harvest is real.  Set to 0 to disable
    # (recovering the pure concurrent loop for the ablation bench).
    polish_probes: int = 48
    polish_top_k: int = 24
    polish_steps: Tuple[float, ...] = (0.5, 1.0, 2.0)  # in GCell units
    # ---- resilience (docs/RESILIENCE.md) ----
    # Non-finite gradients / arrivals / candidate coordinates either
    # abort the run ("raise", a NumericalError) or skip the poisoned
    # step and shrink theta ("sanitize") so one bad step cannot discard
    # the whole refinement.
    nonfinite_policy: str = "raise"
    # A failing oracle probe is retried with backoff; once retries are
    # exhausted the loop degrades to evaluator-only acceptance
    # (RefinementResult.degraded) instead of crashing Algorithm 1.
    validator_retries: int = 2
    validator_backoff: float = 0.0  # seconds before first retry, doubles
    # ---- MCMM scenario merging (docs/MCMM.md) ----
    # Temperature of the worst-over-scenarios LSE that merges the
    # per-scenario Eq. (6) penalties into one gradient objective.
    mcmm_gamma: float = 10.0
    # Dominance pruning: a scenario whose WNS exceeds the merged WNS by
    # more than ``mcmm_dominance_margin`` (ns) for ``mcmm_prune_after``
    # consecutive accepted iterations is dropped from the merged
    # gradient; every ``mcmm_recheck_every`` gradient evaluations all
    # pruned scenarios are restored for a full re-check.
    mcmm_prune_after: int = 3
    mcmm_recheck_every: int = 10
    mcmm_dominance_margin: float = 0.05


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

    def __init__(
        self,
        model: TimingEvaluator,
        graph: TimingGraph,
        cfg: "RefinementConfig",
        scenarios=None,
        telemetry=None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.telemetry = telemetry
        self.gamma = cfg.penalty.gamma
        self.compilable = callable(getattr(model, "named_parameters", None))
        self.merge = self.pruner = self.scenario_names = None
        self.last_wns_vector: Optional[np.ndarray] = None
        if scenarios is not None and not scenarios.is_single_neutral():
            from repro.mcmm.penalty import ScenarioPenalty
            from repro.mcmm.prune import DominancePruner

            self.scenario_names = list(scenarios.names)
            self.merge = ScenarioPenalty(graph, scenarios, mcmm_gamma=cfg.mcmm_gamma)
            self.pruner = DominancePruner(
                scenarios.names,
                prune_after=cfg.mcmm_prune_after,
                recheck_every=cfg.mcmm_recheck_every,
                margin=cfg.mcmm_dominance_margin,
                telemetry=telemetry,
            )

    def _tel(self):
        return self.telemetry if self.telemetry is not None else get_telemetry()

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
            telemetry=self._tel(),
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
        self._tel().count("evaluator.backward")
        wns, tns = self._hard(arrival)
        return np.asarray(grad, dtype=np.float64), wns, tns, float(penalty)

    def evaluate(self, coords: np.ndarray) -> Tuple[float, float]:
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


def _reset_validator(validator: Optional[Validator]) -> None:
    """Drop any incremental state a stateful validator carries.

    Incremental-STA-backed validators (see ``TSteiner._make_validator``)
    expose a ``reset`` attribute; after a checkpoint restore or a
    validated revert the cached timing state may describe coordinates
    the trajectory has abandoned, so it must be rebuilt from scratch on
    the next probe.  Plain function validators have no such attribute
    and are left alone.
    """
    reset = getattr(validator, "reset", None)
    if callable(reset):
        reset()


_REFINE_CKPT_KIND = "refine-v1"


def refine(
    model: TimingEvaluator,
    graph: TimingGraph,
    initial_coords: np.ndarray,
    config: Optional[RefinementConfig] = None,
    clamp_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    validator: Optional[Validator] = None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    telemetry=None,
    scenarios=None,
) -> RefinementResult:
    """Run Algorithm 1; returns the best coordinates found.

    ``clamp_fn`` clamps candidate coordinates to the grid boundary
    (typically ``forest.clamp_coords``); identity when omitted.
    ``validator`` maps coordinates to real (WNS, TNS) — required for
    ``acceptance="hybrid"``, ignored in ``"evaluator"`` mode.

    MCMM (docs/MCMM.md): ``scenarios`` (a ``repro.mcmm.ScenarioSet``)
    switches acceptance, gradients and reported metrics to the merged
    worst-over-scenarios verdict; per-scenario WNS feeds dominance
    pruning.  ``None`` or a one-element neutral set runs the original
    single-scenario path bitwise-unchanged.  An MCMM validator should
    return merged (WNS, TNS) — see ``TSteiner._make_validator``.

    Resilience (docs/RESILIENCE.md): an expired ``budget`` returns the
    best-so-far result flagged ``timed_out=True``; ``checkpoint_path``
    snapshots the full loop state atomically every ``checkpoint_every``
    iterations, and ``resume=True`` continues from such a snapshot
    with byte-identical results to an uninterrupted run.

    Observability (docs/OBSERVABILITY.md): ``telemetry`` records one
    ``refine_iter`` event per iteration (WNS/TNS, smoothed penalty,
    stepsize, penalty weights, accept/revert, probe and checkpoint
    counts) bracketed by ``refine_start``/``refine_end``; defaults to
    the process-global telemetry (NULL — observation-free).
    """
    from repro.steiner.forest import SteinerForest

    tel = telemetry if telemetry is not None else get_telemetry()
    cfg = config or RefinementConfig()
    policy = validate_policy(cfg.nonfinite_policy)
    coords = np.asarray(initial_coords, dtype=np.float64).reshape(-1, 2).copy()
    if coords.shape[0] != graph.num_steiner:
        raise ValueError(
            f"coordinate count {coords.shape[0]} does not match the graph's "
            f"{graph.num_steiner} Steiner nodes"
        )
    clamp = clamp_fn or (lambda c: c)
    oracle = _Oracle(model, graph, cfg, scenarios=scenarios, telemetry=tel)
    use_validator = cfg.acceptance == "hybrid" and validator is not None
    degraded = False
    skipped_steps = 0
    timed_out = False

    if coords.size == 0:
        wns, tns = oracle.evaluate(coords)
        return RefinementResult(coords, wns, tns, wns, tns, 0, 0.0, 0)

    def call_validator(c: np.ndarray) -> Optional[Tuple[float, float]]:
        """Probe the real flow with retry; ``None`` == degrade, don't crash."""
        nonlocal degraded, use_validator
        tel.count("refine.validator_probes")
        if budget is not None:
            budget.spend_probe()

        def probe(arr: np.ndarray) -> Tuple[float, float]:
            rw, rt = validator(arr)
            if not (np.isfinite(rw) and np.isfinite(rt)):
                raise ValidatorError(f"validator returned non-finite metrics ({rw}, {rt})")
            return float(rw), float(rt)

        try:
            return retry_call(
                probe,
                c,
                attempts=cfg.validator_retries + 1,
                backoff=cfg.validator_backoff,
            )
        except BudgetExceeded:
            raise
        except Exception as exc:
            degraded = True
            use_validator = False
            tel.event("validator_degraded", error=f"{type(exc).__name__}: {exc}")
            return None

    pcfg = cfg.penalty

    ckpt = None
    if resume and checkpoint_path is not None and Path(checkpoint_path).exists():
        ckpt = load_npz(checkpoint_path)
        meta = ckpt.get("meta") or {}
        if meta.get("kind") != _REFINE_CKPT_KIND:
            raise CheckpointError(f"{checkpoint_path} is not a refinement checkpoint")
        if np.asarray(ckpt["coords"]).shape != coords.shape:
            raise CheckpointError(
                f"checkpoint coords shape {np.asarray(ckpt['coords']).shape} does "
                f"not match design shape {coords.shape}"
            )
        # Scenario state must survive resume exactly.
        oracle.load_state(ckpt, meta)
        # Stitch this trace onto the interrupted run's trajectory: the
        # snapshot carries the run-id of the telemetry that wrote it.
        tel.event(
            "checkpoint_resume",
            what="refine",
            parent_run=meta.get("telemetry_run"),
            parent_schema=meta.get("telemetry_schema"),
            iteration=int(ckpt["t"]),
        )

    if ckpt is None:
        # Lines 1-2: initial evaluated metrics.
        init_wns, init_tns = oracle.evaluate(coords)
        best_wns, best_tns = init_wns, init_tns

        # Line 3: adaptive stepsize (Eq. 8-9).
        theta = adaptive_theta(
            coords,
            lambda c: oracle.gradient(clamp(c), pcfg)[0],
            alpha=cfg.alpha,
            fallback=graph.netlist.technology.gcell_size * 0.1,
        )
    else:
        init_wns = float(ckpt["init_wns"])
        init_tns = float(ckpt["init_tns"])
        best_wns = float(ckpt["best_wns"])
        best_tns = float(ckpt["best_tns"])
        theta = float(ckpt["theta0"])

    # Line 5: optimizer.
    if cfg.optimizer == "paper":
        so = PaperSO(theta, cfg.beta1, cfg.beta2, cfg.eps)
    elif cfg.optimizer == "adam":
        so = AccumulatingSO(theta, cfg.beta1, cfg.beta2, cfg.eps)
    else:
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

    move_cap = cfg.move_limit_gcells * graph.netlist.technology.gcell_size
    best_coords = coords.copy()
    history: List[Tuple[float, float]] = []
    accepted = 0
    t = 0
    checkpoint_saves = 0

    # Hybrid-mode real anchors.
    validations = 0
    validated_reverts = 0
    pending_accepts = 0
    real_wns = real_tns = None
    real_coords = coords.copy()
    prop_idx = 0
    schedule: Sequence[Tuple[float, float]] = cfg.proposal_schedule or ((1.0, 1.0),)

    if ckpt is not None:
        coords = np.array(ckpt["coords"], dtype=np.float64, copy=True)
        best_coords = np.array(ckpt["best_coords"], dtype=np.float64, copy=True)
        real_coords = np.array(ckpt["real_coords"], dtype=np.float64, copy=True)
        history = [(float(w), float(n)) for w, n in np.asarray(ckpt["history"]).reshape(-1, 2)]
        t = int(ckpt["t"])
        accepted = int(ckpt["accepted"])
        pending_accepts = int(ckpt["pending_accepts"])
        prop_idx = int(ckpt["prop_idx"])
        validations = int(ckpt["validations"])
        validated_reverts = int(ckpt["validated_reverts"])
        skipped_steps = int(ckpt["skipped_steps"])
        degraded = bool(ckpt["degraded"])
        use_validator = bool(ckpt["validator_on"]) and validator is not None
        if bool(ckpt["has_real"]):
            real_wns = float(ckpt["real_wns"])
            real_tns = float(ckpt["real_tns"])
        pcfg = PenaltyConfig(
            lambda_wns=float(ckpt["lambda_wns"]),
            lambda_tns=float(ckpt["lambda_tns"]),
            gamma=float(ckpt["gamma"]),
        )
        so.theta = float(ckpt["so_theta"])
        if isinstance(so, AccumulatingSO) and "so_m" in ckpt:
            so._m = np.array(ckpt["so_m"], dtype=np.float64, copy=True)
            so._v = np.array(ckpt["so_v"], dtype=np.float64, copy=True)
            so._t = int(ckpt["so_t"])
        # A resumed run may hand us a live oracle/validator from the
        # interrupted attempt whose caches describe coordinates the
        # restored trajectory never visited — drop them.
        oracle.invalidate()
        _reset_validator(validator)
    elif use_validator:
        anchor = call_validator(coords)
        validations += 1
        if anchor is not None:
            real_wns, real_tns = anchor

    if tel.enabled:
        tel.event(
            "refine_start",
            init_wns=init_wns,
            init_tns=init_tns,
            theta0=theta,
            points=int(coords.shape[0]),
            max_iterations=cfg.max_iterations,
            acceptance=cfg.acceptance,
            resumed=ckpt is not None,
        )

    def save_checkpoint() -> None:
        nonlocal checkpoint_saves
        arrays = {
            "coords": coords,
            "best_coords": best_coords,
            "real_coords": real_coords,
            "history": np.asarray(history, dtype=np.float64).reshape(-1, 2),
            "t": t,
            "accepted": accepted,
            "pending_accepts": pending_accepts,
            "prop_idx": prop_idx,
            "validations": validations,
            "validated_reverts": validated_reverts,
            "skipped_steps": skipped_steps,
            "best_wns": best_wns,
            "best_tns": best_tns,
            "init_wns": init_wns,
            "init_tns": init_tns,
            "theta0": theta,
            "so_theta": so.theta,
            "lambda_wns": pcfg.lambda_wns,
            "lambda_tns": pcfg.lambda_tns,
            "gamma": pcfg.gamma,
            "degraded": degraded,
            "validator_on": use_validator,
            "has_real": real_wns is not None,
            "real_wns": float("nan") if real_wns is None else real_wns,
            "real_tns": float("nan") if real_tns is None else real_tns,
        }
        if isinstance(so, AccumulatingSO) and so._m is not None:
            arrays["so_m"] = so._m
            arrays["so_v"] = so._v
            arrays["so_t"] = so._t
        meta = {
            "kind": _REFINE_CKPT_KIND,
            "telemetry_run": tel.run_id,
            "telemetry_schema": SCHEMA_VERSION,
        }
        oracle.save_state(arrays, meta)
        atomic_save_npz(checkpoint_path, arrays, meta=meta)
        checkpoint_saves += 1
        tel.count("refine.checkpoint_saves")

    def validate_candidate() -> None:
        """Probe the real flow; keep or revert to the last real anchor.

        Candidates are validated *post-rounding* so the probe times the
        byte-identical geometry the production flow will route — the
        0.01 um snap can flip GCell assignments, so validating the
        unrounded point would anchor on a different route.

        A probe that keeps failing after retries flips the run into
        degraded evaluator-only mode: the pending candidate stays
        accepted on the evaluator's word, and no further probes run.
        """
        nonlocal real_wns, real_tns, real_coords, coords, validations
        nonlocal validated_reverts, pending_accepts, best_wns, best_tns, best_coords
        nonlocal prop_idx

        validations += 1
        rounded = SteinerForest.round_array(coords)
        probed = call_validator(rounded)
        if probed is None:  # degraded — stop validating, keep refining
            pending_accepts = 0
            return
        rw, rt = probed
        w_w = abs(cfg.penalty.lambda_wns)
        w_t = abs(cfg.penalty.lambda_tns)
        if (w_w * rw + w_t * rt) > (w_w * real_wns + w_t * real_tns):
            real_wns, real_tns = rw, rt
            real_coords = rounded.copy()
        else:
            validated_reverts += 1
            coords = real_coords.copy()
            best_coords = real_coords.copy()
            # The validator's incremental state now describes the
            # rejected candidate; force a clean rebuild at the anchor.
            _reset_validator(validator)
            # Reset the predicted-metric baseline to the anchor, else
            # the inflated rejected prediction blocks all future accepts.
            best_wns, best_tns = oracle.evaluate(coords)
            # Rotate to the next proposal profile: sparser and smaller.
            prop_idx += 1
            so.theta = max(theta * schedule[prop_idx % len(schedule)][1], cfg.min_theta)
        pending_accepts = 0

    while True:
        # Line 16: iteration cap.
        if t >= cfg.max_iterations:
            break
        # Line 19: auto-convergence at ratio mu.
        if _converged(init_wns, best_wns, cfg.converge_ratio) or _converged(
            init_tns, best_tns, cfg.converge_ratio
        ):
            break
        # Cooperative budget check: wind down with the best-so-far.
        if budget is not None and budget.expired():
            timed_out = True
            tel.event("budget_expired", where="refine", iteration=t)
            break

        # Line 7: concurrent update of all Steiner points.
        lam_w, lam_t = pcfg.lambda_wns, pcfg.lambda_tns
        grad, _, _, penalty_value = oracle.gradient(coords, pcfg)
        step_accepted = False
        step_skipped = False
        candidate = None
        if check_finite(grad, "refinement gradient", policy):
            candidate = so.update(coords, grad)
            step = np.clip(candidate - coords, -move_cap, move_cap)
            fraction = schedule[prop_idx % len(schedule)][0] if use_validator else 1.0
            if fraction < 1.0 and coords.shape[0] > 4:
                # Concentrate the move on the most critical points.
                magnitude = np.abs(grad).sum(axis=1)
                k = max(1, int(np.ceil(coords.shape[0] * fraction)))
                threshold = np.partition(magnitude, -k)[-k]
                step = step * (magnitude >= threshold)[:, None]
            candidate = clamp(coords + step)
            if not check_finite(candidate, "candidate coordinates", policy):
                candidate = None

        if candidate is None:
            # Poisoned step under the sanitize policy: skip it, shrink
            # theta so the next proposal differs, keep the run alive.
            skipped_steps += 1
            step_skipped = True
            so.theta = max(so.theta * cfg.backtrack, cfg.min_theta)
            history.append((best_wns, best_tns))
        else:
            # Line 8: evaluate the temporary solution.
            wns, tns = oracle.evaluate(candidate)
            if not check_finite((wns, tns), "evaluated metrics", policy):
                skipped_steps += 1
                step_skipped = True
                so.theta = max(so.theta * cfg.backtrack, cfg.min_theta)
                history.append((best_wns, best_tns))
            else:
                history.append((wns, tns))

                # Lines 9-14: accept if either metric improved, else revert.
                if wns > best_wns or tns > best_tns:
                    best_wns = max(best_wns, wns)
                    best_tns = max(best_tns, tns)
                    coords = candidate
                    best_coords = candidate.copy()
                    accepted += 1
                    step_accepted = True
                    pending_accepts += 1
                    # Under MCMM the accepted candidate's per-scenario
                    # WNS drives dominance pruning of the merged gradient.
                    oracle.on_accept()
                    so.theta = min(so.theta * cfg.expand_on_accept, theta)
                    if use_validator and pending_accepts >= cfg.validate_every:
                        validate_candidate()
                else:
                    # Revert; shrink the stepsize so the next candidate differs.
                    so.theta = max(so.theta * cfg.backtrack, cfg.min_theta)

        t += 1
        # Penalty escalation from iteration 5 (Section IV-A).
        if t >= cfg.escalation_start:
            pcfg = pcfg.escalated(cfg.escalation_rate)

        if checkpoint_path is not None and t % max(1, checkpoint_every) == 0:
            save_checkpoint()

        if tel.enabled:
            it_wns, it_tns = history[-1]
            tel.event(
                "refine_iter",
                i=t - 1,
                wns=it_wns,
                tns=it_tns,
                best_wns=best_wns,
                best_tns=best_tns,
                penalty=penalty_value,
                theta=so.theta,
                lambda_w=lam_w,
                lambda_t=lam_t,
                accepted=step_accepted,
                skipped=step_skipped,
                validations=validations,
                validated_reverts=validated_reverts,
                checkpoint_saves=checkpoint_saves,
            )

    polished = False
    if use_validator:
        if pending_accepts and not timed_out:
            validate_candidate()
        # ---- oracle-polish stage ----
        if use_validator and cfg.polish_probes > 0 and coords.size and not timed_out:
            polished = True
            real_coords, real_wns, real_tns, probes, polish_timed_out = _polish(
                oracle,
                call_validator,
                clamp,
                real_coords,
                real_wns,
                real_tns,
                pcfg,
                cfg,
                graph.netlist.technology.gcell_size,
                budget=budget,
            )
            validations += probes
            timed_out = timed_out or polish_timed_out
    if use_validator or polished:
        # The last validated point — also when the validator went down
        # during polish, which hands back its best validated probe.
        best_coords = real_coords
    elif degraded and cfg.acceptance == "hybrid":
        # Degraded mid-run: the surviving coordinates are the
        # evaluator's accepted trajectory; round them so the
        # hybrid-mode contract (routable snapped geometry) holds.
        best_coords = SteinerForest.round_array(best_coords)

    if tel.enabled:
        tel.event(
            "refine_end",
            init_wns=init_wns,
            init_tns=init_tns,
            best_wns=best_wns,
            best_tns=best_tns,
            iterations=t,
            accepted=accepted,
            validations=validations,
            validated_reverts=validated_reverts,
            skipped_steps=skipped_steps,
            checkpoint_saves=checkpoint_saves,
            timed_out=timed_out,
            degraded=degraded,
            resumed=ckpt is not None,
        )
    return RefinementResult(
        coords=best_coords,
        init_wns=init_wns,
        init_tns=init_tns,
        best_wns=best_wns,
        best_tns=best_tns,
        iterations=t,
        theta=theta,
        accepted=accepted,
        history=history,
        validations=validations,
        validated_reverts=validated_reverts,
        timed_out=timed_out,
        degraded=degraded,
        skipped_steps=skipped_steps,
        resumed=ckpt is not None,
    )


def _converged(init: float, best: float, mu: float) -> bool:
    """Line 19 test: relative improvement exceeded the converge ratio."""
    if abs(init) < 1e-12:
        return False
    return (init - best) / init > mu


def _polish(
    oracle: _Oracle,
    call_validator: Callable[[np.ndarray], Optional[Tuple[float, float]]],
    clamp: Callable[[np.ndarray], np.ndarray],
    anchor: np.ndarray,
    anchor_wns: float,
    anchor_tns: float,
    pcfg: PenaltyConfig,
    cfg: RefinementConfig,
    gcell: float,
    budget: Optional[Budget] = None,
) -> Tuple[np.ndarray, float, float, int, bool]:
    """Per-point oracle-validated descent on the most critical points.

    Cycles through the ``polish_top_k`` Steiner points with the largest
    evaluator-gradient magnitude; each probe moves one point by one of
    ``polish_steps`` GCells along its negative gradient direction and
    keeps the move only if the real (validated) weighted penalty
    improves.  The gradient is re-evaluated after every accepted move so
    the ranking tracks the evolving critical paths.

    ``call_validator`` is the retry/degrade wrapper from :func:`refine`:
    a ``None`` probe means the oracle went down and polishing stops at
    the current best.  An expired ``budget`` likewise stops the stage
    (reported through the returned ``timed_out`` flag).
    """
    from repro.steiner.forest import SteinerForest

    w_w = abs(cfg.penalty.lambda_wns)
    w_t = abs(cfg.penalty.lambda_tns)

    def score(wns: float, tns: float) -> float:
        return w_w * wns + w_t * tns

    best = anchor.copy()
    best_wns, best_tns = anchor_wns, anchor_tns
    probes = 0
    timed_out = False

    grad, _, _, _ = oracle.gradient(best, pcfg)
    order = np.argsort(-np.abs(grad).sum(axis=1))[: cfg.polish_top_k]
    cursor = 0
    step_idx = 0
    while probes < cfg.polish_probes and order.size:
        if budget is not None and budget.expired():
            timed_out = True
            break
        point = int(order[cursor % order.size])
        direction = -grad[point]
        norm = float(np.linalg.norm(direction))
        cursor += 1
        if norm < 1e-15:
            if cursor > order.size:  # gradient exhausted
                break
            continue
        step = cfg.polish_steps[step_idx % len(cfg.polish_steps)] * gcell
        step_idx += 1
        candidate = best.copy()
        candidate[point] = candidate[point] + step * direction / norm
        candidate = SteinerForest.round_array(clamp(candidate))
        probed = call_validator(candidate)
        probes += 1
        if probed is None:  # oracle down — keep the validated best
            break
        rw, rt = probed
        if score(rw, rt) > score(best_wns, best_tns):
            best = candidate
            best_wns, best_tns = rw, rt
            grad, _, _, _ = oracle.gradient(best, pcfg)
            order = np.argsort(-np.abs(grad).sum(axis=1))[: cfg.polish_top_k]
            cursor = 0
    return best, best_wns, best_tns, probes, timed_out
