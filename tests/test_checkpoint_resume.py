"""Checkpoint -> kill -> resume determinism (docs/RESILIENCE.md).

The contract under test: a run that is killed mid-flight and resumed
from its last atomic snapshot produces *byte-identical* results to the
same run left uninterrupted — coordinates, metrics, loss histories and
model weights all compare exactly, not approximately.  The kill is a
deterministic injected fault (or an expiring virtual-clock budget), so
these tests never depend on real timing.
"""

import numpy as np
import pytest

from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design
from repro.runtime import Budget, CheckpointError, atomic_save_npz, faults
from repro.timing_model.dataset import make_sample
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator
from repro.timing_model.train import TrainerConfig, train_evaluator

from tests.test_failure_injection import _FaultyModel, _QuadraticModel, _toy_validator


@pytest.fixture(scope="module")
def spm_design():
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    return netlist, forest, graph


def _assert_refinement_identical(resumed, full):
    assert resumed.coords.tobytes() == full.coords.tobytes()
    assert resumed.best_wns == full.best_wns
    assert resumed.best_tns == full.best_tns
    assert resumed.init_wns == full.init_wns
    assert resumed.init_tns == full.init_tns
    assert resumed.iterations == full.iterations
    assert resumed.accepted == full.accepted
    assert resumed.history == full.history
    assert resumed.validations == full.validations
    assert resumed.validated_reverts == full.validated_reverts
    assert resumed.theta == full.theta


class TestRefineResume:
    def test_evaluator_mode_bit_identical(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        cfg = RefinementConfig(
            max_iterations=8,
            converge_ratio=1e9,
            acceptance="evaluator",
            polish_probes=0,
        )
        full = refine(_QuadraticModel(), graph, coords0, cfg)
        assert full.iterations == 8 and full.resumed is False

        # Kill: the model dies during iteration 5's gradient (calls 1-2
        # are the adaptive-theta probes, call 3 is iteration 1).
        ckpt = tmp_path / "refine.npz"
        dying = _FaultyModel(
            _QuadraticModel(), faults.FaultSpec(at_call=7, exc=RuntimeError)
        )
        with pytest.raises(RuntimeError):
            refine(dying, graph, coords0, cfg, checkpoint_path=ckpt)
        assert ckpt.exists()

        resumed = refine(
            _QuadraticModel(), graph, coords0, cfg,
            checkpoint_path=ckpt, resume=True,
        )
        assert resumed.resumed is True
        _assert_refinement_identical(resumed, full)

    def test_hybrid_mode_bit_identical(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        cfg = RefinementConfig(
            max_iterations=6,
            converge_ratio=1e9,
            acceptance="hybrid",
            validate_every=2,
            polish_probes=3,
        )
        full = refine(
            _QuadraticModel(), graph, coords0, cfg, validator=_toy_validator
        )

        ckpt = tmp_path / "refine.npz"
        dying = _FaultyModel(
            _QuadraticModel(), faults.FaultSpec(at_call=6, exc=RuntimeError)
        )
        with pytest.raises(RuntimeError):
            refine(
                dying, graph, coords0, cfg,
                validator=_toy_validator, checkpoint_path=ckpt,
            )

        resumed = refine(
            _QuadraticModel(), graph, coords0, cfg,
            validator=_toy_validator, checkpoint_path=ckpt, resume=True,
        )
        assert resumed.resumed is True
        _assert_refinement_identical(resumed, full)

    def test_resume_without_checkpoint_starts_fresh(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        cfg = RefinementConfig(
            max_iterations=3, converge_ratio=1e9,
            acceptance="evaluator", polish_probes=0,
        )
        result = refine(
            _QuadraticModel(), graph, forest.get_steiner_coords(), cfg,
            checkpoint_path=tmp_path / "absent.npz", resume=True,
        )
        assert result.resumed is False
        assert result.iterations == 3

    def test_checkpoint_under_other_config_rejected(self, spm_design, tmp_path):
        """A snapshot of an evaluator-mode run cannot seed a hybrid run:
        resuming it would return unvalidated, unrounded coordinates and
        the other run's iteration count."""
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        ckpt = tmp_path / "refine.npz"
        refine(
            _QuadraticModel(), graph, coords0,
            RefinementConfig(
                max_iterations=8, converge_ratio=1e9,
                acceptance="evaluator", polish_probes=0,
            ),
            checkpoint_path=ckpt,
        )
        hybrid = RefinementConfig(max_iterations=3, converge_ratio=1e9, validate_every=1)
        with pytest.raises(CheckpointError, match="acceptance, max_iterations, polish_probes"):
            refine(
                _QuadraticModel(), graph, coords0, hybrid,
                validator=_toy_validator, checkpoint_path=ckpt, resume=True,
            )

    def test_foreign_checkpoint_rejected(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        ckpt = tmp_path / "wrong.npz"
        atomic_save_npz(ckpt, {"x": 1}, meta={"kind": "trainer-v1"})
        with pytest.raises(CheckpointError):
            refine(
                _QuadraticModel(), graph, forest.get_steiner_coords(),
                RefinementConfig(max_iterations=2),
                checkpoint_path=ckpt, resume=True,
            )


class TestTrainResume:
    def test_bit_identical_after_budget_kill(self, spm_design, tmp_path):
        netlist, forest, _ = spm_design
        sample = make_sample(netlist, forest, None, is_train=True)
        cfg = TrainerConfig(epochs=8, patience=100)

        model_full = TimingEvaluator(EvaluatorConfig(hidden=8, seed=11))
        full = train_evaluator(model_full, [sample], cfg)
        assert len(full.losses) == 8

        # Kill: a ticking virtual clock expires the budget after four
        # epoch-boundary polls.
        ticks = {"t": 0.0}

        def ticking_clock() -> float:
            ticks["t"] += 1.0
            return ticks["t"]

        ckpt = tmp_path / "trainer.npz"
        model_killed = TimingEvaluator(EvaluatorConfig(hidden=8, seed=11))
        interrupted = train_evaluator(
            model_killed, [sample], cfg,
            budget=Budget(wall_seconds=4.5, clock=ticking_clock),
            checkpoint_path=ckpt,
        )
        assert interrupted.timed_out is True
        assert 0 < len(interrupted.losses) < 8
        assert ckpt.exists()

        model_resumed = TimingEvaluator(EvaluatorConfig(hidden=8, seed=11))
        resumed = train_evaluator(
            model_resumed, [sample], cfg, checkpoint_path=ckpt, resume=True
        )
        assert resumed.resumed is True
        assert resumed.losses == full.losses
        assert resumed.best_epoch == full.best_epoch
        assert resumed.final_loss == full.final_loss
        full_state = model_full.state_dict()
        for k, v in model_resumed.state_dict().items():
            assert np.array_equal(v, full_state[k]), k

    def test_resume_without_checkpoint_starts_fresh(self, spm_design, tmp_path):
        netlist, forest, _ = spm_design
        sample = make_sample(netlist, forest, None, is_train=True)
        result = train_evaluator(
            TimingEvaluator(EvaluatorConfig(hidden=8, seed=11)),
            [sample],
            TrainerConfig(epochs=2, patience=100),
            checkpoint_path=tmp_path / "absent.npz",
            resume=True,
        )
        assert result.resumed is False
        assert len(result.losses) == 2

    def test_foreign_checkpoint_rejected(self, spm_design, tmp_path):
        netlist, forest, _ = spm_design
        sample = make_sample(netlist, forest, None, is_train=True)
        ckpt = tmp_path / "wrong.npz"
        atomic_save_npz(ckpt, {"x": 1}, meta={"kind": "refine-v1"})
        with pytest.raises(CheckpointError):
            train_evaluator(
                TimingEvaluator(EvaluatorConfig(hidden=8, seed=11)),
                [sample],
                TrainerConfig(epochs=2),
                checkpoint_path=ckpt,
                resume=True,
            )
