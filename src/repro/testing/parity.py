"""Bitwise parity checks between the compiled tape and the closure engine.

Refinement and training have one production gradient path: the
evaluator replays its compiled tape (``repro.timing_model.compiled``).
The closure autodiff engine stays as the bitwise reference.  A
:class:`ClosureModel` hands ``refine()`` a :class:`ClosureObjective`
instead of a tape; tests and the perf bench reach the reference by
handing ``refine()`` a :class:`ClosureOnly` proxy of the same model,
then compare the two runs with :func:`assert_same_trajectory`.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.core.penalty import refinement_penalty


class TapeParityError(AssertionError):
    """A tape result differs from the closure reference in some bit."""


def assert_bitwise_equal(name: str, tape_value, closure_value) -> None:
    """Fail loudly unless the two results are bit-for-bit the same."""
    a = np.asarray(tape_value)
    b = np.asarray(closure_value)
    if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
        raise TapeParityError(
            f"tape kernel diverged from closure reference on {name!r}: "
            f"max |delta| = {float(np.max(np.abs(a - b))) if a.shape == b.shape else 'shape mismatch'}"
        )


class ClosureObjective:
    """The refinement objective on the closure engine.

    The same contract as
    :class:`~repro.timing_model.compiled.CompiledObjective`, computed by
    running ``model`` forward, the refinement penalty and
    ``Tensor.backward`` on every query.  Its :meth:`fingerprint` is
    ``None``, so ``refine()`` memoizes nothing and every query reaches
    the model.
    """

    def __init__(self, model, graph, merge=None, active=None) -> None:
        self.model = model
        self.graph = graph
        self.merge = merge
        self.active = active

    def gradient(self, coords, pcfg):
        """(dP/dcoords, arrival, penalty value) at ``coords``."""
        t_coords = Tensor(coords, requires_grad=True)
        arrival = self.model(self.graph, t_coords)["arrival"]
        root = refinement_penalty(arrival, self.graph, pcfg, self.merge, self.active)
        root.backward()
        grad = t_coords.grad if t_coords.grad is not None else np.zeros_like(coords)
        return grad, arrival.data, root.item()

    def evaluate(self, coords):
        return self.model.predict_arrivals(self.graph, coords)

    def fingerprint(self):
        return None


class ClosureModel:
    """Base of evaluators ``refine()`` differentiates on the closure
    engine: subclasses provide ``__call__(graph, coords)`` (a dict with
    an ``"arrival"`` Tensor) and ``predict_arrivals(graph, coords)``."""

    def objective(self, graph, gamma, telemetry=None, merge=None, active=None):
        return ClosureObjective(self, graph, merge, active)


class ClosureOnly(ClosureModel):
    """Runs ``model``'s weights through the closure reference engine."""

    def __init__(self, model) -> None:
        self.model = model

    def __call__(self, graph, coords):
        return self.model(graph, coords)

    def predict_arrivals(self, graph, coords):
        return self.model.predict_arrivals(graph, coords)


def assert_same_trajectory(ref, tape) -> None:
    """Two ``RefinementResult``s agree bit for bit: coordinates, every
    history entry, the accept count and the best WNS/TNS."""
    assert_bitwise_equal("coords", tape.coords, ref.coords)
    assert_bitwise_equal(
        "history",
        np.asarray(tape.history, dtype=np.float64).reshape(-1, 2),
        np.asarray(ref.history, dtype=np.float64).reshape(-1, 2),
    )
    assert_bitwise_equal("accepted", tape.accepted, ref.accepted)
    assert_bitwise_equal("best_wns", tape.best_wns, ref.best_wns)
    assert_bitwise_equal("best_tns", tape.best_tns, ref.best_tns)
