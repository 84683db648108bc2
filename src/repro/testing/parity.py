"""Bitwise parity checks between the compiled tape and the closure engine.

Refinement has one production path: the evaluator replays its compiled
tape (``repro.timing_model.compiled``) and falls back to the closure
autodiff engine only when a graph cannot be compiled or the model
exposes no ``named_parameters()`` for the tape to read live.  Tests and
the perf bench reach the closure reference by handing ``refine()`` a
:class:`ClosureOnly` proxy of the same model, then compare the two runs
with :func:`assert_same_trajectory`.
"""

from __future__ import annotations

import numpy as np


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


class ClosureOnly:
    """Evaluator proxy without ``named_parameters()``.

    ``refine()`` cannot bind such a model into a tape, so it runs the
    closure reference engine on the wrapped model's weights.
    """

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
