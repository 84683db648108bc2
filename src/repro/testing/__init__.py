"""Parity oracles: slow reference forms of production kernels
(:mod:`~repro.testing.oracles`) and the tape-vs-closure checks
(:mod:`~repro.testing.parity`), imported by the tests and by the perf
bench (``repro.bench``) only."""
