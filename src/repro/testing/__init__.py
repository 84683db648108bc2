"""Parity oracles: slow reference forms of production kernels, imported
by the tests and by the perf bench (``repro.bench``) only."""
