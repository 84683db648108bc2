"""Test-only oracles: slow reference forms of production kernels."""
