"""Accelerated solvers for the quantum information bottleneck.

The package covers the soft solver with tunable step size, its
deterministic projector limit, closed-form quantum-vs-classical benchmarks,
and the experiment pipelines (random qubit ensembles, kernel
classification, sufficient-statistics recovery), plus a CLI driving all of
it from JSON configs.  The package itself re-exports nothing; use the
submodules (``qib.engine``, ``qib.model``, ...).
"""

__version__ = "0.1.0"
