"""Experiment pipelines: random qubit ensembles, the kernel classification
task, the sufficient-statistics recovery task, and parameter sweeps."""
