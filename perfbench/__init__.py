"""Benchmark of the blockmae package: workloads, tracing and their checks."""
