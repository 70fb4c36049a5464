"""Benchmark harness for relaygeom: workloads, output checks and tracing.

Drives the package only through its public functions; see ``README.md``
next to ``run.py`` for the workloads, metrics and how to run them.
"""
