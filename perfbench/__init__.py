"""Default-path benchmark for the hypothetical Datalog engine.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and their reasons are listed in ``BENCHMARK.json``.
"""
