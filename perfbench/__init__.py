"""Benchmark of the coupleclust library and CLI; run ``python3 perfbench/run.py --help``."""
