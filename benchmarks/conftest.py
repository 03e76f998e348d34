"""Benchmark harness configuration.

Every benchmark regenerates one of the experiments E1..E10
(:mod:`repro.analysis.experiments`): it
times the underlying solver(s) with pytest-benchmark, prints the experiment
table, and asserts the qualitative "shape" claims of the paper (who wins, what
stays bounded) rather than absolute numbers.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""
