"""Experiment drivers: one module per paper figure, plus the headline
overhead table.  Each ``run_*`` function returns plain dataclasses that
the benchmarks print via :mod:`~repro.experiments.report`; DESIGN.md maps
every figure to its module and EXPERIMENTS.md records paper-vs-measured.

Import the driver modules themselves (``repro.experiments.figure6``):
this package re-exports nothing, so importing one helper module such as
:mod:`~repro.experiments.common` does not load every figure.
"""
