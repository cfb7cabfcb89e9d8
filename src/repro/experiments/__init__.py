"""Experiment runners: one module per paper figure/table.

Figure modules expose a ``run_*`` function and a ``main()`` that prints the
table; the comparative studies declare a ``STUDY`` run by
:mod:`repro.experiments.study`.  The benchmarks under ``benchmarks/`` run
both at reduced problem sizes; the examples run them at full scale.
"""

from repro.experiments.harness import (
    ExperimentScale,
    SystemComparison,
    build_comparison_systems,
    format_table,
    run_comparison,
)

__all__ = [
    "ExperimentScale",
    "SystemComparison",
    "build_comparison_systems",
    "run_comparison",
    "format_table",
]
