"""Benchmark harness configuration.

Each ``test_bench_*`` module regenerates one table or figure of the paper at a
reduced scale, asserts the paper's qualitative findings (who wins, by roughly
what factor), and reports the end-to-end runtime via pytest-benchmark.  Run
with ``pytest benchmarks/ --benchmark-only``.
"""

import os
import statistics
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tests`` for the shared oracles (``result_oracle``).
for _path in (os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.experiments.harness import ExperimentScale  # noqa: E402


#: Alternating legacy/armed run pairs behind every overhead-ratio gate.
OVERHEAD_PAIRS = 5


def _median_overhead(legacy, armed):
    """Median legacy/armed throughput ratio over alternating run pairs.

    ``legacy`` and ``armed`` each run one cell and return its throughput
    (events fired per wall-clock second).  They run alternately,
    :data:`OVERHEAD_PAIRS` times each; the gate reads the median of the
    per-pair ratios, so one scheduler hiccup on either side cannot fail (or
    pass) it.  Returns ``(median legacy/armed ratio, median legacy rate,
    median armed rate)``.
    """
    legacy_rates, armed_rates = [], []
    for _ in range(OVERHEAD_PAIRS):
        legacy_rates.append(legacy())
        armed_rates.append(armed())
    ratios = [
        legacy_eps / armed_eps if armed_eps else float("inf")
        for legacy_eps, armed_eps in zip(legacy_rates, armed_rates)
    ]
    return (
        statistics.median(ratios),
        statistics.median(legacy_rates),
        statistics.median(armed_rates),
    )


@pytest.fixture(scope="session")
def median_overhead():
    """The overhead-gate helper (:func:`_median_overhead`)."""
    return _median_overhead


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Smallest experiment scale that preserves the paper's qualitative findings.

    This is the scale the CI ``bench-smoke`` job runs the figure suite at
    (with ``--benchmark-disable``); the runner's artifact cache makes repeat
    runs cheap because the shared dataset/discriminator are content-addressed.
    """
    return ExperimentScale(dataset_size=300, trace_duration=180.0, num_workers=16, seed=0)
