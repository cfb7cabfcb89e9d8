"""End-to-end and per-layer benchmark of the DiffServe reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload paper-azure --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the public functions of each ``repro`` layer and prints
the per-layer metrics.  The benchmark never edits ``src/``: every span is
recorded from this package, around calls into the program.
"""
