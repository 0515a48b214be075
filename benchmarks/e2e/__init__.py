"""Whole-path benchmark for ``repro train`` and ``repro trace-sim``.

Seven workloads, each run as fresh child processes in their own
session; end-to-end metrics come from untraced repeats, per-layer
metrics from one traced repeat whose spans are recorded by wrappers this
package installs around the public callables of each layer.  Nothing
under ``src/`` is edited and ``repro.obs`` stays disabled.

Entry points (see ``README.md``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e run [--seed S] [--workload W]...
    python -m benchmarks.e2e compare A.json B.json
"""
