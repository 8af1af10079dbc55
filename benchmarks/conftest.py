"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation) at the harness ``quick`` scale and asserts the paper's
qualitative shape, so ``pytest benchmarks/ --benchmark-only`` doubles
as the reproduction run.  Set ``REPRO_SCALE=full`` to regenerate the
EXPERIMENTS.md numbers (minutes instead of seconds), and
``REPRO_JOBS=N`` to fan independent simulations out over N worker
processes (see ``repro.harness.parallel``).
"""

import os

import pytest


@pytest.fixture(scope="session")
def harness_scale() -> str:
    return os.environ.get("REPRO_SCALE", "quick")


@pytest.fixture(scope="session")
def harness_jobs() -> int:
    """Worker-process count the harness fans out with (REPRO_JOBS)."""
    from repro.harness.parallel import default_jobs

    return default_jobs()


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
