"""Shared test fixtures.

The harness store (repro.snapshot's stored results; datasets and warm
payloads live in the process) defaults to ``.repro_cache/`` in the
working directory; the suite points it at a session-scoped temp
directory instead so test runs stay hermetic and leave no files
behind.  Within the session the store still operates normally — tests
exercise storing, reuse and stale rejection.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _session_store_dir(tmp_path_factory):
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("store"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def _session_runs_dir(tmp_path_factory):
    """Point the run ledger (repro.metrics.ledger) at a session temp
    directory so CLI tests never append to the repo's ``.repro_runs/``."""
    previous = os.environ.get("REPRO_RUNS_DIR")
    os.environ["REPRO_RUNS_DIR"] = str(tmp_path_factory.mktemp("runs"))
    yield
    if previous is None:
        os.environ.pop("REPRO_RUNS_DIR", None)
    else:
        os.environ["REPRO_RUNS_DIR"] = previous
