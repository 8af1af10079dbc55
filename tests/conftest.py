"""Shared test fixtures."""

import os

import pytest


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
