"""Make the src layout importable when the package is not installed; shared fixtures."""

import os
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from phaselab.grids import _pool  # noqa: E402  (after the path set-up)


def _rebuild_pool():
    """Shut the worker pool down; the next use builds it for the CPUs usable then."""
    if _pool.cache_info().currsize:
        _pool().shutdown()
    _pool.cache_clear()


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(cpus)`` makes ``cpus`` this process's affinity mask and rebuilds the
    worker pool, which is sized once, at first use; the test's pool is shut down after it."""
    def use(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        _rebuild_pool()
    yield use
    _rebuild_pool()
