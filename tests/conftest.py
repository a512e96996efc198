"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _peak_bytes(call):
    """Run `call()` under tracemalloc; return its result, the peak bytes allocated while it ran, and the bytes still held."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.fixture
def peak_bytes():
    """The `_peak_bytes` helper: pass it a call made after one warm-up call of the same kind."""
    return _peak_bytes
