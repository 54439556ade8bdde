"""Minor page faults taken around a call, for tests of the heap policy
(autodiff._hold_heap): a warm batch that reuses the heap takes next to none,
one whose freed heap went back to the OS faults it in again."""

import ctypes

import pytest


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


needs_mallopt = pytest.mark.skipif(
    not _has_mallopt(), reason="the C library has no mallopt, so the heap policy is not set")


def minor_faults(fn) -> int:
    """Minor page faults this process took while fn() ran."""
    import resource  # Unix only, like mallopt

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
