import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn`` and returns the
    peak of the memory that ``tracemalloc`` traced during the call: the
    call's own allocations, not its arguments."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
