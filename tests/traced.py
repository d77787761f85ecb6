"""Peak memory of one call, as the stdlib's tracemalloc sees it; numpy
reports its array buffers to tracemalloc, so the peak counts them too."""

import tracemalloc


def traced_peak(call):
    """(call(), the peak of traced bytes during the call above those traced
    before it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak
