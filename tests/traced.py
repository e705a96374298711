"""Peak traced memory of one call, for the memory bounds of the test suite."""

import tracemalloc


def traced_peak(run) -> int:
    """The peak of the memory traced while ``run()`` runs, in bytes; its result is dropped."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
