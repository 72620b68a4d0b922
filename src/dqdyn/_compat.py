"""Backend flag read by the run reports: every kernel is plain CPython."""

NUMBA_AVAILABLE = False
