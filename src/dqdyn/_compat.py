"""Optional numba import.

The small quaternion and RK4 helpers are written to be nopython-compilable.
When numba is missing the same code runs as plain Python/numpy, just slower;
results are identical either way. The integrator's step kernels are plain
Python floats and do not use it.
"""

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba

    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap

    NUMBA_AVAILABLE = False
