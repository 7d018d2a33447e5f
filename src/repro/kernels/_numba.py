"""Single import guard for the optional numba dependency.

Numba is the only optional compiled-tier dependency
(``pip install .[compiled]``), and this module is the *one* place that
imports it: every kernel decorates its hot functions with the
:func:`njit` exported here, and every dispatch decision reads
:data:`NUMBA_AVAILABLE`.  When numba is absent the decorator degrades
to a transparent no-op, so the kernels in
:mod:`repro.kernels.waterfill` and :mod:`repro.kernels.driver` remain
plain Python functions -- importable, testable, and runnable
(interpreted) everywhere, while :func:`repro.kernels.decide` keeps
every run on the existing NumPy paths.

Masking numba out (the fallback test-suite does this with a
``sys.modules`` stub) and reloading this module flips the whole tier
back to the pure-Python degradation with no other code changes.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["NUMBA_AVAILABLE", "njit", "numba_version"]

try:  # pragma: no cover - exercised via the no-numba fallback job
    import numba as _numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised when numba is installed
    _numba = None
    NUMBA_AVAILABLE = False


def numba_version() -> str | None:
    """The installed numba version, or ``None`` without numba."""
    if _numba is None:
        return None
    return str(getattr(_numba, "__version__", "unknown"))


def njit(*args: Any, **kwargs: Any) -> Callable:
    """``numba.njit`` (nopython, cached) or a transparent no-op.

    Usable both bare (``@njit``) and parameterized
    (``@njit(cache=True)``), exactly like numba's decorator.  With
    numba installed the wrapped function compiles in nopython mode
    with on-disk caching (``cache=True`` unless overridden), so warm
    processes skip recompilation; without numba the function is
    returned unchanged and runs interpreted.
    """
    if args and callable(args[0]) and len(args) == 1 and not kwargs:
        func = args[0]
        if _numba is None:
            return func
        return _numba.njit(cache=True)(func)

    def _decorate(func: Callable) -> Callable:
        if _numba is None:
            return func
        options = {"cache": True, **kwargs}
        return _numba.njit(*args, **options)(func)

    return _decorate
