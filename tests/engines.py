"""The two exact-engine paths a test can construct its objects on.

A :class:`~repro.cache.cache.SetAssociativeCache` or
:class:`~repro.core.signature.SignatureUnit` takes its path when it is
constructed: the compiled kernels of :mod:`repro.native` when
``native.load()`` returns them, else the numpy reference code. Tests pick
the path by patching the loader, through :func:`on_engine`, and run a
check on every path this process has (:func:`available_engines`).
"""

import contextlib
from unittest import mock

from repro import native

#: The path names, in the order tests run them.
ENGINES = ("kernel", "numpy")


def available_engines():
    """The paths this process can run: both, or only numpy where the
    kernel cannot be built (CI builds it in a step of its own, so a
    broken kernel fails there rather than dropping out here)."""
    return ENGINES if native.load() is not None else ("numpy",)


@contextlib.contextmanager
def on_engine(engine):
    """Objects constructed inside the block take *engine*'s path."""
    if engine == "numpy":
        with mock.patch.object(native, "load", return_value=None):
            yield
    else:
        assert native.load() is not None, native.describe()
        yield
