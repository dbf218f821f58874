"""Compile ``kernels.c`` with cffi's API mode and publish the module.

The module is compiled with ``-O2`` (no ``-march``, so it runs on any
host of the same architecture) by the C compiler distutils picks, which
honours ``CC``. It is compiled in a temporary directory and published
into :data:`repro.native.BUILD_DIR` atomically, so processes that build
at the same time each end with a complete, loadable file. Publishing
removes the failure record an earlier build under the same ``CC`` left.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import native
from repro.fileio import publish

__all__ = ["build"]


def build() -> Path:
    """Compile the kernels; returns the published module's path.

    Raises ``ImportError`` without cffi (or setuptools) and cffi's
    ``VerificationError`` when the compiler fails.
    """
    from cffi import FFI

    name = native.module_name()
    ffi = FFI()
    ffi.cdef(native.CDEF)
    ffi.set_source(name, native.SOURCE.read_text(encoding="ascii"),
                   extra_compile_args=["-O2"])
    target = native.module_path(name)
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".build-") as tmp:
        built = Path(ffi.compile(tmpdir=tmp))
        publish(target, built.read_bytes())
    # publish() writes owner-only files; other users of an installed copy
    # must be able to load the module too.
    target.chmod(0o644)
    native.failure_record(name).unlink(missing_ok=True)
    return target
