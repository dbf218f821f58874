"""Compile ``kernels.c`` with cffi's API mode and publish the module.

The module is compiled with :data:`repro.native.COMPILE_ARGS` by the C
compiler distutils picks, which honours ``CC``. It is compiled in a
temporary directory and published into :data:`repro.native.BUILD_DIR`
atomically, so processes that build at the same time each end with a
complete, loadable file. Publishing removes the failure record an
earlier build under the same ``CC`` left, and the modules and failure
records of other builds for the same cffi version and interpreter, or
named before module names carried those: they were built from another
source, declarations or flags, and nothing loads them again. Another
interpreter's or cffi version's builds stay for it.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

from repro import native
from repro.fileio import publish

__all__ = ["build"]

#: A module name at the start of a module's or failure record's file
#: name; names from before the environment hash have none.
_MODULE_NAME = re.compile(r"_repro_kernels_[0-9a-f]{16}(_[0-9a-f]{8})?")


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
                   extra_compile_args=list(native.COMPILE_ARGS))
    target = native.module_path(name)
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".build-") as tmp:
        built = Path(ffi.compile(tmpdir=tmp))
        publish(target, built.read_bytes())
    # publish() writes owner-only files; other users of an installed copy
    # must be able to load the module too.
    target.chmod(0o644)
    native.failure_record(name).unlink(missing_ok=True)
    _prune(target.parent, name)
    return target


def _prune(build_dir: Path, name: str) -> None:
    """Remove the modules and failure records of every other module name
    with *name*'s environment hash, or with none (an older source's).

    On Linux a process that has a removed module mapped keeps running it.
    """
    env = name[name.rindex("_"):]
    for path in build_dir.glob("_repro_kernels_*"):
        match = _MODULE_NAME.match(path.name)
        if match and match.group() != name and match.group(1) in (env, None):
            path.unlink(missing_ok=True)
