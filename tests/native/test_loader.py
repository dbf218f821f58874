"""Loading and building the compiled exact-engine kernels.

Importing the package must build and write nothing; the first cache or
signature unit of a process loads the module, building it in a child
process if needed; a failed build leaves the process on the numpy path
with one warning, and a record that spares later processes with the same
``CC`` the build; and builds that race each publish a whole module.
"""

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import native
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from repro.core.signature import SignatureConfig, SignatureUnit

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGE = Path(repro.__file__).resolve().parent


def _needs_a_compiler():
    """Skip where this process could not build the kernels either."""
    if native.load() is None:
        pytest.skip(f"compiled kernels unavailable: {native.describe()}")


def _python(code, *args, env=None):
    """Run *code* in a fresh interpreter that imports this checkout."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-B", "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _tree(root):
    """Every file under *root* with its size and modification time."""
    return {
        str(path): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


def test_importing_the_package_builds_and_writes_nothing():
    before = _tree(PACKAGE)
    done = _python(
        "import sys\n"
        "import repro, repro.cli, repro.perf\n"
        "from repro import native\n"
        "assert native._outcome is None, native.describe()\n"
        "assert '_cffi_backend' not in sys.modules\n"
        "assert 'cffi' not in sys.modules\n"
        "print('clean')\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "clean"
    assert _tree(PACKAGE) == before


def test_a_failed_build_falls_back_to_numpy_with_one_warning(
    tmp_path, monkeypatch, caplog
):
    # No module under the (empty) build directory, and a compiler that
    # always fails: the child build fails and the process runs numpy.
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    monkeypatch.setattr(native, "_outcome", None)
    monkeypatch.setenv("CC", "false")
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        cache = SetAssociativeCache(tiny_cache(sets=4, ways=2), num_cores=1)
        unit = SignatureUnit(SignatureConfig(num_cores=1, num_sets=4, ways=2))
        assert native.load() is None
    assert cache._lru_batch is None and unit._cbf_events is None
    warnings = [r for r in caplog.records if r.name == "repro.native"]
    assert len(warnings) == 1
    assert "build failed" in warnings[0].getMessage()
    assert native.describe().startswith("numpy (repro.native: build failed")
    # No module; only the failure record for this CC.
    record = native.failure_record(native.module_name())
    assert list(tmp_path.iterdir()) == [record]
    # The numpy path still simulates.
    result = cache.access_batch(0, np.array([1, 5, 1]))
    assert (result.hits, result.misses) == (1, 2)


def _count_children(monkeypatch):
    """Count the build children a load spawns from now on."""
    calls = []
    run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return calls


def _load_in_a_new_process(monkeypatch, caplog):
    """Load as a fresh process would; returns its repro.native warnings."""
    monkeypatch.setattr(native, "_outcome", None)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert native.load() is None
    return [r.getMessage() for r in caplog.records if r.name == "repro.native"]


def test_a_recorded_failure_spares_later_processes_the_build(
    tmp_path, monkeypatch, caplog
):
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    monkeypatch.setenv("CC", "false")
    calls = _count_children(monkeypatch)
    [first] = _load_in_a_new_process(monkeypatch, caplog)
    assert len(calls) == 1
    reason = native.describe()[len("numpy ("):-1]
    assert reason.startswith("repro.native: build failed")
    record = native.failure_record(native.module_name())
    assert record.read_text(encoding="utf-8") == reason
    # The next process with the same CC spawns no child and warns once,
    # with the recorded reason and how to retry.
    [second] = _load_in_a_new_process(monkeypatch, caplog)
    assert len(calls) == 1
    assert reason in second and reason in first
    assert "python -m repro.native build` retries" in second
    # Another CC is another key: it builds again, and records its own.
    monkeypatch.setenv("CC", shutil.which("false"))
    _load_in_a_new_process(monkeypatch, caplog)
    assert len(calls) == 2
    assert native.failure_record(native.module_name()) != record
    assert len(list(tmp_path.glob("*.failed"))) == 2


def test_a_child_that_cannot_run_records_nothing(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    monkeypatch.setattr(native.sys, "executable", str(tmp_path / "no-python"))
    [warning] = _load_in_a_new_process(monkeypatch, caplog)
    assert "the build could not start" in warning
    assert list(tmp_path.iterdir()) == []


def test_a_successful_explicit_build_clears_the_record(tmp_path, monkeypatch):
    _needs_a_compiler()
    # A failure recorded under this process's CC (a compiler since fixed).
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    native.failure_record(native.module_name()).write_text("earlier failure")
    # The explicit build compiles whatever is recorded, and clears it.
    done = _python(
        "import sys\n"
        "from pathlib import Path\n"
        "from repro import native\n"
        "native.BUILD_DIR = Path(sys.argv[1])\n"
        "from repro.native.build import build\n"
        "print(build())\n",
        str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.iterdir()] == [Path(done.stdout.strip()).name]


def test_concurrent_builds_each_publish_a_loadable_module(tmp_path):
    _needs_a_compiler()
    build = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro import native\n"
        "native.BUILD_DIR = Path(sys.argv[1])\n"
        "from repro.native.build import build\n"
        "print(build())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    children = [
        subprocess.Popen(
            [sys.executable, "-B", "-c", build, str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=300) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    published = {out.strip() for out, _ in outputs}
    assert len(published) == 1
    # One module, readable by every user, and no temporary file or
    # directory left behind.
    module = Path(published.pop())
    assert [p.name for p in tmp_path.iterdir()] == [module.name]
    assert module.stat().st_mode & 0o777 == 0o644
    done = _python(
        "import sys\n"
        "from pathlib import Path\n"
        "from repro import native\n"
        "native.BUILD_DIR = Path(sys.argv[1])\n"
        "assert native.load() is not None, native.describe()\n"
        "print(native.describe())\n",
        str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"compiled kernel {tmp_path}")


def test_the_first_cache_of_a_fresh_copy_builds_the_module(tmp_path):
    _needs_a_compiler()
    # A copy of the package with no _build/: its first cache runs the
    # build child, which imports the copy, and then loads the result.
    shutil.copytree(
        PACKAGE, tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "_build"),
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-B", "-c",
         "import repro\n"
         "from repro import native\n"
         "from repro.cache.cache import SetAssociativeCache\n"
         "from repro.cache.config import tiny_cache\n"
         "assert native._outcome is None\n"
         "cache = SetAssociativeCache(tiny_cache(), num_cores=1)\n"
         "assert cache._lru_batch is not None, native.describe()\n"
         "print(native.describe())\n"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    build_dir = tmp_path / "repro" / "native" / "_build"
    assert done.stdout.startswith(f"compiled kernel {build_dir}")
    assert [p.suffix for p in build_dir.iterdir()] == [".so"]


def test_the_module_name_changes_with_the_compile_flags(monkeypatch):
    pytest.importorskip("_cffi_backend")
    name = native.module_name()
    assert "-ffp-contract=off" in native.COMPILE_ARGS
    monkeypatch.setattr(native, "COMPILE_ARGS", ("-O2",))
    assert native.module_name() != name


def test_a_build_prunes_superseded_modules_and_records(tmp_path):
    _needs_a_compiler()
    name = native.module_name()
    env = name[name.rindex("_"):]
    suffix = native.module_path(name).name[len(name):]
    cc = native.failure_record(name).name[len(name):]
    stale = [
        f"_repro_kernels_0123456789abcdef{env}{suffix}",  # an older source
        f"_repro_kernels_0123456789abcdef{env}{cc}",  # its failure record
        # Names from before the environment hash, for any interpreter.
        f"_repro_kernels_0123456789abcdef{suffix}",
        f"_repro_kernels_0123456789abcdef{cc}",
        "_repro_kernels_0123456789abcdef.cpython-399-other.so",
    ]
    kept = [
        f"{name}-0000000000000000.failed",  # this source, another CC
        # Another interpreter's or cffi version's module and record.
        "_repro_kernels_0123456789abcdef_fedcba98.cpython-399-other.so",
        f"_repro_kernels_0123456789abcdef_fedcba98{cc}",
        "notes.txt",
    ]
    for file in stale + kept:
        (tmp_path / file).write_text("x")
    done = _python(
        "import sys\n"
        "from pathlib import Path\n"
        "from repro import native\n"
        "native.BUILD_DIR = Path(sys.argv[1])\n"
        "from repro.native.build import build\n"
        "print(build())\n",
        str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    module = Path(done.stdout.strip()).name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + [module])
