"""Durable file primitives shared by every on-disk store in the package.

* :class:`AppendLog` — an append-only file of newline-framed JSON
  records, kept open between appends;
* :func:`publish` — atomic whole-file replace (write a temporary file
  beside the target, flush, ``fsync``, ``os.replace``): readers see the
  old file or the new one, and a power loss after the rename cannot
  surface an empty committed file;
* :func:`move_aside` — renames a corrupt file to a collision-proof
  ``<name>.corrupt[.N]``, so the evidence survives for post-mortems.

The journal, poison quarantine, event WAL, snapshot store and result
cache keep only their record schema, counters and logging. This module
imports nothing from :mod:`repro` but :mod:`repro.errors`, so the
supervision layer can use it without importing :mod:`repro.jobs`.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, TypeVar

from repro.errors import ConfigurationError

__all__ = ["AppendLog", "check_root", "move_aside", "publish"]

T = TypeVar("T")


def check_root(root: Any, label: str) -> Path:
    """*root* as a :class:`Path`; an existing non-directory is rejected
    now rather than on the first write mid-run."""
    path = Path(root)
    if path.exists() and not path.is_dir():
        raise ConfigurationError(f"{label} {path} exists and is not a directory")
    return path


class AppendLog:
    """One append-only file of newline-framed records at *path*.

    The file (and its parents) is created on the first append; an
    existing directory at *path* is rejected now, named as *label*.
    """

    def __init__(self, path: Any, label: str) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise ConfigurationError(f"{label} {self.path} is a directory")
        self._file: Optional[io.BufferedRandom] = None

    def append(self, line: str, fsync: bool = True) -> None:
        """Append *line* (without its newline) as one full line.

        A torn tail (a writer died mid-append) gets a newline first, so
        the fragment stays one bad line. The bytes go out in one
        ``write``, flushed to the OS before this returns (a ``kill -9``
        never loses them) and, with *fsync*, forced to disk.
        """
        handle = self._open()
        data = line.encode("ascii") + b"\n"
        if self._tail_is_torn(handle.fileno()):
            data = b"\n" + data
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())

    def sync(self) -> None:
        """``fsync`` the file, reopening it if it was closed."""
        os.fsync(self._open().fileno())

    def close(self) -> None:
        """Release the kept handle; the next append reopens the file.
        Also needed after :func:`publish` replaces the file's inode."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def records(self, parse: Callable[[Any], T]) -> Iterator[Optional[T]]:
        """*parse* of each non-blank line's JSON value, in file order.

        A line that is torn, garbled, not ASCII or rejected by *parse*
        (raising ``ValueError``, ``KeyError`` or ``TypeError``) yields
        ``None``; each line is decoded on its own, so one bad byte costs
        only its line. An unreadable file yields one ``None``, a missing
        file nothing.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        except OSError:
            yield None
            return
        for raw in data.split(b"\n"):
            try:
                line = raw.decode("ascii")
            except UnicodeDecodeError:
                yield None
                continue
            if not line.strip():
                continue
            try:
                record: Optional[T] = parse(json.loads(line))
            except (ValueError, KeyError, TypeError):
                record = None
            yield record

    def _open(self) -> io.BufferedRandom:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a+b")
        return self._file

    @staticmethod
    def _tail_is_torn(fd: int) -> bool:
        """True when the file is non-empty and lacks a final newline."""
        size = os.fstat(fd).st_size
        return size > 0 and os.pread(fd, 1, size - 1) != b"\n"


def publish(path: Path, text: str) -> None:
    """Atomically replace *path* with a file holding exactly *text*.

    On any failure the temporary file is removed and the error
    re-raised; *path* then still holds its old contents, or nothing.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("ascii"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass  # already renamed or never created; nothing to clean
        raise


def move_aside(path: Path) -> Optional[Path]:
    """Rename a corrupt *path* to the first free ``<name>.corrupt[.N]``.

    Returns the new path, or ``None`` when the rename failed (the file
    vanished): moving evidence aside is best effort, never an error.
    """
    target = path.with_name(path.name + ".corrupt")
    counter = 0
    while target.exists():
        counter += 1
        target = path.with_name(f"{path.name}.corrupt.{counter}")
    try:
        # The file is already corrupt: losing this rename in a crash
        # costs nothing, so the fsync-then-replace publish (RPR603) is
        # owed only to data still trusted.
        os.replace(path, target)  # repro: noqa[RPR603]
    except OSError:
        return None
    return target
