"""``python -m repro.native build`` — compile the exact-engine kernels.

Prints the published module's path. On failure it prints the error
(after whatever the compiler printed) and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command line; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.native",
        description="Build the compiled exact-engine kernels.",
    )
    parser.add_argument("command", choices=["build"])
    parser.parse_args(argv)
    from repro.native.build import build

    try:
        path = build()
    except Exception as exc:  # no cffi or setuptools, or a compiler error
        print(f"repro.native: build failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
