"""Paths shared by the benchmark scripts, and the import of `capfed` from this checkout."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(Exception):
    """The checkout holds no `src/capfed` to benchmark."""


def import_capfed():
    """Import `capfed` from this checkout's `src/`, never from an installed copy.

    Raises ProgramMissing when the sources are absent, so that the benchmark
    refuses to run instead of measuring some other build of the package.
    """
    if not (SRC / "capfed" / "__init__.py").is_file():
        raise ProgramMissing(f"no capfed sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    capfed = importlib.import_module("capfed")
    if Path(capfed.__file__).resolve().parent != SRC / "capfed":
        raise ProgramMissing(f"capfed imported from {capfed.__file__}, not from {SRC}")
    return capfed
