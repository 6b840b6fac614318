"""Atomic file writes, in plain Python (no numpy)."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, a string or strings in turn, to `path` through a
    temporary file and a rename, so a reader never sees a partial file;
    the mode is what a plain open gives."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode a plain open
            # would (reading the umask means setting it)
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
