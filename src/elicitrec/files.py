"""Reading, dumping and atomically writing files, in plain Python (no numpy)."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable


def read_text(path: str, kind: str) -> str:
    """The text of the `kind` file at `path`."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such {kind} file: {p}")
    try:
        return p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(f"{kind} file {p} is not valid UTF-8") from None


def read_json(path: str, kind: str):
    """The JSON document of the `kind` file at `path`."""
    try:
        return json.loads(read_text(path, kind))
    except json.JSONDecodeError as e:
        raise ValueError(f"{kind} file {path}: not valid JSON: {e}") from None


def dump_json(doc, compact: bool = False) -> str:
    """`doc` as key-sorted JSON text with a final newline: on one line with
    no spaces when `compact`, else indented by two."""
    kwargs = {"separators": (",", ":")} if compact else {"indent": 2}
    return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs) + "\n"


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, a string or strings in turn, to `path` through a
    temporary file and a rename, so a reader never sees a partial file;
    the mode is what a plain open gives."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    # O_EXCL: never an existing file; 0o666: the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
