"""Access to data files shipped inside the package, and the package's
one atomic file writer."""

from __future__ import annotations

import contextlib
import os
import secrets
from importlib import resources
from pathlib import Path


def data_path(*parts: str) -> Path:
    """Filesystem path of a packaged data file or directory."""
    root = resources.files("foonforge") / "data"
    for part in parts:
        root = root / part
    return Path(str(root))


def read_data_text(*parts: str) -> str:
    return data_path(*parts).read_text(encoding="utf-8")


def write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with UTF-8 ``text`` through a temp file and a rename.

    The temp file sits beside ``path``, so ``os.replace`` is atomic and a
    reader or a failed write sees the old file or the new one, never a
    part. The temp file is created like any other (the umask applies)
    and removed if the write fails. A missing parent directory is
    created.
    """
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
