"""Access to data files shipped inside the package, and the package's
file reader and writers: :func:`read_text` reads every input file,
:func:`write_text` writes every one-file output and each dish's output
file, and :func:`write_text_atomic` replaces the run report."""

from __future__ import annotations

import contextlib
import io
import os
import secrets
from importlib import resources
from pathlib import Path
from typing import Iterable

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def data_path(*parts: str) -> Path:
    """Filesystem path of a packaged data file or directory."""
    root = resources.files("foonforge") / "data"
    for part in parts:
        root = root / part
    return Path(str(root))


def read_data_text(*parts: str) -> str:
    return read_text(data_path(*parts))


def read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of the file at ``path``, read as text mode reads it.

    The bytes are read in one call and decoded strictly in one go, so a
    byte that is not UTF-8 raises ``UnicodeDecodeError`` at its position
    in the file, as ``open(path, encoding="utf-8").read()`` does, and a
    missing path or a directory raises the ``OSError`` that ``open``
    raises, naming the path. Newlines are read as universal newlines:
    only a text that holds ``"\\r"`` is rewritten, ``"\\r\\n"`` and a
    lone ``"\\r"`` each becoming ``"\\n"``.

    Cost: one unbuffered file object, one read and one decode per file,
    with no buffer or text layer; it shows in ``validate_s``,
    ``convert_s`` and ``retrieve_s`` of the small-file workloads, where
    opening the file costs about as much as parsing it.
    """
    with io.open(path, "rb", buffering=0) as file:
        text = file.readall().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8, in place.

    The text is encoded once and its bytes go straight to the
    descriptor, in a loop that resumes a short write. The file is
    truncated first, and a new one gets mode ``0o666`` less the umask,
    as ``open(path, "w")`` gives it. A missing parent directory is an
    ``OSError``: this creates none.

    Cost: one ``os.open``, one ``os.write`` (more only after a short
    write) and one ``os.close`` per file, with no file object.
    """
    data = text.encode("utf-8")
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_text_atomic(path: Path, pieces: Iterable[str]) -> None:
    """Replace ``path`` with the UTF-8 text that ``pieces`` joins to,
    through a temp file and a rename.

    The pieces are written into the temp file one by one, so the whole
    text is never held as one string or one bytes object, and a caller
    that renders its text in pieces, say one per record, holds only
    those: joining a large report, copying and encoding it for one
    write lifts a ``generate``'s Python heap by more than the report's
    size, while writing its pieces through the text layer costs the
    same CPU as one write of their join. A string is itself an iterable
    of one-character pieces: pass a list.

    The temp file sits beside ``path``, so ``os.replace`` is atomic and a
    reader or a failed write sees the old file or the new one, never a
    part. The temp file is created like any other (the umask applies)
    and removed if the write fails, also part-way through the pieces. A
    missing parent directory is created.
    """
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            for piece in pieces:
                handle.write(piece)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
