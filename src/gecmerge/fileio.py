"""File helpers shared by the writers and the JSON loaders."""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager
from typing import Iterator, TextIO


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces `path` only once fully written.

    The text goes to a temporary file next to the (symlink-resolved)
    target, which is renamed over it when the block exits normally and
    removed when it raises, so an interrupted write leaves any earlier
    file intact. A target that exists but is not a regular file, such
    as a pipe or /dev/null, is written directly.
    """
    path = os.path.realpath(path)
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 under the umask, as a plain open() would create the file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_REQUIRED = object()


def json_field(data: dict, key: str, types: type | tuple[type, ...], where: str, default=_REQUIRED):
    """`data[key]`, checked to be of `types`.

    A missing key is an error unless a `default` is given. A bool never
    counts as a number, and a float must be finite.
    """
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{where}: {key!r} has the wrong type ({type(value).__name__})")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: {key!r} is not a finite number")
    return value


def json_object(data, where: str) -> dict:
    """`data` itself, which must be a JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data
