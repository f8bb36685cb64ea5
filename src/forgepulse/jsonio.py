"""Deterministic output writing.

All JSON emitted by the toolkit goes through ``dumps_stable`` so that two runs
over identical inputs produce byte-identical files: keys are sorted and every
float is rounded to 6 significant digits before encoding.  It writes the
layout ``json.dumps`` gives with sorted keys and a 2-space ``indent``, with
one C-encoder call per innermost container.  All CSV goes through ``csv_text``.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path


def _round(value):
    """A float at 6 significant digits, NaN and infinities as None (JSON
    null); any other value as it is."""
    if isinstance(value, float):
        return float(f"{value:.6g}") if math.isfinite(value) else None
    return value


def _encode(obj, outer: str) -> str:
    """``obj`` as ``json.dumps`` with sorted keys and a 2-space ``indent`` lays
    it out at the nesting depth whose indent is ``outer``, after ``_round``.
    Dict keys are strings.

    A container whose values hold no container is one C-encoder call: the
    item separator carries the newline and indent.  With ``indent`` set,
    ``json`` would run its pure-Python encoder, several generator steps per
    value.
    """
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(_round(obj))
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    inner = outer + "  "
    separator = ",\n" + inner
    types = set(map(type, obj.values() if is_dict else obj))
    if not any(issubclass(t, (dict, list, tuple)) for t in types):
        if any(issubclass(t, float) for t in types):
            obj = {key: _round(value) for key, value in obj.items()} if is_dict else list(map(_round, obj))
        body = json.dumps(obj, sort_keys=True, separators=(separator, ": "))[1:-1]
    elif is_dict:
        body = separator.join(
            f"{encode_basestring_ascii(key)}: {_encode(value, inner)}" for key, value in sorted(obj.items())
        )
    else:
        body = separator.join(_encode(value, inner) for value in obj)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}{body}\n{outer}{closing}"


def dumps_stable(obj) -> str:
    """``obj`` as JSON text with sorted keys, a 2-space indent, ASCII-only
    escapes and every float at 6 significant digits (NaN and infinities as
    null): the text ``json.dumps`` gives with ``sort_keys`` and a 2-space
    ``indent`` after that rounding."""
    return _encode(obj, "")


def csv_text(rows) -> str:
    """Rows as CSV text with "\\n" line ends and RFC 4180 minimal quoting: a
    field is quoted only when it holds a comma, a quote or a line break."""
    import csv  # only the CSV artifacts need it; it costs start-up time

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@contextmanager
def atomic_writer(path: Path | str):
    """Binary handle that lands at ``path`` via temp file + rename, so readers
    and concurrent runs never see partial files.  The file gets the mode
    ``open()`` would give it: 0666 less the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # exclusive: never another's file
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_temp_files(directory: Path, pids: list[int]) -> None:
    """Remove the temp files a killed ``atomic_writer`` in processes ``pids`` left in ``directory``."""
    writers = {str(pid) for pid in pids}
    for tmp in directory.glob(".*.tmp"):
        if tmp.name.rsplit(".", 3)[1] in writers:  # .<name>.<pid>.<hex>.tmp
            tmp.unlink(missing_ok=True)


def write_text_atomic(path: Path | str, text: str) -> None:
    with atomic_writer(path) as handle:
        handle.write(text.encode("utf-8"))


def write_json_atomic(path: Path | str, obj) -> None:
    write_text_atomic(path, dumps_stable(obj) + "\n")
