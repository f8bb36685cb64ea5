"""Deterministic output writing.

All JSON emitted by the toolkit goes through ``dumps_stable`` so that two runs
over identical inputs produce byte-identical files: keys are sorted and every
float is rounded to 6 significant digits before encoding.  All CSV goes
through ``csv_text``.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def round_floats(obj):
    """Return a copy of a JSON-ish structure with floats at 6 significant digits.

    NaN and infinities become None (JSON null).
    """
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value) for value in obj]
    return obj


def dumps_stable(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2)


def csv_text(rows) -> str:
    """Rows as CSV text with "\\n" line ends and RFC 4180 minimal quoting: a
    field is quoted only when it holds a comma, a quote or a line break."""
    import csv  # only the CSV artifacts need it; it costs start-up time

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@contextmanager
def atomic_writer(path: Path | str):
    """Text handle that lands at ``path`` via temp file + rename, so readers
    and concurrent runs never see partial files."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: Path | str, text: str) -> None:
    with atomic_writer(path) as handle:
        handle.write(text)


def write_json_atomic(path: Path | str, obj) -> None:
    write_text_atomic(path, dumps_stable(obj) + "\n")
