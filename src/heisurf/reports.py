"""Deterministic text artifacts: fixed-precision JSON/CSV and atomic writes.

Every number is written with 17 significant digits, enough to round-trip a
double exactly, so re-running a command with the same inputs produces
byte-identical files and reproducibility can be checked by hashing.  Files
are written by one atomic writer, `atomic_write_chunks`: the bytes go to a
temporary name in the target directory, chunk by chunk, and the file is
renamed into place, so readers never observe a half-written artifact.  An
OBJ export streams its chunks through it, so its memory does not grow
with the file; `atomic_write_text` hands it ASCII text or bytes whole.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "fmt17",
    "dump_json",
    "dump_csv",
    "atomic_write_chunks",
    "atomic_write_text",
]


def fmt17(x: float) -> str:
    """17-significant-digit decimal form of a float (round-trip exact)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_number(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _normalize(obj: Any) -> Any:
    """Reduce to plain dict/list/str/float/int/bool/None."""
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _normalize(obj.tolist())
    if isinstance(obj, Mapping):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj: Any, lines: list[str], level: int) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        lines.append("null")
    elif obj is True:
        lines.append("true")
    elif obj is False:
        lines.append("false")
    elif isinstance(obj, str):
        lines.append(json.dumps(obj))
    elif isinstance(obj, int):
        lines.append(str(obj))
    elif isinstance(obj, float):
        lines.append(_json_number(obj))
    elif isinstance(obj, dict):
        if not obj:
            lines.append("{}")
            return
        lines.append("{\n")
        for i, key in enumerate(sorted(obj)):
            lines.append(f"{inner}{json.dumps(key)}: ")
            _emit(obj[key], lines, level + 1)
            lines.append(",\n" if i + 1 < len(obj) else "\n")
        lines.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            lines.append("[]")
            return
        lines.append("[\n")
        for i, item in enumerate(obj):
            lines.append(inner)
            _emit(item, lines, level + 1)
            lines.append(",\n" if i + 1 < len(obj) else "\n")
        lines.append(pad + "]")
    else:  # pragma: no cover - _normalize rejects these first
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj: Any) -> str:
    """Serialize with sorted keys, two-space indent and 17-digit floats.

    The output is parseable by ``json.loads`` (non-finite numbers use the
    ``NaN``/``Infinity`` words that the standard parser accepts).
    """
    lines: list[str] = []
    _emit(_normalize(obj), lines, 0)
    lines.append("\n")
    return "".join(lines)


def _csv_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return fmt17(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def dump_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Comma-separated table with a header row and 17-digit floats."""
    out = [",".join(_csv_cell(h) for h in header)]
    for row in rows:
        out.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(out) + "\n"


def atomic_write_chunks(path: str, chunks: Iterable[bytes]) -> str:
    """Write byte chunks, in order, to path via a temporary file and rename.

    The chunks are taken one at a time while the temporary file is open.
    If taking or writing one fails, the temporary file is removed and an
    existing file at path keeps its old bytes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path: str, data: str | bytes) -> str:
    """Write ASCII text, or bytes as they are, with `atomic_write_chunks`.

    Text is encoded before any directory or file is made.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    return atomic_write_chunks(path, (data,))
