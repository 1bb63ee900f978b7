"""Deterministic text artifacts: fixed-precision JSON/CSV and atomic writes.

Every number is written with 17 significant digits, enough to round-trip a
double exactly, so re-running a command with the same inputs produces
byte-identical files and reproducibility can be checked by hashing.
`fmt17` defines that format.  The OBJ writer (`meshes`) writes it for all
of a mesh's coordinates at once: its digits are exact, from Dekker's
product, where `fmt17` writes fixed notation, and it hands `fmt17` zero,
the other magnitudes and the exact ties.
`dump_json` walks a payload once: the same walk converts numpy scalars and
arrays, writes the text and reports every NaN or infinity with its key, so
a caller can refuse a payload by exactly the numbers it would write.  Files
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


#: The JSON words, which the standard parser accepts, for the non-finite
#: numbers `fmt17` writes.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _emit(obj: Any, lines: list[str], level: int, key: str,
          non_finite: list) -> None:
    """Append the JSON text of ``obj`` to ``lines``, converting numpy
    scalars and arrays on the way, and append (innermost key, value) of each
    NaN or infinity to ``non_finite``."""
    if obj is None or isinstance(obj, (bool, str)):
        lines.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        lines.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        text = fmt17(obj)
        if text in _JSON_WORDS:
            non_finite.append((key, float(obj)))
        lines.append(_JSON_WORDS.get(text, text))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), lines, level, key, non_finite)
    elif isinstance(obj, (Mapping, list, tuple)):
        if isinstance(obj, Mapping):
            items = {str(k): v for k, v in obj.items()}
            entries = ((json.dumps(k) + ": ", k, items[k])
                       for k in sorted(items))
            opening, closing = "{}"
        else:
            entries = (("", key, item) for item in obj)
            opening, closing = "[]"
        if not obj:
            lines.append(opening + closing)
            return
        separator = opening + "\n"
        for label, inner_key, item in entries:
            lines.append(separator + "  " * (level + 1) + label)
            _emit(item, lines, level + 1, inner_key, non_finite)
            separator = ",\n"
        lines.append("\n" + "  " * level + closing)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj: Any) -> tuple[str, list[tuple[str, float]]]:
    """Serialize with sorted keys, two-space indent and 17-digit floats.

    Returns the text and, in the order written, (innermost key, value) of
    every NaN or infinity in it; a number outside any mapping has the key
    "".  The text is parseable by ``json.loads``.
    """
    lines: list[str] = []
    non_finite: list[tuple[str, float]] = []
    _emit(obj, lines, 0, "", non_finite)
    lines.append("\n")
    return "".join(lines), non_finite


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


def _create_temporary(directory: str) -> tuple[int, str]:
    """(descriptor, path) of a new file ``.tmp-<hex>~`` in directory, open
    for writing.  It is created with mode 0o666, which the umask trims as
    for a plain ``open``; `tempfile.mkstemp` would give every artifact
    0o600.  The umask is applied by the system, not read, so no other
    thread sees it changed."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_chunks(path: str, chunks: Iterable[bytes]) -> str:
    """Write byte chunks, in order, to path via a temporary file and rename.

    The chunks are taken one at a time while the temporary file is open.
    If taking or writing one fails, the temporary file is removed and an
    existing file at path keeps its old bytes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _create_temporary(directory)
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
