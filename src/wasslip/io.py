"""Deterministic serialization helpers.

Every report the toolkit emits must be byte-identical across reruns with the
same seed, so floats are always rendered with 17 significant digits (enough to
round-trip an IEEE-754 double exactly) and JSON is produced by a small
in-repo emitter with a fixed layout instead of ``json.dumps``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Any, Iterable, Sequence


class InputFileError(ValueError):
    """A dataset or model file that cannot be read or parsed; the message
    names the file and, where one is at fault, the 1-based line."""

    def __init__(self, path, line: int | None, msg: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {msg}")


class ReportWriteError(RuntimeError):
    """A report that cannot be written; the message names the path and the
    operating system's reason."""


def write_blocks(path, blocks: Iterable[str]) -> None:
    """Write a UTF-8 report as its text blocks in order, one at a time, so
    the whole text is never held at once; a failed write raises
    ReportWriteError."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(blocks)
    except OSError as exc:
        raise ReportWriteError(f"cannot write report: {path} ({exc.strerror or exc})") from exc


def write_text(path, text: str) -> None:
    """Write a UTF-8 report; a failed write raises ReportWriteError."""
    write_blocks(path, [text])


def read_text(path) -> str:
    """A UTF-8 text file with its line ends normalised to LF; unreadable files
    raise InputFileError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(path, None, f"cannot read file ({exc})") from exc


NOT_PLAIN_NUMBER = "a number may hold ASCII characters only and no '_'"


def plain_number_text(text: str) -> bool:
    """True when text holds no character outside the number grammar of
    dataset CSVs and model files that int() and float() would still read: a
    '_' digit separator or a non-ASCII character (such as an Arabic-Indic
    digit).  Readers report text that fails with NOT_PLAIN_NUMBER."""
    return text.isascii() and "_" not in text


def fmt_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(x, ".17g")


def _render(value: Any, indent: int, out: list) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, numbers.Integral):
        out.append(str(int(value)))
    elif isinstance(value, numbers.Real):
        out.append(fmt_float(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(pad + "  " + json.dumps(key) + ": ")
            _render(item, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not len(value):
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _render(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value: Any) -> str:
    out: list = []
    _render(value, 0, out)
    out.append("\n")
    return "".join(out)


def dump_json(value: Any, path) -> None:
    write_text(path, dumps(value))


def format_cell(cell: Any) -> str:
    if isinstance(cell, str):
        if "," in cell or "\n" in cell:
            raise ValueError(f"CSV cell may not contain separators: {cell!r}")
        return cell
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, numbers.Integral):
        return str(int(cell))
    if isinstance(cell, numbers.Real):
        return fmt_float(cell)
    raise TypeError(f"cannot format CSV cell of type {type(cell).__name__}")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    write_text(path, "\n".join(lines) + "\n")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
