"""The one writer of output files, and the checkpoint codec.

Every file goes to a temporary file next to its target, is flushed and
fsynced, then renamed over the target with ``os.replace``. A reader, or a
run resumed after a crash, sees the old file or the new one, never a torn
one; a write that fails leaves the old file as it was and no temporary file.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read as the format it claims."""


def write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """A header row, then ``rows``, in the csv module's default dialect,
    which writes a float as its shortest repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def write_json(path, obj) -> None:
    """``obj`` with sorted keys, indented by one space, with a trailing newline."""
    write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def write_checkpoint(path, header: dict, key: str, values: np.ndarray,
                     extra: dict | None = None) -> None:
    """One JSON document, keys in insertion order: format version, header,
    the float vector under ``key`` as decimal text with 17 significant
    digits, then ``extra``, whose ``history`` rows, if any, come last, one
    per line.

    float64 -> %.17g -> float64 is the identity, so loads are value-exact.
    """
    doc = {"format_version": CHECKPOINT_VERSION, **header,
           key: [format(v, ".17g") for v in values], **(extra or {})}
    history = doc.pop("history", None)
    text = json.dumps(doc, indent=1)
    if history is not None:
        rows = ",\n".join("  " + json.dumps(row) for row in history)
        text = f'{text[:-2]},\n "history": [\n{rows}\n ]\n}}'
    write_text(path, text + "\n")


def read_checkpoint(path, header_key: str, parse, key: str):
    """(parsed header, float vector, full document) of a checkpoint written
    by write_checkpoint. ``parse(header)`` returns (object, expected value
    count); the count is checked before the caller reshapes anything."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        obj, size = parse(doc[header_key])
        values = np.array([float(v) for v in doc[key]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    if values.shape != (size,):
        raise CheckpointError(
            f"{path}: {len(values)} values, but its {header_key} needs {size}")
    return obj, values, doc
