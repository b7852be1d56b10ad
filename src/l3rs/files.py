"""The one writer of output files.

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
    """A header row, then ``rows``, in the csv module's default dialect."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def write_json(path, obj, sort_keys: bool = True, rows_key: str | None = None) -> None:
    """``obj`` indented by one space, with a trailing newline. A list of
    rows under ``rows_key`` comes last, one row per line, and the other keys
    keep the layout they have without it."""
    if rows_key is None or rows_key not in obj:
        text = json.dumps(obj, indent=1, sort_keys=sort_keys)
    else:
        head = json.dumps({k: v for k, v in obj.items() if k != rows_key}, indent=1,
                          sort_keys=sort_keys)
        rows = ",\n".join("  " + json.dumps(row) for row in obj[rows_key])
        text = f"{head[:-2]},\n {json.dumps(rows_key)}: [\n{rows}\n ]\n}}"
    write_text(path, text + "\n")
