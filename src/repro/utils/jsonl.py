"""The JSONL read contract, stated once.

Every log this repository writes — ``RunLog`` telemetry, span traces,
audit trails, simulator event logs — is one JSON object per line, appended and flushed as the run
goes.  A crash mid-``write`` can therefore damage exactly one place: the
last line.  :func:`read_jsonl` is the only reader of that format; the
loaders (``RunLog.load``, ``SpanTracer.load``, ``AuditTrail.load``,
``load_events_jsonl``) turn its rows into their own record types and nothing else.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple


def read_jsonl(
    path, what: str = "JSONL line", limit: Optional[int] = None
) -> Tuple[List[Tuple[int, Dict[str, Any]]], bool]:
    """Read a JSON-lines file into ``([(lineno, row), ...], truncated)``.

    Blank lines are skipped.  A damaged *trailing* line — what a crash
    mid-write leaves behind — is dropped and reported through
    ``truncated`` instead of making the whole log unreadable.  Anything
    else is an error: a line that is not JSON anywhere before the last,
    bytes that are not UTF-8, or a row that is not a JSON object raises
    :class:`ValueError` whose message starts ``{path}:{lineno}:``
    (``what`` names the line in it, e.g. ``"trace line"``).  ``limit``
    stops after that many rows — enough to tell what kind of log a file
    is from its first row without decoding (or judging) the rest.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    last_content = max((n for n, line in enumerate(lines, 1) if line.strip()), default=0)
    rows: List[Tuple[int, Dict[str, Any]]] = []
    truncated = False
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text: {err}") from err
        except json.JSONDecodeError as err:
            if lineno == last_content:
                truncated = True
                continue
            raise ValueError(f"{path}:{lineno}: malformed {what}: {err}") from err
        if not isinstance(row, dict):
            raise ValueError(
                f"{path}:{lineno}: malformed {what}: expected a JSON object, "
                f"got {type(row).__name__}"
            )
        rows.append((lineno, row))
        if len(rows) == limit:
            break
    return rows, truncated
