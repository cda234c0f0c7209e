"""The one reader for `frl`'s JSON and JSON-lines input files.

A file that cannot be read raises ConfigurationError.  A file that is
not UTF-8 or not JSON, a JSON-lines line that is not an object, and a
document that `parse` rejects with KeyError, TypeError or ValueError
(every data error in `frl.errors` is a ValueError) raise ValidationError
naming the file, and the line of a JSON-lines file.  The command line
exits 2 on both.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigurationError, ValidationError


def _text(path, what: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ConfigurationError(f"cannot read {what} file {path}: {e}") from e
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValidationError(f"{path}: line {line}: {what} file is not UTF-8: {e.reason}") from e


def _parsed(parse, doc, where: str, what: str):
    try:
        return parse(doc)
    except KeyError as e:
        raise ValidationError(f"{where}: {what} lacks {e.args[0]}") from e
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{where}: {e}") from e


def read_json(path, what: str, parse):
    """`parse` of the file's one JSON document, of any type."""
    try:
        doc = json.loads(_text(path, what))
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: {what} file is not valid JSON: {e}") from e
    return _parsed(parse, doc, str(path), f"{what} file")


def read_jsonl(path, what: str, parse) -> list:
    """`parse` of each JSON object in the file, one per non-blank line."""
    out = []
    for i, line in enumerate(_text(path, what).split("\n"), 1):
        if line.strip():
            where = f"{path}: line {i}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{where}: {what} line is not valid JSON: {e}") from e
            if not isinstance(doc, dict):
                raise ValidationError(f"{where}: {what} line is not a JSON object")
            out.append(_parsed(parse, doc, where, f"{what} line"))
    return out
