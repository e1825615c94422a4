"""The on-disk format of the pipeline's TSV artifacts.

Corpus and split files, the split manifest, the label inventory, the pair
labels, the baseline model, prediction files and the report tables are
UTF-8 text: ``# key = value`` header lines, then rows of tab-separated
fields.  A ``#`` line is a header when it holds no tab or starts with
``# columns = `` (the inventory and the model list their columns with
tabs), so a row such as ``#nlp<TAB>nlp`` stays a row.  Reading accepts a
leading byte-order mark.  Every file a stage writes but the response
cache goes through publish, whole or not at all: the artifacts through
write, the report tables, report.txt and the diagnostics JSON as text.
Flat tables are read by read.

A sentence-block file (corpus, split, predictions) is read by
corpus._read_blocks, once, in pieces of about 64 KiB: each block in the
canonical shape (see corpus._CANONICAL_BLOCK), which the pipeline writes
unless a sentence id or a field is not NFC or a wordform starts with
whitespace, in bulk, and any other block line by line on top of is_header
and header, naming the line of each fault.
"""

from __future__ import annotations

import os
from itertools import islice
from pathlib import Path

from .errors import FileFormatError


def is_header(line: str) -> bool:
    return line.startswith("#") and ("\t" not in line or line.startswith("# columns = "))


def header(line: str) -> tuple[str, str] | None:
    """(key, value) of a ``# key = value`` line; None for a bare comment."""
    key, eq, value = line[1:].partition("=")
    return (key.strip(), value.strip()) if eq else None


def lines(path):
    """(1-based number, text without its line break) of each line of path;
    a FileFormatError names the first line that is not UTF-8."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                yield line_no, line.rstrip("\n")
        except UnicodeDecodeError as exc:  # bytes.splitlines splits where text mode does
            rows = enumerate(Path(path).read_bytes().splitlines(), start=1)
            bad = next((n for n, b in rows if b.decode("utf-8", "replace").encode() != b), None)
            raise FileFormatError(path, bad, f"not UTF-8 text: {exc.reason}") from exc


def natural(field: str, name: str) -> int:
    """field as a non-negative integer in ASCII digits; ValueError otherwise."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"{name} {field!r} is not a non-negative integer")
    return int(field)


def text(meta: dict, rows):
    """An artifact's text in pieces: a ``# key = value`` line per meta item,
    then a line per row of tab-joined str fields (a block file's ``# sent_id``
    line is a one-field row, its blank line a row of no fields)."""
    yield "".join(f"# {key} = {value}\n" for key, value in meta.items())
    lines = map("\t".join, rows)
    while chunk := list(islice(lines, 4096)):  # a piece per 4096 rows bounds memory
        yield "\n".join(chunk) + "\n"


def publish(path: str | Path, chunks) -> None:
    """Write the str chunks to a temporary file beside path, then move it
    onto path; if anything raises, the temporary file goes and an old file
    at path stays whole.  There is no fsync: this guards against a failed
    or killed process, not against a power cut."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write(path: str | Path, meta: dict, rows) -> None:
    """Publish the artifact's text (see text) at path."""
    publish(path, text(meta, rows))


def read(path: str | Path, columns: tuple[str, ...], error, decode, headers=None):
    """(meta, rows) of a flat table: each header's value by key, passed
    through headers[key] where given, and decode(fields) of each row, in
    file order; empty lines are skipped.  A row without one field per
    column, or a ValueError from decode or a header function, is
    error(path, line number, message)."""
    meta, rows = {}, []
    for line_no, line in lines(path):
        try:
            if is_header(line):
                key, value = header(line) or (None, None)
                if key is not None:
                    meta[key] = headers[key](value) if key in (headers or ()) else value
            elif line:
                fields = line.split("\t")
                if len(fields) != len(columns):
                    raise ValueError(
                        f"expected the fields {', '.join(columns)}; found {len(fields)} fields"
                    )
                rows.append(decode(fields))
        except ValueError as exc:
            raise error(path, line_no, str(exc)) from exc
    return meta, rows
