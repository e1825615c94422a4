"""The on-disk format of the pipeline's TSV artifacts.

Corpus and split files, the split manifest, the label inventory, the pair
labels, the baseline model, prediction files and the report tables are
UTF-8 text: ``# key = value`` header lines, then rows of tab-separated
fields.  A ``#`` line is a header when it holds no tab or starts with
``# columns = `` (the inventory and the model list their columns with
tabs), so a row such as ``#nlp<TAB>nlp`` stays a row.  Reading accepts a
leading byte-order mark.  Every file is written through write; flat
tables are read by read, and sentence-block files by corpus._read_blocks.

A sentence-block file (corpus, split, predictions) is in the canonical
block shape when its text is NFC and each block (the lines between blank
lines) is zero or more header lines, ``#`` lines with no tab, then rows of
exactly one tab that neither start with whitespace nor with
``# columns = ``.  The block files the pipeline writes have that shape
unless a sentence id or a field is not NFC or a wordform starts with
whitespace.  A CoNLL-U corpus, which is not an artifact, is canonical when
its text is NFC and each line that is neither blank nor a ``#`` comment
has exactly 10 tab-separated columns, an ID that is a word (decimal
digits), a multiword range or an empty node, and a FORM if it is a word.
corpus._read_canonical reads a canonical file of either kind a piece of
about 64 KiB at a time, in bulk.  If any piece is not canonical, more than
a piece passes without a blank line, or the file is not UTF-8, the whole
file falls back to corpus._read_corpus, the line loop on top of lines,
is_header and header: it reads every file to the same result, and it
names the line of each fault.
"""

from __future__ import annotations

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


def write(path: str | Path, meta: dict, rows) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(text(meta, rows))


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
