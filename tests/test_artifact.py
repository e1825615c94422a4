"""The TSV artifact format: one reader and one writer for every table, and
one sentence-block loop for corpus and prediction files.

Each typed reader is checked against its earlier stand-alone version in
oracles.py on generated files: the same result, or the same exception
class at the same line.  The inputs on which the shared rules read a file
differently on purpose are kept out of those generators and tested one by
one in test_intended_change:

- a leading byte-order mark is accepted by every reader (only the corpus
  reader accepted it before);
- a ``# columns = `` line is a header even when it holds a tab (it was a
  row in corpus, prediction and pair-label files);
- only the exact key ``sent_id`` names a corpus sentence (any key starting
  with it did);
- in a prediction file, a ``# sent_id`` header followed by a blank line
  names the rows after the blank, as in a corpus file (it made an empty
  named block plus an anonymous one, which scoring refused as mixed);
- in the inventory and the model, a ``#`` line with a tab other than
  ``# columns = `` is a row, so it is refused rather than skipped;
- the model's ``max_suffix_len`` header is read by the ``# key = value``
  rule, whatever its spacing;
- in runs.tsv and mcnemar.tsv, empty lines are skipped, headers may follow
  the column line, a bare ``#`` comment adds no metadata key, a table with
  no column line is refused naming the file rather than a line, and only
  ``\\n``, ``\\r`` and ``\\r\\n`` end a line (not every str.splitlines
  boundary);
- the inventory refuses a row whose id is not its position, whose script
  repeats, or which breaks the frequency order (it renumbered them), and a
  frequency that is not a positive integer (it read -3 back).
"""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemmabench import artifact
from lemmabench.align import PredictionBlock, read_predictions
from lemmabench.baseline import read_model
from lemmabench.corpus import ingest_tsv
from lemmabench.editscript import (
    PRESERVE,
    EditScript,
    LabelInventory,
    read_inventory,
    read_pair_labels,
)
from lemmabench.errors import (
    FileFormatError,
    InventoryFormatError,
    LemmabenchError,
    ModelFormatError,
)
from lemmabench.evaluation import read_counts

from oracles import (
    oracle_ingest_tsv,
    oracle_read_counts,
    oracle_read_inventory,
    oracle_read_model,
    oracle_read_pair_labels,
    oracle_read_predictions,
    token_sentences,
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact")


def _file(directory, lines, crlf=False, final_newline=True, bom=False):
    sep = "\r\n" if crlf else "\n"
    text = ("\ufeff" if bom else "") + sep.join(lines) + (sep if final_newline and lines else "")
    path = directory / "artifact.tsv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(read, path):
    """read(path)'s result, or the class of the error it raised and the line
    the error names (None for the file as a whole)."""
    try:
        return read(path)
    except LemmabenchError as exc:
        named = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
        return type(exc), int(named[1]) if named else None


def _agree(new, old, path):
    assert _outcome(new, path) == _outcome(old, path)


_layout = dict(crlf=st.booleans(), final_newline=st.booleans())
_NOISE = ["", "#", "# a comment", "# k = v", "#k=v2", "# k = a = b"]
_WORDS = ["Perros", "perro", "#nlp", "#", "e\u0301", "a b", "x\x85y", "Ça"]


def _with_noise(draw, rows, noise, bad=()):
    """rows with noise lines drawn in anywhere, and maybe one row swapped
    for a malformed one, plus trailing empty lines."""
    lines = list(rows)
    for line in draw(st.lists(st.sampled_from(noise), max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    if bad and lines and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(bad))
    return lines + [""] * draw(st.integers(0, 2))


# --- sentence-block files ---------------------------------------------------------


def _block_lines():
    row = st.builds(
        "{}\t{}".format, st.sampled_from(_WORDS + [""]), st.sampled_from(_WORDS + [""])
    )
    sent_id = st.builds(
        str.format,
        st.sampled_from(["# sent_id = {}", "#sent_id={}", "# sent_id =   {}  "]),
        st.sampled_from(["s-0", "s-1", ""]),
    )
    other = st.sampled_from(
        _NOISE + ["  ", "\t", "# format = lemmabench-predictions/1", "#\t#", "a\tb\tc", "lone"]
    )
    return st.lists(st.one_of(row, row, sent_id, other), max_size=25)


def _names_rows_across_a_blank(lines):
    """A sent_id header, then a blank line, then a row before any other
    sent_id: the one layout the prediction reader now reads as a corpus
    reader does."""
    pending = crossed = False
    for line in lines:
        if not line.strip():
            crossed = pending
        elif line.startswith("#") and "\t" not in line:
            if (artifact.header(line) or ("",))[0] == "sent_id":
                pending, crossed = True, False
        elif pending and crossed:
            return True
        else:
            pending = False
    return False


@given(lines=_block_lines(), **_layout)
@settings(max_examples=400, deadline=None)
def test_ingest_tsv_matches_the_old_corpus_loop(scratch, lines, crlf, final_newline):
    path = _file(scratch, lines, crlf, final_newline)
    _agree(
        lambda p: token_sentences(ingest_tsv(p, "c")), lambda p: oracle_ingest_tsv(p, "c"), path
    )


@given(lines=_block_lines(), **_layout)
@settings(max_examples=400, deadline=None)
def test_read_predictions_matches_the_old_reader(scratch, lines, crlf, final_newline):
    assume(not _names_rows_across_a_blank(lines))
    _agree(read_predictions, oracle_read_predictions, _file(scratch, lines, crlf, final_newline))


# --- flat tables ----------------------------------------------------------------------

_SCRIPTS = [EditScript(PRESERVE, 0, "", k, "ar" * k) for k in range(6)]


@st.composite
def inventory_files(draw):
    frequencies = draw(st.lists(st.integers(1, 9), max_size=len(_SCRIPTS)))
    inventory = LabelInventory(dict(zip(_SCRIPTS, frequencies)))
    rows = [f"{i}\t{script.encode()}\t{f}" for i, script, f in inventory.items()]
    noise = _NOISE + ["# format = lemmabench-inventory/1", "# columns = id\tscript\tfrequency"]
    bad = ["bogus", "  ", "\t\t", "0\tnot json\t3", "0\t5\t3", '0\t["preserve",0]\t2',
           f"0\t{_SCRIPTS[0].encode()}\tx", f"0\t{_SCRIPTS[0].encode()}"]
    return _with_noise(draw, rows, noise, bad)


@given(lines=inventory_files(), **_layout)
@settings(max_examples=300, deadline=None)
def test_read_inventory_matches_the_old_reader(scratch, lines, crlf, final_newline):
    _agree(
        lambda p: read_inventory(p).items(),
        lambda p: oracle_read_inventory(p).items(),
        _file(scratch, lines, crlf, final_newline),
    )


@st.composite
def pair_label_files(draw):
    triples = draw(st.lists(
        st.tuples(st.sampled_from(_WORDS + [""]), st.integers(0, 3), st.integers(1, 5)),
        max_size=8,
    ))
    frequencies = {}
    for _, k, count in triples:
        frequencies[_SCRIPTS[k]] = frequencies.get(_SCRIPTS[k], 0) + count
    if draw(st.booleans()):  # a label the rows do not cover: the file is refused whole
        frequencies[_SCRIPTS[5]] = 1
    inventory = LabelInventory(frequencies)
    rows = [f"{w}\t{inventory.id_of(_SCRIPTS[k])}\t{count}" for w, k, count in triples]
    noise = _NOISE + ["# format = lemmabench-pair-labels/1",
                      "# columns = wordform, label id, token count"]
    bad = ["perros\t0", "perros", "perros\t9\t1", "perros\t0\t0", "perros\t0\t1.5",
           "perros\t0\t", "perros\t0\t1\tNOUN", "perros\t-1\t1"]
    return inventory, _with_noise(draw, rows, noise, bad)


@given(case=pair_label_files(), **_layout)
@settings(max_examples=300, deadline=None)
def test_read_pair_labels_matches_the_old_reader(scratch, case, crlf, final_newline):
    inventory, lines = case
    _agree(
        lambda p: read_pair_labels(p, inventory),
        lambda p: oracle_read_pair_labels(p, inventory),
        _file(scratch, lines, crlf, final_newline),
    )


@st.composite
def model_files(draw):
    rows = draw(st.lists(st.builds(
        "{}\t{}\t{}".format,
        st.sampled_from(["form", "suffix"]),
        st.sampled_from(_WORDS + ["", "as"]),
        st.sampled_from([s.encode() for s in _SCRIPTS]),
    ), max_size=10))
    noise = _NOISE + ["# format = lemmabench-baseline/1", "# columns = table\tkey\tscript",
                      "# max_suffix_len = 3", "# max_suffix_len = 12", "# max_suffix_len = five",
                      "# max_suffix_len = -1", "# max_suffix_len = "]
    bad = ["form\tcasas", "frm\tcasas\t[]", "suffix\tas\t7", 'suffix\tas\t["preserve",0,',
           f"form\tx\t{_SCRIPTS[0].encode()}\textra", "  "]
    return _with_noise(draw, rows, noise, bad)


def _tables(model):
    return model.form_table, model.suffix_table, model.max_suffix_len


@given(lines=model_files(), **_layout)
@settings(max_examples=300, deadline=None)
def test_read_model_matches_the_old_reader(scratch, lines, crlf, final_newline):
    _agree(
        lambda p: _tables(read_model(p)),
        lambda p: _tables(oracle_read_model(p)),
        _file(scratch, lines, crlf, final_newline),
    )


_COLUMNS = ("system", "corpus", "run", "n1", "n2")


@st.composite
def count_tables(draw):
    headers = draw(st.lists(st.sampled_from(
        ["# config_hash = 0123456789ab", "# experiment = es replay", "# k = a = b"]
    ), max_size=3))
    column_line = draw(st.sampled_from(
        ["\t".join(_COLUMNS), "\t".join(_COLUMNS), "system\tcorpus\trun\tn1\tm2", None]
    ))
    rows = draw(st.lists(st.builds(
        lambda key, counts: "\t".join((*key, *counts)),
        st.sampled_from([("a", "c", "0"), ("a", "c", "1"), ("b", "#c", "0")]),
        st.lists(st.sampled_from(["0", "7", "12", "-1", "x", ""]), min_size=1, max_size=3),
    ), max_size=6))
    body = ([column_line] if column_line is not None else []) + rows
    assume(body)
    return headers + body


@given(lines=count_tables(), width=st.sampled_from([None, 1]), crlf=st.booleans(),
       final_newline=st.booleans())
@settings(max_examples=300, deadline=None)
def test_read_counts_matches_the_old_reader(scratch, lines, width, crlf, final_newline):
    _agree(
        lambda p: read_counts(p, _COLUMNS, width),
        lambda p: oracle_read_counts(p, "\t".join(_COLUMNS), width),
        _file(scratch, lines, crlf, final_newline),
    )


# --- inputs read differently on purpose -------------------------------------------------

_INVENTORY = ["# format = lemmabench-inventory/1", "# columns = id\tscript\tfrequency",
              f"0\t{_SCRIPTS[0].encode()}\t5", f"1\t{_SCRIPTS[1].encode()}\t2"]
_MODEL = ["# format = lemmabench-baseline/1", "# max_suffix_len = 3",
          "# columns = table\tkey\tscript", f"form\tcasas\t{_SCRIPTS[1].encode()}"]
_TABLE = ["# config_hash = 0123456789ab", "\t".join(_COLUMNS), "a\tc\t0\t1\t2"]
_READERS = {
    "corpus": lambda p: ingest_tsv(p, "c"),
    "predictions": read_predictions,
    "inventory": lambda p: read_inventory(p).items(),
    "pairs": lambda p: read_pair_labels(p, LabelInventory({_SCRIPTS[0]: 3})),
    "model": lambda p: _tables(read_model(p)),
    "counts": lambda p: read_counts(p, _COLUMNS),
}
_PAIRS = ["# format = lemmabench-pair-labels/1", "perro\t0\t3"]


@pytest.mark.parametrize("reader, lines", [
    ("corpus", ["# sent_id = s-0", "Perros\tperro"]),
    ("predictions", ["# format = lemmabench-predictions/1", "Perros\tperro"]),
    ("predictions", ["Perros\tperro", "", "ladran\tladrar"]),
    ("inventory", _INVENTORY),
    ("pairs", _PAIRS),
    ("model", _MODEL),
    ("counts", _TABLE),
])
def test_every_reader_accepts_a_byte_order_mark(scratch, reader, lines):
    read = _READERS[reader]
    plain = read(_file(scratch, lines))
    assert read(_file(scratch, lines, bom=True)) == plain


@pytest.mark.parametrize("reader", list(_READERS))
def test_every_reader_names_the_line_that_is_not_utf8(scratch, reader):
    head = "# k = v\r\n# k = v\r# k = v\n" * 1000  # 3000 lines, past the first decoded piece
    path = scratch / "latin1.tsv"
    path.write_bytes(head.encode() + "caf\xe9\tcaf\xe9\n".encode("latin-1") + b"a\tb\n")
    with pytest.raises(FileFormatError, match=re.escape(f"{path}:3001: not UTF-8 text")):
        _READERS[reader](path)


def _ok(value):
    return lambda new, old: new == value and old != value


def _refused(cls, line):
    return lambda new, old: new == (cls, line) and old != new


@pytest.mark.parametrize("reader, lines, check", [
    # a "# columns = " line is a header even when it holds a tab
    ("corpus", ["# columns = wordform\tlemma", "a\tb"],
     lambda new, old: new.sentences[0].wordforms == ("a",) and len(old.sentences[0]) == 2),
    ("predictions", ["# columns = wordform\tlemma", "a\tb"],
     _ok(({"columns": "wordform\tlemma"}, [PredictionBlock(None, (("a", "b"),))]))),
    ("pairs", [*_PAIRS, "# columns = wordform\tlabel id\ttoken count"],
     lambda new, old: len(new) == 1 and old == (InventoryFormatError, 3)),
    # only the key sent_id names a sentence
    ("corpus", ["# sent_id_x = 3", "a\tb"],
     lambda new, old: new.sentences[0].id == "c-0000" and old.sentences[0].id == "3"),
    # a sent_id names the rows after a blank line, in prediction files too
    ("predictions", ["# sent_id = s-0", "", "a\tb"],
     _ok(({}, [PredictionBlock("s-0", (("a", "b"),))]))),
    # a "#" line with a tab is a row of the inventory and the model
    ("inventory", [*_INVENTORY, "#x\ty\tz"], _refused(InventoryFormatError, 5)),
    ("model", [*_MODEL, "#x\ty"], _refused(ModelFormatError, 5)),
    # max_suffix_len is a "# key = value" header like any other
    ("model", [*_MODEL, "#max_suffix_len=7"], lambda new, old: new[2] == 7 and old[2] == 3),
    ("model", [*_MODEL, "# max_suffix_len = 5 6"],
     lambda new, old: new == (ModelFormatError, 5) and old[2] == 6),
    # report tables: empty lines, late headers, no column line, line breaks
    ("counts", [*_TABLE, "", "b\tc\t0\t3\t4", ""],
     lambda new, old: len(new[1]) == 2 and old == (FileFormatError, 4)),
    ("counts", ["#", "# a note", *_TABLE],
     lambda new, old: list(new[0]) == ["config_hash"] and list(old[0])[:2] == ["", "a note"]),
    ("counts", [*_TABLE, "# late = header"],
     lambda new, old: new[0]["late"] == "header" and old == (FileFormatError, 4)),
    ("counts", ["# config_hash = 0123456789ab"],
     lambda new, old: new == (FileFormatError, None) and old == (FileFormatError, 2)),
    ("counts", [*_TABLE, "a\u2028b\tc\t0\t1\t2"],
     lambda new, old: ("a\u2028b", "c", "0") in new[1] and old == (FileFormatError, 4)),
    # the inventory's ids are its row positions, in frequency order
    ("inventory", [*_INVENTORY[:3], f"2\t{_SCRIPTS[1].encode()}\t2"],
     _refused(InventoryFormatError, 4)),
    ("inventory", [*_INVENTORY, f"2\t{_SCRIPTS[0].encode()}\t1"],
     _refused(InventoryFormatError, 5)),
    ("inventory", [*_INVENTORY[:3], f"1\t{_SCRIPTS[1].encode()}\t9"],
     _refused(InventoryFormatError, 4)),
    # a frequency is a positive integer
    ("inventory", [*_INVENTORY, f"2\t{_SCRIPTS[2].encode()}\t-3"],
     _refused(InventoryFormatError, 5)),
    ("inventory", [*_INVENTORY, f"2\t{_SCRIPTS[2].encode()}\t0"],
     _refused(InventoryFormatError, 5)),
])
def test_intended_change(scratch, reader, lines, check):
    path = _file(scratch, lines)
    old = {
        "corpus": lambda p: oracle_ingest_tsv(p, "c"),
        "predictions": oracle_read_predictions,
        "inventory": lambda p: oracle_read_inventory(p).items(),
        "pairs": lambda p: oracle_read_pair_labels(p, LabelInventory({_SCRIPTS[0]: 3})),
        "model": lambda p: _tables(oracle_read_model(p)),
        "counts": lambda p: oracle_read_counts(p, "\t".join(_COLUMNS)),
    }[reader]
    assert check(_outcome(_READERS[reader], path), _outcome(old, path))


# --- the writer -------------------------------------------------------------------------


def test_write_renders_headers_then_tab_joined_rows(scratch):
    path = scratch / "out" / "table.tsv"
    rows = [("#nlp", "1"), (), ("# sent_id = s",)]
    artifact.write(path, {"format": "x/1", "columns": "a\tb"}, rows)
    assert path.read_bytes() == b"# format = x/1\n# columns = a\tb\n#nlp\t1\n\n# sent_id = s\n"
    assert artifact.read(path, ("a", "b"), FileFormatError, list) == (
        {"format": "x/1", "columns": "a\tb", "sent_id": "s"}, [["#nlp", "1"]]
    )


def test_read_names_the_line_of_a_row_with_the_wrong_field_count(scratch):
    path = _file(scratch, ["# k = v", "a\tb", "", "a\tb\tc"])
    expected = re.escape(f"{path}:4: expected the fields a, b; found 3 fields")
    with pytest.raises(FileFormatError, match=expected):
        artifact.read(path, ("a", "b"), FileFormatError, list)
