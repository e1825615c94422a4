"""The TSV artifact format: one reader and one writer for every table, and
one sentence-block reader for corpus and prediction files, which reads
each canonical block in bulk and any other block with the line step, and
must read every file as the reader before it and its line loop did.

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
- a prediction row follows the corpus TSV rule: a field count other than
  2 is a FileFormatError (it was a ScoringError), and so is an empty
  wordform (it was read, and scoring refused it as a wordform mismatch);
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

import ast
import io
import random
import re
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemmabench import align as align_mod
from lemmabench import artifact
from lemmabench import corpus as corpus_mod
from lemmabench.align import read_predictions, write_predictions
from lemmabench.baseline import read_model
from lemmabench.corpus import ingest_conllu, ingest_tsv, write_tsv
from lemmabench.editscript import (
    PRESERVE,
    EditScript,
    LabelInventory,
    read_inventory,
    read_pair_labels,
)
from lemmabench.errors import (
    FileFormatError,
    LemmabenchError,
    ScoringError,
)
from lemmabench.evaluation import read_counts

import oracles
from conftest import corpus, sentence
from synthgen import make_case
from oracles import (
    oracle_ingest_conllu,
    oracle_ingest_tsv,
    oracle_read_counts,
    oracle_read_inventory,
    oracle_read_model,
    oracle_read_pair_labels,
    oracle_read_predictions,
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
    _agree(lambda p: ingest_tsv(p, "c"), lambda p: oracle_ingest_tsv(p, "c"), path)


def _by_corpus_rows(outcome, lines):
    """The old prediction reader's outcome on lines as it is now that a
    prediction row follows the corpus TSV rule: the first row with a field
    count other than 2 or an empty wordform is a FileFormatError at its
    line (the old reader raised ScoringError at the first of the former and
    took the latter)."""
    for line_no, line in enumerate(lines, 1):
        fields = line.split("\t")
        row = line.strip() and not (line.startswith("#") and len(fields) == 1)
        if row and (len(fields) != 2 or not fields[0]):
            return FileFormatError, line_no
    return outcome


@given(lines=_block_lines(), **_layout)
@settings(max_examples=400, deadline=None)
def test_read_predictions_matches_the_old_reader(scratch, lines, crlf, final_newline):
    assume(not _names_rows_across_a_blank(lines))
    path = _file(scratch, lines, crlf, final_newline)
    old = _by_corpus_rows(_outcome(oracle_read_predictions, path), lines)
    assert _outcome(read_predictions, path) == old


# --- the block fast path -------------------------------------------------------------

# Words whose rows the fast path keeps: hashtags, a field that starts with a
# combining mark, a space, a NEL (a line break for str.splitlines only) and
# letters outside ASCII, all NFC; "" is an empty (missing) lemma.
_CANONICAL_WORDS = ["Perros", "perro", "#nlp", "#", "\u0301a", "a b", "x\x85y", "Ça", "ǅemal"]

# Lines that send the block holding them to the line step when they sit
# after a row: non-NFC fields, headers inside a block, whitespace-only lines,
# malformed rows and a byte that is not UTF-8 (_BAD_BYTE, put in after
# encoding).  "#x<TAB>y" is a hashtag row and keeps the fast path.
_BAD_BYTE = "@latin-1@"
_LATE_LINES = [
    "e\u0301\tx", "x\te\u0301", "# columns = a\tb", "# k = late", "# sent_id = late",
    "  ", "\t", " \t ", "\u2028", "\x0c", "\tx", " a\tb", "a\tb\tc", "lone",
    f"caf{_BAD_BYTE}\tcafe", "#x\ty",
]


@st.composite
def block_files(draw):
    """(lines, late line or None) of a block file laid out as write_tsv and
    write_predictions lay it out, with runs of blank lines and empty named
    blocks, and maybe one of _LATE_LINES put in after a row of the last
    third, so that it lands in a late piece."""
    named = draw(st.booleans())
    lines = draw(st.sampled_from([[], ["# format = lemmabench-predictions/1", "# k = v"]]))
    row = st.builds(
        "{}\t{}".format, st.sampled_from(_CANONICAL_WORDS), st.sampled_from(_CANONICAL_WORDS + [""])
    )
    rows_at = []
    for n in range(draw(st.integers(1, 24))):
        if named:
            lines.append(f"# sent_id = s-{n}")
        for line in draw(st.lists(row, min_size=0 if named else 1, max_size=5)):
            rows_at.append(len(lines))
            lines.append(line)
        lines += [""] * draw(st.integers(1, 3))
    late = draw(st.sampled_from([None, *_LATE_LINES])) if rows_at else None
    if late is not None:
        late_rows = [at for at in rows_at if at >= len(lines) * 2 // 3] or rows_at
        lines.insert(draw(st.sampled_from(late_rows)) + 1, late)
    return lines, late


@contextmanager
def _read_with(read_blocks):
    """The readers with read_blocks in place of corpus._read_blocks: the
    reader before this one (oracles._read_blocks) or its line loop alone
    (oracles._read_corpus), given the row rule the tsv flag picks."""

    def with_rows(path, tsv, meta):
        parse_row = corpus_mod._tsv_row if tsv else corpus_mod._conllu_row
        return ((*block, None) for block in read_blocks(path, parse_row, tsv, meta))

    with mock.patch.object(corpus_mod, "_read_blocks", with_rows), mock.patch.object(
        align_mod, "_read_blocks", with_rows
    ):
        yield


@contextmanager
def _line_steps():
    """A list that gains (first line number, lines) for each block that
    takes the line step."""
    steps, line_step = [], corpus_mod._line_step

    def spy(lines, line_no, *args):
        steps.append((line_no, lines := list(lines)))
        return line_step(lines, line_no, *args)

    with mock.patch.object(corpus_mod, "_line_step", spy):
        yield steps


def _texts(steps):
    return [(line_no, "\n".join(lines).strip("\n")) for line_no, lines in steps]


def _result(read, path):
    """read(path)'s result, or the class and text of the error it raised."""
    try:
        return read(path)
    except LemmabenchError as exc:
        return type(exc), str(exc)


def _results_before(reads, path, piece=oracles._PIECE):
    """_result of each read with the reader before this one, at piece, which
    must agree with its line loop alone."""
    with mock.patch.object(oracles, "_PIECE", piece), _read_with(oracles._read_blocks):
        old = [_result(read, path) for read in reads]
    with _read_with(oracles._read_corpus):
        assert old == [_result(read, path) for read in reads]
    return old


def _stepped(steps, late_lines, piece):
    """Each block that took the line step holds one of late_lines or is
    longer than piece (a stretch without a blank line among them)."""
    return all(
        any(line in lines for line in late_lines) or len("\n".join(lines)) > piece
        for _, lines in steps
    )


@given(case=block_files(), piece=st.integers(8, 300), crlf=st.booleans(), bom=st.booleans())
@settings(max_examples=300, deadline=None)
def test_block_fast_path_matches_the_line_loop_and_the_oracles(scratch, case, piece, crlf, bom):
    lines, late = case
    path = _file(scratch, lines, crlf, bom=bom)
    path.write_bytes(path.read_bytes().replace(_BAD_BYTE.encode(), b"\xe9"))
    corpus_read = lambda p: ingest_tsv(p, "c")  # noqa: E731
    reads = corpus_read, read_predictions
    with mock.patch.object(corpus_mod, "_PIECE", piece), _line_steps() as steps:  # many pieces
        new = [_result(read, path) for read in reads]
    assert new == _results_before(reads, path, piece)
    # Only a block with a bad line or longer than a piece takes the line step,
    # and a bad line always does, but for a byte that is not UTF-8: reading
    # the piece that holds it fails before any of its blocks is read.
    bad = [] if late in (None, "#x\ty") else [late]
    assert _stepped(steps, bad, piece)
    if bad and _BAD_BYTE not in late:
        assert any(late in lines for _, lines in steps)
    # The old readers differ on purpose on "# columns = " lines with a tab and
    # raised UnicodeDecodeError; the old prediction reader also on a
    # byte-order mark, on a sent_id whose rows follow a blank line and on
    # the rows the corpus TSV rule refuses.
    new = _outcome(corpus_read, path), _outcome(read_predictions, path)
    if late not in ("# columns = a\tb", f"caf{_BAD_BYTE}\tcafe"):
        assert new[0] == _outcome(lambda p: oracle_ingest_tsv(p, "c"), path)
        if not bom and not _names_rows_across_a_blank(lines):
            assert new[1] == _by_corpus_rows(_outcome(oracle_read_predictions, path), lines)


def test_pipeline_written_files_take_the_fast_path(scratch):
    words = ["Los", "#nlp", "\u0301a", "perros", "Ça", "x\x85y", "!"]
    sentences = [
        sentence(f"s-{n:04d}", *[(words[(n + k) % 7], words[k % 5] if k % 3 else None)
                                  for k in range(n % 9 + 1)])
        for n in range(3000)  # about 60 KiB per 1,000 sentences: several pieces
    ]
    gold = corpus("c", *sentences)
    write_tsv(gold, scratch / "corpus.tsv", {"corpus": "c"})
    write_predictions(
        scratch / "run0.tsv",
        [(s.id, s.wordforms, s.lemmas) for s in gold.sentences],
        {"system": "baseline"},
    )
    assert (scratch / "corpus.tsv").stat().st_size > 2 * corpus_mod._PIECE
    with _line_steps() as steps:
        assert ingest_tsv(scratch / "corpus.tsv", "c").sentences == gold.sentences
        meta, blocks = read_predictions(scratch / "run0.tsv")
    assert steps == []
    assert meta == {"format": "lemmabench-predictions/1", "system": "baseline"}
    assert blocks == [(s.id, s.wordforms, s.lemmas) for s in gold.sentences]


def test_a_late_bad_block_alone_takes_the_line_step(scratch):
    rows = "".join(f"# sent_id = s-{n}\nperros\tperro\n\n" for n in range(6000))
    path = scratch / "late.tsv"
    path.write_text(f"# format = x/1\n{rows}# late = header\nperros\tperro\n# k = v\n", "utf-8")
    assert path.stat().st_size > 2 * corpus_mod._PIECE
    with _line_steps() as steps:
        meta, blocks = read_predictions(path)
    assert _texts(steps) == [(18002, "# late = header\nperros\tperro\n# k = v")]
    assert meta == {"format": "x/1", "late": "header", "k": "v"}
    assert len(blocks) == 6001 and blocks[-1] == (None, ("perros",), ("perro",))
    assert _result(read_predictions, path) == _results_before([read_predictions], path)[0]


@pytest.mark.parametrize(
    "block, blocks",
    [
        ("# sent_id = s-{n}\nperros\tperro\n", 20000),  # named, no blank line between
        ("perros\tperro\nlos\tel\n \n", 20000),  # ended by whitespace-only lines
        ("perros\tperro\n", 1),  # one anonymous block
    ],
    ids=["sent_id only", "whitespace lines", "one block"],
)
def test_a_file_without_blank_lines_leaves_the_fast_path_within_two_pieces(scratch, block, blocks):
    text = "# format = x/1\n" + "".join(block.format(n=n) for n in range(20000))
    path = scratch / "unbroken.tsv"
    path.write_text(text, "utf-8")
    assert path.stat().st_size > 3 * corpus_mod._PIECE
    # After at most two pieces the stretch comes as lines, read one at a
    # time: the read-ahead stays bounded, and no string grows with it.
    handle = io.StringIO(text)
    pieces = corpus_mod._pieces(handle)
    stretch = next(pieces)
    assert not isinstance(stretch, str) and handle.tell() <= 2 * corpus_mod._PIECE
    read = 0
    for line in stretch:
        read += len(line) + 1
        assert handle.tell() <= read + 2 * corpus_mod._PIECE
    assert handle.tell() == len(text) and list(pieces) == [""]
    corpus_read = lambda p: ingest_tsv(p, "c")  # noqa: E731
    reads = corpus_read, read_predictions
    with _line_steps() as steps:
        new = [_result(read, path) for read in reads]
    assert [line_no for line_no, _ in steps] == [1, 1]  # the whole file, once per reader
    assert new == _results_before(reads, path)
    assert new[1][0] == {"format": "x/1"} and len(new[1][1]) == blocks


# --- the CoNLL-U fast path -----------------------------------------------------------

_TAIL = "\tNOUN\t_\t_\t0\troot\t_\t_"  # UPOS to MISC: seven columns


def _conllu_line(token_id, form, lemma="_", tail=_TAIL):
    return f"{token_id}\t{form}\t{lemma}{tail}"


# Rows the fast path keeps: NFC forms with hashtags, spaces, a leading
# combining mark, and a NEL, a line separator and a form feed (line breaks
# for str.splitlines, not for text mode); "_" (no lemma) and "" lemmas;
# decimal IDs in ASCII and in Arabic-Indic digits; multiword ranges and
# empty nodes, some with an empty FORM; "#" comments anywhere in a block.
_CONLLU_FORMS = ["Perros", "del", "#nlp", "\u0301a", "a b", "x\x85y", "x\u2028y", "x\x0cy", "Ça"]
_CONLLU_ROWS = [
    st.builds(_conllu_line, st.sampled_from(["1", "2", "17", "\u0663", "1\u0661"]),
              st.sampled_from(_CONLLU_FORMS), st.sampled_from(["perro", "de", "_", ""])),
    st.builds(_conllu_line, st.sampled_from(["1-2", "3.1", "\u0661-\u0662", "10.2"]),
              st.sampled_from(["del", ""])),
    st.sampled_from(["# sent_id = s-1", "# text = Perros del", "#", "#\tx\ty", "# x\x85y"]),
]

# Lines that send the block holding them to the line step: text that is
# not NFC, whitespace-only lines (part ends for the line step), rows of 9
# or 11 columns (also a pair whose tab total is right), IDs that are not a
# word, range or empty node, a word without FORM, a byte that is not UTF-8.
_LATE_CONLLU = [
    (_conllu_line("1", "e\u0301"),), (_conllu_line("1", "x", "e\u0301"),), ("# e\u0301",),
    ("  ",), ("\t" * 9,), ("\x0c",), ("\u2028",), ("\x85",), ("lone",),
    (_conllu_line("1", "x", tail="\t_" * 6),), (_conllu_line("1", "x", tail=_TAIL + "\t_"),),
    (_conllu_line("1", "x", tail="\t_" * 6), _conllu_line("2", "y", tail=_TAIL + "\t_")),
    *((_conllu_line(bad, "x"),) for bad in ("x", "", " 1", "1 ", "1-", "1.2.3", "1-2-3")),
    (_conllu_line("1", ""),), (_conllu_line("1", f"caf{_BAD_BYTE}"),),
]


@st.composite
def conllu_files(draw):
    """(lines, late lines or None) of a CoNLL-U file of blocks drawn from
    _CONLLU_ROWS with runs of blank lines between them, and maybe one entry
    of _LATE_CONLLU put in after a row of the last third."""
    lines, rows_at = [], []
    row = st.one_of(_CONLLU_ROWS[0], *_CONLLU_ROWS)  # word rows twice as likely
    for _ in range(draw(st.integers(1, 24))):
        for line in draw(st.lists(row, min_size=1, max_size=6)):
            if not line.startswith("#"):
                rows_at.append(len(lines))
            lines.append(line)
        lines += [""] * draw(st.integers(1, 3))
    late = draw(st.sampled_from([None, *_LATE_CONLLU])) if rows_at else None
    if late is not None:
        at = draw(st.sampled_from([at for at in rows_at if at >= len(lines) * 2 // 3] or rows_at))
        lines[at + 1 : at + 1] = late
    return lines, late


@given(case=conllu_files(), piece=st.integers(8, 300), crlf=st.booleans(), bom=st.booleans())
@settings(max_examples=300, deadline=None)
def test_conllu_fast_path_matches_the_line_loop_and_the_oracle(scratch, case, piece, crlf, bom):
    lines, late = case
    path = _file(scratch, lines, crlf, bom=bom)
    path.write_bytes(path.read_bytes().replace(_BAD_BYTE.encode(), b"\xe9"))
    corpus_read = lambda p: ingest_conllu(p, "c")  # noqa: E731
    with mock.patch.object(corpus_mod, "_PIECE", piece), _line_steps() as steps:  # many pieces
        new = _result(corpus_read, path)
    assert [new] == _results_before([corpus_read], path, piece)
    assert _stepped(steps, late or (), piece)
    if late is not None and _BAD_BYTE not in "".join(late):
        assert any(set(late) <= set(lines) for _, lines in steps)
    if _BAD_BYTE not in "".join(lines):  # the oracle raised UnicodeDecodeError
        assert _outcome(corpus_read, path) == _outcome(lambda p: oracle_ingest_conllu(p, "c"), path)


def test_conllu_fixtures_and_a_synthgen_corpus_take_the_fast_path(scratch, fixtures_dir):
    rng, lines = random.Random(5), []
    for n in range(600):
        s = make_case(rng, f"synth-{n}")[0]
        lines += [f"# sent_id = {s.id}", "# text = " + " ".join(s.wordforms)]
        lines.append(_conllu_line("1-2", s.wordforms[0] + s.wordforms[1]))
        lines += [_conllu_line(str(i), *pair) for i, pair in enumerate(s.gold_pairs(), 1)]
        lines.append("")
    path = _file(scratch, lines)
    assert path.stat().st_size > 2 * corpus_mod._PIECE
    paths = [fixtures_dir / "corpora" / name for name in ("es_fix.conllu", "en_fix.conllu")]
    expected = [_results_before([ingest_conllu], p)[0] for p in [*paths, path]]
    with _line_steps() as steps:
        assert [ingest_conllu(p) for p in [*paths, path]] == expected
    assert steps == [] and len(expected[2]) == 600


def test_a_non_nfc_comment_sends_only_its_conllu_block_to_the_line_step(scratch):
    block = ["# text = Perros ladran", _conllu_line("1", "Perros", "perro"),
             _conllu_line("2", "ladran", "ladrar"), ""]
    last = ["# text = cafe\u0301", _conllu_line("1", "café", "café"), ""]
    path = _file(scratch, block * 3000 + last)
    assert path.stat().st_size > 2 * corpus_mod._PIECE
    with _line_steps() as steps:
        read = ingest_conllu(path)
    assert _texts(steps) == [(12001, "\n".join(last).strip("\n"))]
    assert read == _results_before([ingest_conllu], path)[0]
    assert read.sentences[-1].wordforms == ("café",) and len(read) == 3001


def test_a_bad_conllu_line_in_the_last_piece_gets_the_line_loops_error(scratch):
    block = ["# text = Perros ladran", _conllu_line("1", "Perros", "perro"),
             _conllu_line("2", "ladran", "ladrar"), ""]
    bad = _conllu_line("1", "x", tail=_TAIL + "\t_")
    path = _file(scratch, block * 3000 + [bad])
    assert path.stat().st_size > 2 * corpus_mod._PIECE
    with _line_steps() as steps, pytest.raises(
        FileFormatError, match=":12001: expected 10 columns, found 11"
    ):
        ingest_conllu(path)
    assert _texts(steps) == [(12001, bad)]


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
     _ok(({"columns": "wordform\tlemma"}, [(None, ("a",), ("b",))]))),
    ("pairs", [*_PAIRS, "# columns = wordform\tlabel id\ttoken count"],
     lambda new, old: len(new) == 1 and old == (FileFormatError, 3)),
    # only the key sent_id names a sentence
    ("corpus", ["# sent_id_x = 3", "a\tb"],
     lambda new, old: new.sentences[0].id == "c-0000" and old.sentences[0].id == "3"),
    # a sent_id names the rows after a blank line, in prediction files too
    ("predictions", ["# sent_id = s-0", "", "a\tb"],
     _ok(({}, [("s-0", ("a",), ("b",))]))),
    # a prediction row follows the corpus TSV rule
    ("predictions", ["a\tb", "a\tb\tc"],
     lambda new, old: new == (FileFormatError, 2) and old == (ScoringError, 2)),
    ("predictions", ["a\tb", "\tb"],
     lambda new, old: new == (FileFormatError, 2) and old[1][0][1] == ("a", "")),
    # a "#" line with a tab is a row of the inventory and the model
    ("inventory", [*_INVENTORY, "#x\ty\tz"], _refused(FileFormatError, 5)),
    ("model", [*_MODEL, "#x\ty"], _refused(FileFormatError, 5)),
    # max_suffix_len is a "# key = value" header like any other
    ("model", [*_MODEL, "#max_suffix_len=7"], lambda new, old: new[2] == 7 and old[2] == 3),
    ("model", [*_MODEL, "# max_suffix_len = 5 6"],
     lambda new, old: new == (FileFormatError, 5) and old[2] == 6),
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
     _refused(FileFormatError, 4)),
    ("inventory", [*_INVENTORY, f"2\t{_SCRIPTS[0].encode()}\t1"],
     _refused(FileFormatError, 5)),
    ("inventory", [*_INVENTORY[:3], f"1\t{_SCRIPTS[1].encode()}\t9"],
     _refused(FileFormatError, 4)),
    # a frequency is a positive integer
    ("inventory", [*_INVENTORY, f"2\t{_SCRIPTS[2].encode()}\t-3"],
     _refused(FileFormatError, 5)),
    ("inventory", [*_INVENTORY, f"2\t{_SCRIPTS[2].encode()}\t0"],
     _refused(FileFormatError, 5)),
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
    assert artifact.read(path, ("a", "b"), list) == (
        {"format": "x/1", "columns": "a\tb", "sent_id": "s"}, [["#nlp", "1"]]
    )


def test_a_write_that_raises_keeps_the_old_file_and_leaves_no_other(tmp_path):
    path = tmp_path / "run-0.tsv"
    write_predictions(path, [("s-0", ["a"], ["a"])])
    before = path.read_bytes()
    with pytest.raises(ValueError):  # the second block has 1 lemma slot for 2 wordforms
        write_predictions(path, [("s-0", ["a", "b"], ["a", "b"]), ("s-1", ["a", "b"], ["x"])])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_write_that_raises_creates_no_file(tmp_path):
    def rows():
        yield ("a", "b")
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        artifact.write(tmp_path / "new" / "table.tsv", {"format": "x/1"}, rows())
    assert list((tmp_path / "new").iterdir()) == []


def _file_writes(source: str):
    """Line numbers of write_text/write_bytes calls and of open calls whose
    mode writes or creates ("w" or "x") in source."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name == "open":
            # open(path, mode) or path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
            if any(
                isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wx")
                for m in modes
            ):
                yield node.lineno


def test_src_writes_files_only_through_artifact():
    """Every file a stage writes goes through artifact.publish; the response
    cache only appends ("ab"), under its own torn-tail rule."""
    probe = 'open(p, "w")\np.open(mode="x")\np.write_text(t)\nopen(p, "ab")\nopen(p)'
    assert list(_file_writes(probe)) == [1, 2, 3]
    package = Path(artifact.__file__).parent
    writes = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "artifact.py"
        for line in _file_writes(path.read_text("utf-8"))
    ]
    assert writes == []


def test_read_names_the_line_of_a_row_with_the_wrong_field_count(scratch):
    path = _file(scratch, ["# k = v", "a\tb", "", "a\tb\tc"])
    expected = re.escape(f"{path}:4: expected the fields a, b; found 3 fields")
    with pytest.raises(FileFormatError, match=expected):
        artifact.read(path, ("a", "b"), list)
