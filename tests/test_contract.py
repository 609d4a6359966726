"""Every malformed input file gets its documented exit code.

The README's contract: a malformed input file is an input error (exit 3)
and a malformed config a config error (exit 2); either prints exactly one
JSON record on stderr, and a stage that fails before its first write
leaves ``out_dir`` as it was.  ``READERS`` lists each reader of an input
file, the file it reads among the demo fixtures and the stage runs that
read it.  Hypothesis writes one malformed file for a reader into a copy of
the fixtures and runs one of those stages through ``cli.main``.  A few
cases run as processes, where a traceback would show.  A leading UTF-8
byte-order mark is not malformed: every reader drops it.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemexplain.cli import SETTINGS, main

from .test_cli import _records, _stemexplain


class Reader(NamedTuple):
    file: str  # relative to the fixture directory
    stages: tuple[tuple[str, ...], ...]
    code: int
    error: str


ENTROPY_TABLE = "out/entropy_report.tsv"
SYMBOL_NAMES = ("plotdata", "--which", "symbol-name-distribution")
ENTROPY_RUN = ("plotdata", "--which", "entropy-table")

READERS = {
    "config": Reader("demo_config.json", (
        ("synth",), ("ingest",), ("stats",), ("correspond",), ("classify",), ("augment",),
        ("ablate",), ("link",), ("mathel",), ("explain",), SYMBOL_NAMES, ENTROPY_RUN,
        ("report",)), 2, "ConfigError"),
    "corpus": Reader("demo_corpus.jsonl", (
        ("ingest",), ("stats",), ("correspond",), ("classify",), ("augment",), ("ablate",),
        ("link",), ("mathel",), ("explain",), SYMBOL_NAMES), 3, "ParseError"),
    "gazetteer": Reader("gazetteer_wikidump.tsv", (("link",), ("mathel",)), 3, "ParseError"),
    "symbol source": Reader("source_arxiv.tsv", (("augment",), ("explain",)), 3, "ParseError"),
    "concept map": Reader("concept_map.tsv", (("ablate",), ("explain",)), 3, "ParseError"),
    "entropy table": Reader(ENTROPY_TABLE, (ENTROPY_RUN,), 3, "ParseError"),
}

# The rows `explain` writes, as `plotdata --which entropy-table` reads them.
ENTROPY_REPORT = ["row\tentropy_bits"] + [
    f"{row}\t{value}" for row, value in (("MFreqTextClsEnt", 2.0), ("MDiscTextClsEnt", 1.5),
                                         ("MFreqMathClsEnt", 1.25), ("MDiscMathClsEnt", 0.5))]

ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
SEPARATORS = st.sampled_from(["\u2028", "\u2029", "\x85"])
BLANKS = st.sampled_from(["", "  ", "\t", " \t "])
# Bytes that are not UTF-8 wherever they sit between two characters: stray
# or invalid bytes, then sequences cut short.
BAD_BYTES = st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80",
                             b"\xf4\x90\x80\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9d\x94"])
FIELDS = st.sampled_from(["wave function", "e", "Q1", "astro-ph", "x_y", "Émile", "2.0"])
NOT_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400",
                              "", "abc", "0x1p3", "1,5", "two"])
# Surfaces with no letter or digit, which normalize to nothing.
EMPTY_SURFACES = st.text(alphabet="-_!?.,;:()[]{}#*/'\" ", min_size=1, max_size=6)


def _join(draw, lines: list[str]) -> str:
    """The lines, each ended by LF, CRLF or CR; the last maybe by nothing.

    A CR before an empty line ended by LF would read as one CRLF, so
    it becomes a CRLF itself.
    """
    endings = [draw(ENDINGS) for _ in lines]
    if endings and draw(st.booleans()):
        endings[-1] = ""
    for i in range(len(lines) - 1):
        if endings[i] == "\r" and not lines[i + 1]:
            endings[i] = "\r\n"
    return "".join(line + end for line, end in zip(lines, endings))


def _split(draw, line: str) -> str:
    """``line`` broken in two before its first tab, so the first part has one field."""
    at = draw(st.integers(1, line.index("\t")))
    return line[:at] + draw(ENDINGS) + line[at:]


def _tsv_lines(draw, good: list[str], blanks: bool) -> list[str]:
    """A few good lines, some with a line-separator character in their first field,
    and blank lines between them when the reader skips those."""
    lines = []
    for line in draw(st.lists(st.sampled_from(good), min_size=1, max_size=6, unique=True)):
        if draw(st.booleans()):
            tab = line.index("\t")
            line = line[:tab] + draw(SEPARATORS) + line[tab:]
        lines.append(line)
        if blanks and draw(st.booleans()):
            lines.append(draw(BLANKS))
    return lines


def _bad_tsv_line(draw, good: list[str], n_fields: int, number: bool) -> str:
    line = draw(st.sampled_from(good))
    kinds = ["fields", "split"] + (["number"] if number else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "split":
        return _split(draw, line)
    if kind == "number":
        return "\t".join(line.split("\t")[:-1] + [draw(NOT_FINITE)])
    count = draw(st.integers(1, n_fields + 2).filter(lambda n: n != n_fields))
    return "\t".join(draw(FIELDS) for _ in range(count))


def _tsv(draw, reader: str, good: list[str]) -> str:
    if reader == "entropy table":
        lines = _tsv_lines(draw, good[1:], blanks=False)
        kind = draw(st.sampled_from(["line", "blank"]))
        bad = "" if kind == "blank" else _bad_tsv_line(draw, good[1:], 2, number=True)
        # A blank last line without its ending would be no line at all.
        lines.insert(draw(st.integers(0, len(lines) - (kind == "blank"))), bad)
        return _join(draw, [good[0]] + lines)
    lines = _tsv_lines(draw, good, blanks=True)
    if reader == "gazetteer" and draw(st.booleans()):
        bad = f"{draw(EMPTY_SURFACES)}\t{draw(FIELDS)}"
    else:
        n_fields = 3 if reader == "symbol source" else 2
        bad = _bad_tsv_line(draw, good, n_fields, number=reader == "symbol source")
    lines.insert(draw(st.integers(0, len(lines))), bad)
    return _join(draw, lines)


NAN, INF = math.nan, math.inf
# Characters that would break a table row if a stage wrote them in a cell.
BREAKS = ("\t", "\r", "\n")
# (field, malformed value); None as the field deletes a required key.
RECORD_FAULTS = [("id", v) for v in (None, 5, "", [], True)] + [
    ("id", f"astro{c}ph-000") for c in BREAKS] + [
    ("arxiv", v) for v in ("math.AP", None, 5, [5], ["not a category"], {})] + [
    ("msc", v) for v in ("85A05", [85], ["8A05"])] + [
    ("segments", v) for v in ("x", {}, [5], [[]], [{"kind": "image", "content": "x"}],
                              [{"kind": "text", "content": 5}], [{"content": "x"}],
                              [{"kind": "text", "content": "x", "fid": "f"}],
                              [{"kind": "formula", "content": "<mi>x</mi>", "fid": ""}],
                              [{"kind": "formula", "content": "<mi>x</mi>", "fid": "f"}] * 2,
                              [{"kind": "formula", "content": "<mi>x"}],
                              [{"kind": "text", "content": "x", "size": 1}],
                              # an explicit fid that a later formula has by position
                              [{"kind": "formula", "content": "<mi>x</mi>", "fid": "seg1"},
                               {"kind": "formula", "content": "<mi>y</mi>"}])] + [
    ("segments", [{"kind": "formula", "content": "<mi>x</mi>", "fid": f"f{c}1"}])
    for c in BREAKS] + [
    ("segments", [{"kind": "formula", "content": f"<mi>ab{c}c</mi>"}])
    for c in ("\t", "&#9;", "\n", "&#13;")] + [
    ("gold", v) for v in ([], 5, {"zz": {}}, {"entity_relevance": []},
                          {"entity_targets": {"x": "T"}}, {"entity_targets": {"x": {"url": "u"}}},
                          {"identifier_names": {"f": 5}}, {"concept_relevance": {"f": ["x"]}})] + [
    ("gold", {"entity_relevance": {"x": v}}) for v in ("1", None, True, 0.7, NAN, INF, -INF)] + [
    ("gold", {"concept_relevance": {"f": {"x": v}}}) for v in (NAN, INF, "2", 3, True, 1.5)] + [
    ("gold", v) for c in BREAKS for v in ({"entity_relevance": {f"wave{c}function": 1}},
                                          {"identifier_names": {"f": {"x": f"energy{c}"}}})] + [
    # two keys of one table that name one n-gram
    ("gold", {"entity_relevance": {"Common0 Common1": 1, "common0 common1": 0}}),
    ("gold", {"entity_targets": {"wave_function": {}, "Wave function": {"title": "T"}}}),
    ("gold", {"concept_relevance": {"f": {"energy level": 2, "Energy-level": 0}}})] + [
    (None, key) for key in ("id", "arxiv", "msc", "segments")] + [("extra", 1)]


def _corpus(draw, good: list[str]) -> str:
    lines = []
    for line in draw(st.lists(st.sampled_from(good), min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):  # a line separator inside a text segment's string
            record = json.loads(line)
            record["segments"][0]["content"] += draw(SEPARATORS)
            line = json.dumps(record, ensure_ascii=False)
        lines.append(line)
        if draw(st.booleans()):
            lines.append(draw(BLANKS))
    line = draw(st.sampled_from(good))
    kind = draw(st.sampled_from(["field", "truncated", "split", "separator", "duplicate"]))
    if kind == "duplicate":  # a record whose id another record already has
        bad = draw(st.sampled_from([line for line in lines if line.strip()]))
    elif kind == "field":
        record = json.loads(line)
        key, value = draw(st.sampled_from(RECORD_FAULTS))
        if key is None:
            del record[value]
        else:
            record[key] = value
        bad = json.dumps(record, ensure_ascii=False)
    elif kind == "truncated":
        bad = line[:draw(st.integers(1, len(line) - 1))]
    elif kind == "split":
        at = draw(st.integers(1, len(line) - 1))
        bad = line[:at] + draw(ENDINGS) + line[at:]
    else:  # outside any string, where JSON allows no such character
        bad = "{" + draw(SEPARATORS) + line[1:]
    lines.insert(draw(st.integers(0, len(lines))), bad)
    return _join(draw, lines)


# Malformed values of each kind of setting in ``cli.SETTINGS``; a null seed
# is a missing one.
KIND_FAULTS = {
    "string": (5, None, []),
    "file": (5, None, []),
    "file or null": (5, [], True),
    "string or null": (5, ["x"], True),
    "tag map": ([], "x", {"g": 5}, {"a": None}) + tuple(
        {f"tag{c}x": "gazetteer_wikidump.tsv"} for c in BREAKS),
    "bool": (1, 0, "yes", None),
    "count": (0, -1, "3", 2.5, True, INF),
    "count or null": (0, 1.5, True, "3"),
    "count list": ([], [0], [2.5], [True], "3", 3),
    "number >= 0": (-1, NAN, INF, -INF, "x", True, None),
    "number > 0 or null": (0, -1, NAN, -INF, "1", True),
    "fraction": (1.0, -0.1, "0.2", NAN, INF, True),
    "choice": ("dewey", 5, None, ["x"], True),
    "seed": ("12", True, 1.5, [], NAN, None),
}


def config_faults() -> list[tuple[str, object]]:
    """(dotted path, malformed value): faults of its kind for every setting, then
    an unknown key at the top and in a section, and sections that are not objects."""
    return [(path, value) for path, (_, kind, _) in SETTINGS.items()
            for value in KIND_FAULTS[kind]] + [
        ("mystery", 1), ("logreg.momentum", 0.9), ("linker", []), ("plot", "x")]


CONFIG_FAULTS = config_faults()


def _with_fault(config: dict, path: str, value) -> dict:
    section, _, key = path.rpartition(".")
    (config[section] if section else config)[key] = value
    return config


def _config(draw, good: str) -> str:
    kind = draw(st.sampled_from(["setting", "root", "truncated", "split", "separator"]))
    if kind == "setting":
        config = _with_fault(json.loads(good), *draw(st.sampled_from(CONFIG_FAULTS)))
        text = json.dumps(config, indent=2)
    elif kind == "root":
        text = json.dumps(draw(st.sampled_from([[], "config", 5, None, [json.loads(good)]])))
    elif kind == "truncated":
        text = good[:draw(st.integers(1, len(good.rstrip()) - 1))]
    elif kind == "split":  # a line break inside the corpus path string
        at = good.index('"demo_corpus.jsonl"') + draw(st.integers(1, len("demo_corpus.jsonl")))
        text = good[:at] + draw(ENDINGS) + good[at:]
    else:
        text = "{" + draw(SEPARATORS) + good[1:]
    return _join(draw, text.split("\n"))


@functools.cache
def demo_fixtures() -> dict[str, str]:
    """The text of every file ``synth`` writes, plus an entropy table, by relative path."""
    with tempfile.TemporaryDirectory() as scratch:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--seed", "12", "--out-dir", scratch]) == 0
        files = {path.name: path.read_text(encoding="utf-8")
                 for path in Path(scratch).iterdir()}
    files[ENTROPY_TABLE] = "\n".join(ENTROPY_REPORT) + "\n"
    return files


@st.composite
def malformed_inputs(draw):
    """(reader, stage argv, file bytes): a malformed file and a stage that reads it."""
    name = draw(st.sampled_from(sorted(READERS)))
    reader = READERS[name]
    good = demo_fixtures()[reader.file].split("\n")[:-1]
    if draw(st.integers(0, 3)) == 0:  # bytes that are not UTF-8 in a good file
        text = _join(draw, good)
        at = draw(st.integers(0, len(text)))
        data = text[:at].encode("utf-8") + draw(BAD_BYTES) + text[at:].encode("utf-8")
    elif name == "config":
        data = _config(draw, "\n".join(good)).encode("utf-8")
    elif name == "corpus":
        data = _corpus(draw, good).encode("utf-8")
    else:
        data = _tsv(draw, name, good).encode("utf-8")
    return name, draw(st.sampled_from(reader.stages)), data


def _snapshot(directory: Path) -> dict[str, tuple[int, bytes, int]]:
    """Each file's inode, bytes and mode."""
    return {p.name: (p.stat().st_ino, p.read_bytes(), p.stat().st_mode)
            for p in directory.iterdir()}


def _prepare(root: Path, reader: str, data: bytes) -> tuple[Path, Path]:
    """The fixtures under ``root``, ``data`` as the reader's file; the config and out_dir."""
    out_dir = root / "out"
    out_dir.mkdir()
    (out_dir / "keep.tsv").write_text("metric\tvalue\nkept\t1\n", encoding="utf-8")
    for name, text in demo_fixtures().items():
        (root / name).write_text(text, encoding="utf-8")
    (root / READERS[reader].file).write_bytes(data)
    return root / "demo_config.json", out_dir


# The demo gazetteer's first line, then a surface that normalizes to nothing.
EMPTY_SURFACE_GAZETTEER = b"notion0p0 theme0p0\tNotion0p0_theme0p0\n---\tQ1\n"
# One record twice.
DUPLICATE_IDS = b'{"id": "d", "arxiv": [], "msc": [], "segments": []}\n' * 2
# A tab in an id, which would shift every column of the link tables' rows.
TAB_ID = (b'{"id": "astro\\tph-000", "arxiv": [], "msc": [], '
          b'"segments": [{"kind": "text", "content": "notion0p0 theme0p0"}]}\n')
# An explicit fid that the unnamed formula at segment 1 has by position.
SHARED_FID = (b'{"id": "d", "arxiv": [], "msc": [], "segments": ['
              b'{"kind": "formula", "content": "<mi>x</mi>", "fid": "seg1"}, '
              b'{"kind": "formula", "content": "<mi>y</mi>"}]}\n')
# Two judgments of the n-gram "common0 common1".
TWO_JUDGMENTS = (b'{"id": "d", "arxiv": [], "msc": [], "segments": [], "gold": '
                 b'{"entity_relevance": {"Common0 Common1": 1, "common0 common1": 0}}}\n')
# A gazetteer tag, the source column of the link tables, with a tab in it.
TAB_TAG = b'{"seed": 1, "linker": {"gazetteers": {"wiki\\tdump": "gazetteer_wikidump.tsv"}}}'


@given(malformed_inputs())
@example(("gazetteer", ("link",), EMPTY_SURFACE_GAZETTEER))
@example(("gazetteer", ("mathel",), b"\t\nnotion0p0 theme0p0\tT\r\n _\tT"))
@example(("config", SYMBOL_NAMES, b'{"seed": 1, "plot": {"symbol": 5}}'))
@example(("corpus", ("stats",), DUPLICATE_IDS))
@example(("config", ("ingest",), b'{"seed": 1, "out_dir": null}'))
@settings(max_examples=150, deadline=None)
def test_malformed_input_exits_with_its_documented_code(case):
    reader, argv, data = case
    with tempfile.TemporaryDirectory() as scratch:
        config, out_dir = _prepare(Path(scratch), reader, data)
        before = _snapshot(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "-c", str(config), "--out-dir", str(out_dir)])
        assert code == READERS[reader].code, stderr.getvalue()
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().removesuffix("\n").split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == READERS[reader].error
        assert _snapshot(out_dir) == before


@pytest.mark.parametrize("reader, argv, data", [
    ("gazetteer", ("link",), EMPTY_SURFACE_GAZETTEER),
    ("corpus", ("ingest",), b'{"id": "d1",\r "arxiv": []}\n'),
    ("symbol source", ("augment",), b"e\tegloss0\t50\r\nx\tname\tinf\r\n"),
    ("concept map", ("ablate",), b"wave\tastro-ph\nwave function\n"),
    ("entropy table", ENTROPY_RUN, "row\tentropy_bits\nA \t2\n\nB\t1\n".encode("utf-8")),
    ("config", ("ingest",), b'{"seed": 1, "lime": {"ridge": NaN}}'),
    ("config", ("explain",), b'{"seed": 1, "explain": {"source": ["arxiv"]}}'),
    ("corpus", ("ingest",), DUPLICATE_IDS),
    ("corpus", ("link",), TAB_ID),
    ("corpus", ("mathel",), SHARED_FID),
    ("corpus", ("link",), TWO_JUDGMENTS),
    ("config", ("link",), TAB_TAG),
])
def test_stage_process_prints_one_record_and_no_traceback(tmp_path, reader, argv, data):
    config, out_dir = _prepare(tmp_path, reader, data)
    before = _snapshot(out_dir)
    result = _stemexplain(*argv, "-c", str(config), "--out-dir", str(out_dir))
    assert result.returncode == READERS[reader].code
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    records = _records(result.stderr)
    assert len(records) == 1 and records[0]["error"] == READERS[reader].error
    assert _snapshot(out_dir) == before


@pytest.mark.parametrize("reader, argv, first", [
    ("config", ("classify",), ""),
    ("corpus", ("stats",), ""),
    ("gazetteer", ("link",), ""),
    # rankings.tsv names the candidates of the first line's symbol
    ("symbol source", ("explain",), ""),
    # a phrase that occurs nowhere, which ablate_coverage.tsv names
    ("concept map", ("ablate",), "wave function\tgr-qc\n"),
    ("entropy table", ENTROPY_RUN, ""),
], ids=["config", "corpus", "gazetteer", "symbol-source", "concept-map", "entropy-table"])
def test_byte_order_mark_is_part_of_no_key(tmp_path, reader, argv, first):
    """A file that starts with a UTF-8 byte-order mark, then ``first`` and the
    demo file, reads as the file without the mark; its digest is still that of
    its bytes."""
    text = first + demo_fixtures()[READERS[reader].file]
    outputs, manifests = [], []
    for bom in (b"", b"\xef\xbb\xbf"):
        data = bom + text.encode("utf-8")
        root = tmp_path / ("bom" if bom else "plain")
        root.mkdir()
        config, out_dir = _prepare(root, reader, data)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "-c", str(config), "--out-dir", str(out_dir)])
        assert code == 0, stderr.getvalue()
        (manifest,) = out_dir.glob("*manifest.json")
        manifests.append(json.loads(manifest.read_text(encoding="utf-8")))
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                        if p not in (manifest, root / READERS[reader].file)})
        if reader not in ("config", "entropy table"):
            assert hashlib.sha256(data).hexdigest() in manifests[-1]["inputs"].values()
    assert outputs[0] == outputs[1]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


def test_every_setting_has_config_faults():
    assert {path for path, _ in CONFIG_FAULTS} >= set(SETTINGS)


@pytest.mark.parametrize("path, value", CONFIG_FAULTS,
                         ids=[f"{path}={json.dumps(value)}" for path, value in CONFIG_FAULTS])
def test_config_fault_exits_2_on_every_stage(tmp_path, path, value):
    config = _with_fault(json.loads(demo_fixtures()["demo_config.json"]), path, value)
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    for argv in READERS["config"].stages:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "-c", str(tmp_path / "c.json"), "--out-dir", str(out_dir)])
        assert (code, stdout.getvalue()) == (2, ""), (argv, stderr.getvalue())
        lines = stderr.getvalue().removesuffix("\n").split("\n")
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError", argv
    assert not out_dir.exists()
