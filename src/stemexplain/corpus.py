"""Document model, corpus file IO and the tab-separated field reader.

A corpus file is UTF-8 text with one JSON record per line:

    {"id": "...", "arxiv": [...], "msc": [...],
     "segments": [{"kind": "text", "content": "..."},
                  {"kind": "formula", "content": "<mi>E</mi>...", "fid": "f1"}],
     "gold": {...}}

Segments preserve the original interleaving of prose and formula
markup.  The optional ``gold`` object carries human annotations used by
the statistics and evaluation layers: identifier names per formula,
entity-linking relevance (with optional expected targets), and
formula-concept relevance scores.

Each document's input work is done once per process.  Every segment, from
a corpus file or from code, is made by ``Segment``: a formula segment parses
its markup and checks its identifiers there, so ``document_identifiers``
never parses again.  One corpus load parses each distinct markup once,
through a map that lives only as long as the load.  Segments and documents
can be copied and pickled.

A document tokenizes its text segments on the first ``token_layout`` or
``text_tokens`` call and keeps the layout together with the segments it
was computed from; a later call recomputes it only when the segment list
has changed since, so replacing a segment can never leave a stale layout
behind.  Both accessors return fresh lists, which callers may modify.

Every file is read through ``errors.read_utf8``, so bytes that are not
UTF-8 raise ParseError naming the line and byte offset.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple

from .errors import ParseError, ValidationError, read_utf8
from .formulas import extract_identifiers
from .tokenizer import normalize_surface, tokenize

TEXT = "text"
FORMULA = "formula"

_ARXIV_RE = re.compile(r"^[A-Za-z0-9-]+(\.[A-Za-z0-9-]+)?$")
_MSC_RE = re.compile(r"^[0-9]{2}[A-Za-z-][0-9]{2}$")
# What would end a cell or a row of the tables that write corpus strings.
_CELL_BREAK_RE = re.compile("[\t\r\n]")

# No dataclasses here: importing them loads inspect, ast and dis (about 10 ms
# per process), and the ingest stage loads no other module that needs them.


def formula_id(fid: str | None, index: int) -> str:
    """A formula's id: its explicit ``fid``, else ``seg<index>`` by its segment index."""
    return fid or f"seg{index}"


class Segment(namedtuple("Segment", ("kind", "content", "fid", "identifiers"))):
    """One stretch of a document: prose text or formula markup.

    A formula segment keeps its identifier symbols in document order, parsed
    when it is made unless ``parsed`` (markup -> symbols, filled here) holds
    them; malformed markup or a symbol with a tab, CR or LF raises ParseError.
    Text segments have no identifiers.  Segments are immutable and compare by value.
    """

    __slots__ = ()

    def __new__(cls, kind: str, content: str, fid: str | None = None,
                parsed: dict[str, tuple[str, ...]] | None = None) -> Segment:
        parsed = {} if parsed is None else parsed
        identifiers = parsed.get(content) if kind == FORMULA else ()
        if identifiers is None:
            identifiers = tuple(extract_identifiers(content))
            for symbol in identifiers:
                _check_cell(symbol, "identifier", None)
            parsed[content] = identifiers
        return super().__new__(cls, kind, content, fid, identifiers)

    def __getnewargs__(self) -> tuple:
        return self[:3]


class GoldAnnotations:
    """Optional human ground truth attached to a document.

    identifier_names: formula id -> symbol -> name.
    entity_relevance: text n-gram -> relevance in {0, 0.5, 1}.
    entity_targets:   text n-gram -> expected link target, a dict with
                      optional "title" and "qid" keys; used to decide
                      whether a produced link points at the right thing.
    concept_relevance: formula id -> candidate phrase -> score in {0, 1, 2}.

    A map not given starts empty.  Two annotations are equal when their
    four maps are.
    """

    def __init__(self, identifier_names: dict[str, dict[str, str]] | None = None,
                 entity_relevance: dict[str, float] | None = None,
                 entity_targets: dict[str, dict[str, str]] | None = None,
                 concept_relevance: dict[str, dict[str, int]] | None = None):
        self.identifier_names = {} if identifier_names is None else identifier_names
        self.entity_relevance = {} if entity_relevance is None else entity_relevance
        self.entity_targets = {} if entity_targets is None else entity_targets
        self.concept_relevance = {} if concept_relevance is None else concept_relevance

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is GoldAnnotations else NotImplemented

    def is_empty(self) -> bool:
        return not (self.identifier_names or self.entity_relevance
                    or self.entity_targets or self.concept_relevance)


class Document:
    """A labeled document: its segments, its arXiv and MSC labels and optional gold.

    Two documents are equal when their id, segments, labels and gold are.
    """

    def __init__(self, doc_id: str, segments: list[Segment], arxiv_categories: list[str],
                 msc_codes: list[str], gold: GoldAnnotations | None = None):
        self.doc_id = doc_id
        self.segments = segments
        self.arxiv_categories = arxiv_categories
        self.msc_codes = msc_codes
        self.gold = gold
        # The token layout and the segments it was computed from.
        self._layout: tuple[tuple[str, ...], tuple[tuple[str, int], ...]] | None = None
        self._layout_segments: tuple[Segment, ...] = ()

    def _compared(self) -> tuple:
        return (self.doc_id, self.segments, self.arxiv_categories, self.msc_codes, self.gold)

    def __eq__(self, other):
        return self._compared() == other._compared() if type(other) is Document else NotImplemented

    def text_tokens(self) -> list[str]:
        """All tokens of the text segments, in reading order."""
        return list(self._token_layout()[0])

    def formula_segments(self) -> list[tuple[str, Segment]]:
        """(formula id, segment) pairs in document order.

        Formulas without an explicit fid get a positional one derived
        from the segment index, so every identifier occurrence can be
        traced back to its formula.
        """
        out = []
        for index, segment in enumerate(self.segments):
            if segment.kind == FORMULA:
                out.append((formula_id(segment.fid, index), segment))
        return out

    def formula_ids(self) -> list[str]:
        return [fid for fid, _ in self.formula_segments()]

    def token_layout(self) -> tuple[list[str], list[tuple[str, int]]]:
        """Text tokens plus formula positions within that token stream.

        A formula position p means the formula sits between text token
        p-1 and text token p; p equals the number of text tokens that
        precede the formula.
        """
        tokens, positions = self._token_layout()
        return list(tokens), list(positions)

    def _token_layout(self) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...]]:
        segments = tuple(self.segments)
        # Segments are immutable, so equal segments give an equal layout.
        if self._layout is None or segments != self._layout_segments:
            tokens: list[str] = []
            positions: list[tuple[str, int]] = []
            for index, segment in enumerate(segments):
                if segment.kind == TEXT:
                    # Interned, so the kept layouts of a corpus share one
                    # string per distinct token.
                    tokens.extend(map(sys.intern, tokenize(segment.content)))
                else:
                    positions.append((formula_id(segment.fid, index), len(tokens)))
            self._layout = (tuple(tokens), tuple(positions))
            self._layout_segments = segments
        return self._layout


class IdentifierOccurrence(namedtuple("IdentifierOccurrence",
                                      ("doc_id", "formula_id", "symbol", "name"),
                                      defaults=(None,))):
    """One identifier symbol occurrence inside a formula."""

    __slots__ = ()


def document_identifiers(doc: Document) -> list[IdentifierOccurrence]:
    """Identifier occurrences of every formula, with gold names when present.

    The symbols are the ones each formula segment parsed when it was
    made; nothing is parsed here.
    """
    names = doc.gold.identifier_names if doc.gold else {}
    out = []
    for fid, segment in doc.formula_segments():
        formula_names = names.get(fid, {})
        for symbol in segment.identifiers:
            out.append(IdentifierOccurrence(doc.doc_id, fid, symbol, formula_names.get(symbol)))
    return out


def corpus_summary(docs: list[Document]) -> list[tuple[str, int]]:
    """(metric, count) rows: documents, label sets, segments, identifiers, gold."""
    return [
        ("documents", len(docs)),
        ("arxiv_classes", len({label for doc in docs for label in doc.arxiv_categories})),
        ("msc_codes", len({label for doc in docs for label in doc.msc_codes})),
        ("text_segments", sum(s.kind == TEXT for doc in docs for s in doc.segments)),
        ("formula_segments", sum(len(doc.formula_segments()) for doc in docs)),
        # Text segments have no identifiers, so every segment can be summed.
        ("identifier_occurrences",
         sum(len(s.identifiers) for doc in docs for s in doc.segments)),
        ("documents_with_gold",
         sum(doc.gold is not None and not doc.gold.is_empty() for doc in docs)),
    ]


_RECORD_KEYS = frozenset({"id", "arxiv", "msc", "segments", "gold"})
_SEGMENT_KEYS = frozenset({"kind", "content", "fid"})
_GOLD_SECTIONS = ("concept_relevance", "entity_relevance", "entity_targets", "identifier_names")
_GOLD_KEYS = frozenset(_GOLD_SECTIONS)
_TARGET_KEYS = frozenset({"title", "qid"})


def _check_cell(text: str, what: str, line: int | None) -> None:
    """A ParseError when ``text``, which a stage writes as a table cell, holds
    a tab, CR or LF."""
    if _CELL_BREAK_RE.search(text) is not None:
        raise ParseError(f"{what} {text!r} holds a tab or line break", line)


def _one_key_per_ngram(keys, what: str, line: int | None) -> None:
    """A ParseError when two of ``keys`` normalize to one n-gram, whose
    judgments would collapse into one."""
    seen: dict[str, str] = {}
    for key in keys:
        first = seen.setdefault(normalize_surface(key), key)
        if first is not key:
            raise ParseError(f"{what} {first!r} and {key!r} name one n-gram "
                             f"{normalize_surface(key)!r}", line)


def _parse_gold(raw: dict, line: int | None) -> GoldAnnotations:
    """Gold annotations; a mistyped value (a boolean is no number) is a ParseError,
    as are a name or judged n-gram that holds a tab or line break and two keys
    of one table that name one n-gram."""
    if not isinstance(raw, dict):
        raise ParseError("gold must be an object", line)
    if not raw.keys() <= _GOLD_KEYS:
        raise ParseError(f"unknown gold keys: {sorted(raw.keys() - _GOLD_KEYS)}", line)
    for key in _GOLD_SECTIONS:
        if not isinstance(raw.get(key, {}), dict):
            raise ParseError(f"gold {key} must be an object", line)
    gold = GoldAnnotations()
    for fid, names in raw.get("identifier_names", {}).items():
        if not isinstance(names, dict):
            raise ParseError("identifier names must be an object", line)
        for name in names.values():
            _check_cell(str(name), "identifier name", line)
        gold.identifier_names[str(fid)] = {str(k): str(v) for k, v in names.items()}
    for ngram, rel in raw.get("entity_relevance", {}).items():
        if type(rel) not in (int, float) or rel not in (0, 0.5, 1):
            raise ParseError(f"entity relevance must be 0, 0.5 or 1, got {rel!r}", line)
        _check_cell(ngram, "judged n-gram", line)
        gold.entity_relevance[str(ngram)] = float(rel)
    _one_key_per_ngram(gold.entity_relevance, "gold entity_relevance keys", line)
    for ngram, target in raw.get("entity_targets", {}).items():
        if not isinstance(target, dict):
            raise ParseError("entity target must be an object", line)
        if not target.keys() <= _TARGET_KEYS:
            raise ParseError(f"unknown entity target keys: {sorted(target.keys() - _TARGET_KEYS)}",
                             line)
        gold.entity_targets[str(ngram)] = {str(k): str(v) for k, v in target.items()}
    _one_key_per_ngram(gold.entity_targets, "gold entity_targets keys", line)
    for fid, phrases in raw.get("concept_relevance", {}).items():
        if not isinstance(phrases, dict):
            raise ParseError("concept scores must be an object", line)
        scores = {}
        for phrase, score in phrases.items():
            if type(score) not in (int, float) or score not in (0, 1, 2):
                raise ParseError(f"concept score must be 0, 1 or 2, got {score!r}", line)
            scores[str(phrase)] = int(score)
        _one_key_per_ngram(scores, f"gold concept_relevance phrases of {fid!r}:", line)
        gold.concept_relevance[str(fid)] = scores
    return gold


def record_to_document(record: dict, line: int | None = None,
                       parsed: dict[str, tuple[str, ...]] | None = None) -> Document:
    """Build a Document from one parsed JSON record, validating fields.

    Its segments share the markup map ``parsed`` (see ``Segment``);
    ``parse_corpus_text`` passes one map for a whole load.  The checks run
    in a fixed order, and each error message is built only when its check
    fails.  A formula id (``formula_id``: the explicit ``fid`` or the
    positional ``seg<i>``) names one formula of the record.  The id, each
    ``fid``, gold names and judged n-grams and each identifier symbol are
    written to tables as they are, so none may hold a tab, CR or LF.
    """
    parsed = {} if parsed is None else parsed
    if not isinstance(record, dict):
        raise ParseError("record must be an object", line)
    if not record.keys() <= _RECORD_KEYS:
        raise ParseError(f"unknown record keys: {sorted(record.keys() - _RECORD_KEYS)}", line)
    for key in ("id", "arxiv", "msc", "segments"):
        if key not in record:
            raise ParseError(f"missing required field {key!r}", line)
    doc_id = record["id"]
    if not isinstance(doc_id, str) or doc_id == "":
        raise ParseError("id must be a non-empty string", line)
    _check_cell(doc_id, "id", line)
    arxiv = record["arxiv"]
    msc = record["msc"]
    if not isinstance(arxiv, list):
        raise ParseError("arxiv must be an array", line)
    if not isinstance(msc, list):
        raise ParseError("msc must be an array", line)
    for code in arxiv:
        if not isinstance(code, str) or _ARXIV_RE.match(code) is None:
            raise ParseError(f"bad arxiv category {code!r}", line)
    for code in msc:
        if not isinstance(code, str) or _MSC_RE.match(code) is None:
            raise ParseError(f"bad msc code {code!r}", line)
    segments = []
    fids_seen = set()
    if not isinstance(record["segments"], list):
        raise ParseError("segments must be an array", line)
    for index, raw in enumerate(record["segments"]):
        if not isinstance(raw, dict):
            raise ParseError("segment must be an object", line)
        if not raw.keys() <= _SEGMENT_KEYS:
            raise ParseError(f"unknown segment keys: {sorted(raw.keys() - _SEGMENT_KEYS)}", line)
        kind = raw.get("kind")
        if kind not in (TEXT, FORMULA):
            raise ParseError(f"segment kind must be text or formula, got {kind!r}", line)
        content = raw.get("content")
        if not isinstance(content, str):
            raise ParseError("segment content must be a string", line)
        fid = raw.get("fid")
        if fid is not None:
            if kind != FORMULA:
                raise ParseError("fid is only valid on formula segments", line)
            if not isinstance(fid, str) or fid == "":
                raise ParseError("fid must be a non-empty string", line)
            _check_cell(fid, "fid", line)
        if kind == FORMULA:
            effective = formula_id(fid, index)
            if effective in fids_seen:
                raise ParseError(f"duplicate formula id {effective!r}", line)
            fids_seen.add(effective)
        try:
            segments.append(Segment(kind, content, fid, parsed))
        except ParseError as exc:
            raise ParseError(f"in document {doc_id!r}: {exc}", line) from exc
    gold = None
    if "gold" in record and record["gold"] is not None:
        gold = _parse_gold(record["gold"], line)
    return Document(doc_id, segments, list(arxiv), list(msc), gold)


def document_to_record(doc: Document) -> dict:
    record = {
        "id": doc.doc_id,
        "arxiv": list(doc.arxiv_categories),
        "msc": list(doc.msc_codes),
        "segments": [],
    }
    for segment in doc.segments:
        raw = {"kind": segment.kind, "content": segment.content}
        if segment.fid is not None:
            raw["fid"] = segment.fid
        record["segments"].append(raw)
    if doc.gold is not None and not doc.gold.is_empty():
        gold = {}
        if doc.gold.identifier_names:
            gold["identifier_names"] = doc.gold.identifier_names
        if doc.gold.entity_relevance:
            gold["entity_relevance"] = doc.gold.entity_relevance
        if doc.gold.entity_targets:
            gold["entity_targets"] = doc.gold.entity_targets
        if doc.gold.concept_relevance:
            gold["concept_relevance"] = doc.gold.concept_relevance
        record["gold"] = gold
    return record


def parse_corpus_text(text: str) -> list[Document]:
    """Documents of corpus text, one JSON record per ``"\\n"``-separated line.

    Only ``"\\n"`` separates records: a JSON string may hold U+2028, U+2029
    or U+0085 unescaped, which ``str.splitlines`` would also break at.
    ``load_corpus`` reads with universal newlines, so ``"\\r\\n"`` and a lone
    ``"\\r"`` in a file arrive here as ``"\\n"``.

    Each distinct formula markup is parsed once per call, at its first
    occurrence, so the first malformed formula in file order raises.
    """
    documents = []
    seen_ids = set()
    parsed: dict[str, tuple[str, ...]] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        doc = record_to_document(record, line_no, parsed)
        if doc.doc_id in seen_ids:
            raise ParseError(f"duplicate document id {doc.doc_id!r}", line_no)
        seen_ids.add(doc.doc_id)
        documents.append(doc)
    return documents


def load_corpus(path: str) -> list[Document]:
    """Load a corpus file; raises ParseError on bad input."""
    return parse_corpus_text(read_utf8(path))


def tsv_fields(path: str, n_fields: int):
    """The ``n_fields`` tab-separated fields of every non-blank line of a UTF-8 file.

    The file is read whole and split on newlines only, so line numbers
    are those of iterating over the file.  Empty and whitespace-only
    lines are skipped; another field count raises ParseError naming the
    line, as do bytes that are not UTF-8.  A ParseError thrown into the
    generator (``throw``) while it holds a line's fields is raised again
    with that line's number.
    """
    lines = read_utf8(path).split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(f"expected {n_fields} tab-separated fields, got {len(fields)}",
                             line_no)
        try:
            yield fields
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from None


def corpus_to_text(documents: list[Document]) -> str:
    lines = [json.dumps(document_to_record(d), ensure_ascii=False) for d in documents]
    return "".join(line + "\n" for line in lines)


def save_corpus(documents: list[Document], path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(corpus_to_text(documents))


def axis_labels(doc: Document, axis: str) -> list[str]:
    """All labels on the chosen axis ("arxiv" or "msc")."""
    if axis == "arxiv":
        return list(doc.arxiv_categories)
    if axis == "msc":
        return list(doc.msc_codes)
    raise ValidationError(f"unknown label axis {axis!r}")


def primary_label(doc: Document, axis: str) -> str | None:
    """First label on the chosen axis, if any."""
    labels = axis_labels(doc, axis)
    return labels[0] if labels else None


def labeled_documents(documents: list[Document], class_axis: str) -> tuple[list[Document], list[str], int]:
    """Documents with a primary label on the axis, their labels, and the
    number of unlabeled documents skipped; none labeled is a ValidationError."""
    kept, labels = [], []
    for doc in documents:
        label = primary_label(doc, class_axis)
        if label is not None:
            kept.append(doc)
            labels.append(label)
    if not kept:
        raise ValidationError(f"no document carries a label on axis {class_axis!r}")
    return kept, labels, len(documents) - len(kept)
