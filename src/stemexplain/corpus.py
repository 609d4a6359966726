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

Each document's input work is done once per process.  A formula segment
parses its markup when it is made (loading a corpus validates every
formula that way) and keeps the identifier symbols, so
``document_identifiers`` never parses again.  One corpus load parses each
distinct markup once: formula segments with equal markup share the
symbols of the first, kept in a map that lives only as long as the load.

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
from .tokenizer import tokenize

TEXT = "text"
FORMULA = "formula"

_ARXIV_RE = re.compile(r"^[A-Za-z0-9-]+(\.[A-Za-z0-9-]+)?$")
_MSC_RE = re.compile(r"^[0-9]{2}[A-Za-z-][0-9]{2}$")

# No dataclasses here: importing them loads inspect, ast and dis (about 10 ms
# per process), and the ingest stage loads no other module that needs them.


class Segment(namedtuple("Segment", ("kind", "content", "fid", "identifiers"))):
    """One stretch of a document: prose text or formula markup.

    A formula segment parses its markup once, when it is made, and keeps
    the identifier symbols in document order; malformed markup raises
    ParseError.  ``identifiers`` is empty for text segments.  Segments
    are immutable and compare by value.
    """

    __slots__ = ()

    def __new__(cls, kind: str, content: str, fid: str | None = None) -> Segment:
        identifiers = tuple(extract_identifiers(content)) if kind == FORMULA else ()
        return super().__new__(cls, kind, content, fid, identifiers)


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
                out.append((segment.fid or f"seg{index}", segment))
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
                    positions.append((segment.fid or f"seg{index}", len(tokens)))
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


def _require(condition: bool, message: str, line: int | None):
    if not condition:
        raise ParseError(message, line)


def _parse_gold(raw: dict, line: int | None) -> GoldAnnotations:
    """Gold annotations; a mistyped value (a boolean is no number) is a ParseError."""
    _require(isinstance(raw, dict), "gold must be an object", line)
    known = {"identifier_names", "entity_relevance", "entity_targets", "concept_relevance"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown gold keys: {sorted(unknown)}", line)
    for key in sorted(known):
        _require(isinstance(raw.get(key, {}), dict), f"gold {key} must be an object", line)
    gold = GoldAnnotations()
    for fid, names in raw.get("identifier_names", {}).items():
        _require(isinstance(names, dict), "identifier names must be an object", line)
        gold.identifier_names[str(fid)] = {str(k): str(v) for k, v in names.items()}
    for ngram, rel in raw.get("entity_relevance", {}).items():
        _require(type(rel) in (int, float) and rel in (0, 0.5, 1),
                 f"entity relevance must be 0, 0.5 or 1, got {rel!r}", line)
        gold.entity_relevance[str(ngram)] = float(rel)
    for ngram, target in raw.get("entity_targets", {}).items():
        _require(isinstance(target, dict), "entity target must be an object", line)
        unknown = set(target) - {"title", "qid"}
        _require(not unknown, f"unknown entity target keys: {sorted(unknown)}", line)
        gold.entity_targets[str(ngram)] = {str(k): str(v) for k, v in target.items()}
    for fid, phrases in raw.get("concept_relevance", {}).items():
        _require(isinstance(phrases, dict), "concept scores must be an object", line)
        scores = {}
        for phrase, score in phrases.items():
            _require(type(score) in (int, float) and score in (0, 1, 2),
                     f"concept score must be 0, 1 or 2, got {score!r}", line)
            scores[str(phrase)] = int(score)
        gold.concept_relevance[str(fid)] = scores
    return gold


def record_to_document(record: dict, line: int | None = None,
                       parsed: dict[str, tuple[str, ...]] | None = None) -> Document:
    """Build a Document from one parsed JSON record, validating fields.

    ``parsed`` maps formula markup to its identifier symbols.  A markup it
    holds is not parsed again, and each markup parsed here is added to it;
    ``parse_corpus_text`` passes one map for a whole load.
    """
    if parsed is None:
        parsed = {}
    _require(isinstance(record, dict), "record must be an object", line)
    known = {"id", "arxiv", "msc", "segments", "gold"}
    unknown = set(record) - known
    _require(not unknown, f"unknown record keys: {sorted(unknown)}", line)
    for key in ("id", "arxiv", "msc", "segments"):
        _require(key in record, f"missing required field {key!r}", line)
    doc_id = record["id"]
    _require(isinstance(doc_id, str) and doc_id != "", "id must be a non-empty string", line)
    arxiv = record["arxiv"]
    msc = record["msc"]
    _require(isinstance(arxiv, list), "arxiv must be an array", line)
    _require(isinstance(msc, list), "msc must be an array", line)
    for code in arxiv:
        _require(isinstance(code, str) and _ARXIV_RE.match(code) is not None,
                 f"bad arxiv category {code!r}", line)
    for code in msc:
        _require(isinstance(code, str) and _MSC_RE.match(code) is not None,
                 f"bad msc code {code!r}", line)
    segments = []
    fids_seen = set()
    _require(isinstance(record["segments"], list), "segments must be an array", line)
    for raw in record["segments"]:
        _require(isinstance(raw, dict), "segment must be an object", line)
        unknown = set(raw) - {"kind", "content", "fid"}
        _require(not unknown, f"unknown segment keys: {sorted(unknown)}", line)
        kind = raw.get("kind")
        _require(kind in (TEXT, FORMULA), f"segment kind must be text or formula, got {kind!r}", line)
        content = raw.get("content")
        _require(isinstance(content, str), "segment content must be a string", line)
        fid = raw.get("fid")
        _require(fid is None or kind == FORMULA, "fid is only valid on formula segments", line)
        if fid is not None:
            _require(isinstance(fid, str) and fid != "", "fid must be a non-empty string", line)
            _require(fid not in fids_seen, f"duplicate formula id {fid!r}", line)
            fids_seen.add(fid)
        identifiers = parsed.get(content) if kind == FORMULA else ()
        if identifiers is None:
            try:
                identifiers = parsed[content] = tuple(extract_identifiers(content))
            except ParseError as exc:
                raise ParseError(f"in document {doc_id!r}: {exc}", line) from exc
        # ``_make`` skips ``Segment.__new__``, which would parse the markup again.
        segments.append(Segment._make((kind, content, fid, identifiers)))
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
            raise ValidationError(f"duplicate document id {doc.doc_id!r} at line {line_no}")
        seen_ids.add(doc.doc_id)
        documents.append(doc)
    return documents


def load_corpus(path: str) -> list[Document]:
    """Load a corpus file; raises ParseError/ValidationError on bad input."""
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


def primary_label(doc: Document, axis: str) -> str | None:
    """First label on the chosen axis ("arxiv" or "msc"), if any."""
    if axis == "arxiv":
        labels = doc.arxiv_categories
    elif axis == "msc":
        labels = doc.msc_codes
    else:
        raise ValidationError(f"unknown label axis {axis!r}")
    return labels[0] if labels else None


def axis_labels(doc: Document, axis: str) -> list[str]:
    """All labels on the chosen axis."""
    if axis == "arxiv":
        return list(doc.arxiv_categories)
    if axis == "msc":
        return list(doc.msc_codes)
    raise ValidationError(f"unknown label axis {axis!r}")
