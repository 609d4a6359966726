"""Gazetteer-based entity linking for text n-grams and formula concepts.

One matcher, ``encode.phrase_hits``, serves both linkers (and the
concept-phrase checks of ``augment``).  A gazetteer keeps an
``encode.PhraseIndex`` up to date as entries are added: the first tokens
of its keys and the token length of its longest key.  The matcher skips
every start position whose lookup form starts no key, tries n-grams of
length 1..min(max_n, longest key) from the others, and looks each up by
exact match on its space-joined forms.  N-grams made up entirely of
stopwords are never linked.  Hits come out ordered by (length, start),
the order of enumerating all 1-grams, then all 2-grams, and so on.

Text linking runs the matcher over the document's text tokens,
optionally on their lemmas.  Formula-concept linking runs it over a
fixed token window before and after each formula and records a signed
rank: positive distances sit before the formula, negative distances
after.  ``link_corpus`` and ``link_corpus_concepts`` link a whole corpus
against every gazetteer, laying each document out once, and return the
links, which are the rows of the link and mathel tables.

Evaluation compares produced links against gold relevance judgments
per mode, where a mode is a (gazetteer source, target field) pair.
Relevance-1/2 tuples follow a documented special rule: they are
excluded from TP/FP/TN entirely and count as FN only when no link of
the mode covers any non-stopword token of the tuple.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .corpus import Document, GoldAnnotations, tsv_fields
from .encode import STOPWORDS, PhraseIndex, lemmatize, phrase_hits
from .errors import DomainError, ParseError, ValidationError
from .tokenizer import normalize_surface

_QID_RE = re.compile(r"^Q[0-9]+$")


class GazetteerEntry(NamedTuple):
    title: str | None = None
    item_id: str | None = None


@dataclass
class Gazetteer:
    """Normalized surface form -> link target, tagged with its source.

    A target matching ``Q<digits>`` is an item id; anything else is a
    page title (doubling as a URL suffix).  Duplicate surface forms
    keep the first entry; the number dropped is recorded.  Entries are
    written only through ``update``, which keeps ``index`` up to date.
    """

    source: str
    entries: dict[str, GazetteerEntry] = field(default_factory=dict)
    duplicates_dropped: int = 0
    index: PhraseIndex = field(default_factory=PhraseIndex, repr=False)

    @staticmethod
    def from_pairs(source: str, pairs) -> "Gazetteer":
        gazetteer = Gazetteer(source)
        gazetteer.update(pairs)
        return gazetteer

    def update(self, pairs) -> None:
        """Add (surface, target) pairs in order, in one pass.

        A surface that normalizes to nothing raises ValidationError; the
        pairs before it stay added and indexed.
        """
        entries = self.entries
        is_item = _QID_RE.match
        added: list[str] = []
        dropped = 0
        try:
            for surface, target in pairs:
                key = normalize_surface(surface)
                if not key:
                    raise ValidationError(f"surface form {surface!r} normalizes to nothing")
                if key in entries:
                    dropped += 1
                else:
                    entries[key] = (GazetteerEntry(None, target) if is_item(target)
                                    else GazetteerEntry(target))
                    added.append(key)
        finally:
            self.duplicates_dropped += dropped
            self.index.update(added)

    def hits(self, tokens: list[str], forms: list[str],
             max_n: int) -> list[tuple[int, int, str, GazetteerEntry]]:
        """``phrase_hits`` over this gazetteer, each hit with its entry."""
        entries = self.entries
        return [(start, length, form, entries[form]) for start, length, form
                in phrase_hits(tokens, forms, entries, self.index, max_n, STOPWORDS)]


def load_gazetteer(path: str, source: str) -> Gazetteer:
    """Load a ``surface_form<TAB>target`` file; blank lines are skipped.

    The lines of ``corpus.tsv_fields`` go through ``Gazetteer.update`` in
    one pass.  A surface that normalizes to nothing is a ParseError naming
    its line.
    """
    rows = tsv_fields(path, 2)
    try:
        return Gazetteer.from_pairs(source, rows)
    except ValidationError as exc:
        rows.throw(ParseError(str(exc)))  # raises, naming the line


def lemma_forms(tokens: list[str], lemmas: dict[str, str]) -> list[str]:
    """The lemma of each token, lemmatizing each distinct token once.

    ``lemmas`` caches token -> lemma and may be shared across calls.
    """
    forms = []
    for token in tokens:
        lemma = lemmas.get(token)
        if lemma is None:
            lemma = lemmas[token] = lemmatize(token)
        forms.append(lemma)
    return forms


class EntityLink(NamedTuple):
    """A text n-gram matched to a gazetteer target; a row of ``LINK_COLUMNS``."""

    doc_id: str
    start: int
    length: int
    surface: str  # original token n-gram, space-joined
    match_form: str  # the form that hit the gazetteer (lemmatized or not)
    target_title: str | None
    target_item: str | None
    source: str
    lemmatized: bool


LINK_COLUMNS = ("doc", "start", "length", "surface", "match_form", "title", "item",
                "source", "lemmatized")


def link_text_entities(doc: Document, gazetteer: Gazetteer, max_n: int = 3,
                       lemmatized: bool = False, *, tokens: list[str] | None = None,
                       lemmas: list[str] | None = None) -> list[EntityLink]:
    """Exact-match n-grams of the document text against the gazetteer.

    With ``lemmatized`` each token is lemmatized before lookup; the
    link keeps the original surface.  N-grams made up entirely of
    stopwords are never linked.  ``tokens`` (the document's text
    tokens) and ``lemmas`` (their lemmas) may be passed by a caller
    that already has them; otherwise they are computed here.
    """
    if tokens is None:
        tokens = doc.text_tokens()
    if lemmatized:
        forms = lemma_forms(tokens, {}) if lemmas is None else lemmas
    else:
        forms = tokens
    return [EntityLink(doc.doc_id, start, length, " ".join(tokens[start:start + length]),
                       form, entry.title, entry.item_id, gazetteer.source, lemmatized)
            for start, length, form, entry in gazetteer.hits(tokens, forms, max_n)]


# ---------------------------------------------------------------------------
# Evaluation against gold relevance


@dataclass(frozen=True)
class EvalMode:
    """One evaluation view: links of a source judged by one target field."""

    name: str
    source: str
    field: str  # "name" | "url" | "item" | "qid"


DEFAULT_EVAL_MODES = (
    EvalMode("eval1", "wikidump", "name"),
    EvalMode("eval2", "wikidump", "url"),
    EvalMode("eval3", "item-name", "item"),
    EvalMode("eval4", "item-name", "qid"),
    EvalMode("eval5", "sparql-export", "item"),
    EvalMode("eval6", "sparql-export", "qid"),
)

UNLEMMATIZED = "unlemmatized"
LEMMATIZED = "lemmatized"
VARIANTS = (UNLEMMATIZED, LEMMATIZED)


@dataclass
class ModeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    excluded: int = 0

    @staticmethod
    def from_marks(marks) -> "ModeCounts":
        """Tally TP/FP/FN/TN/EXCL marks."""
        tally = Counter(marks)
        return ModeCounts(tally["TP"], tally["FP"], tally["FN"], tally["TN"], tally["EXCL"])

    def evaluated(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    def f1(self) -> float:
        p, r = self.precision(), self.recall()
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class LinkEvalReport:
    """Confusion counts per (mode, variant) plus per-tuple assignments.

    ``assignments[mode][variant][tuple]`` is one of TP, FP, FN, TN, or
    EXCL for skipped relevance-1/2 tuples.  For every mode and variant,
    tp + fp + fn + tn + excluded equals the number of gold tuples.
    """

    counts: dict[str, dict[str, ModeCounts]]
    assignments: dict[str, dict[str, dict[str, str]]]
    n_tuples: int


def _field_value(link: EntityLink, field_name: str) -> str | None:
    """The link's answer under one target field, None when it has none.

    The "item" field falls back to the matched surface form when the
    entry only carries an item id, mirroring item exports whose keys
    are the item names themselves.
    """
    if field_name == "name":
        return link.target_title
    if field_name == "url":
        return f"wiki/{link.target_title}" if link.target_title else None
    if field_name == "item":
        if link.target_title:
            return link.target_title
        return link.match_form if link.target_item else None
    if field_name == "qid":
        return link.target_item
    raise ValidationError(f"unknown eval field {field_name!r}")


def _target_matches(value: str, field_name: str, gold_target: dict[str, str]) -> bool:
    """Compare a link's field value against the gold target.

    Title-like fields compare on normalized surface form; qid compares
    exactly.  A gold target without the relevant key accepts any value.
    """
    if field_name == "qid":
        expected = gold_target.get("qid")
        return expected is None or value == expected
    expected = gold_target.get("title")
    if expected is None:
        return True
    if field_name == "url":
        value = value[len("wiki/"):]
    return normalize_surface(value) == normalize_surface(expected)


def evaluate_linking(links: list[EntityLink], gold: GoldAnnotations,
                     modes: tuple[EvalMode, ...] = DEFAULT_EVAL_MODES) -> LinkEvalReport:
    """Score links against gold relevance, one confusion table per mode.

    Every gold tuple is classified: relevance 1 is TP when a correct
    link exists and FN otherwise (a link to the wrong target counts as
    a miss); relevance 0 is FP when linked, TN when not; relevance 1/2
    is excluded unless no link of the mode covers any non-stopword
    token of the tuple, in which case it is FN.  A link whose surface
    has no gold entry is a validation error.  The links are indexed
    once, by (source, lemmatized) and then by normalized surface.
    """
    tuples = {normalize_surface(k): rel for k, rel in gold.entity_relevance.items()}
    targets = {normalize_surface(k): v for k, v in gold.entity_targets.items()}
    views: dict[tuple[str, bool], dict[str, list[EntityLink]]] = {}
    for link in links:
        ngram = normalize_surface(link.surface)
        if ngram not in tuples:
            raise ValidationError(f"no gold relevance for linked n-gram {link.surface!r}")
        views.setdefault((link.source, link.lemmatized), {}).setdefault(ngram, []).append(link)

    counts = {mode.name: {} for mode in modes}
    assignments = {mode.name: {v: {} for v in VARIANTS} for mode in modes}
    for mode in modes:
        for variant in VARIANTS:
            # Each linked n-gram's answers in the mode's field, in link order.
            answers: dict[str, list[str]] = {}
            for ngram, view in views.get((mode.source, variant == LEMMATIZED), {}).items():
                values = [v for v in (_field_value(l, mode.field) for l in view) if v is not None]
                if values:
                    answers[ngram] = values
            covered = {token for ngram in answers for token in ngram.split(" ")}
            marks = assignments[mode.name][variant]
            for ngram, relevance in tuples.items():
                values = answers.get(ngram, ())
                if relevance == 1.0:
                    gold_target = targets.get(ngram, {})
                    correct = any(_target_matches(v, mode.field, gold_target) for v in values)
                    mark = "TP" if correct else "FN"
                elif relevance == 0.0:
                    mark = "FP" if values else "TN"
                else:
                    content = {t for t in ngram.split(" ") if t not in STOPWORDS}
                    mark = "FN" if covered.isdisjoint(content) else "EXCL"
                marks[ngram] = mark
            counts[mode.name][variant] = ModeCounts.from_marks(marks.values())
    return LinkEvalReport(counts, assignments, len(tuples))


LINK_EVAL_COLUMNS = ("mode", "variant", "tp", "fp", "fn", "tn", "excluded", "precision",
                     "recall", "f1", "unjudged")
LINK_TUPLE_COLUMNS = ("doc", "ngram", "relevance") + tuple(
    f"{mode.name}_{variant}" for variant in VARIANTS for mode in DEFAULT_EVAL_MODES)


def link_corpus(docs: list[Document], gazetteers: dict[str, Gazetteer], max_n: int = 3,
                ) -> tuple[list[EntityLink], list[tuple], list[tuple]]:
    """Link every document's text and score the gold-judged documents.

    Returns the links, rows of ``LINK_COLUMNS`` (a document's links by
    start, longest first, source, lemmatized; None for an empty cell),
    and the rows of ``LINK_EVAL_COLUMNS`` and ``LINK_TUPLE_COLUMNS``.
    Each distinct token is lemmatized once.  Only the links whose surface
    a gold document judges are evaluated; the others count as unjudged.
    """
    link_rows, tuple_rows = [], []
    marks: dict[tuple[str, str], list[str]] = {}
    unjudged: Counter = Counter()  # (source, lemmatized) -> links
    lemma_of: dict[str, str] = {}
    for doc in docs:
        tokens = doc.text_tokens()
        lemmas = lemma_forms(tokens, lemma_of)
        links = []
        for tag in sorted(gazetteers):
            for lemmatized in (False, True):
                links.extend(link_text_entities(doc, gazetteers[tag], max_n=max_n,
                                                lemmatized=lemmatized, tokens=tokens,
                                                lemmas=lemmas))
        links.sort(key=lambda l: (l.start, -l.length, l.source, l.lemmatized))
        link_rows.extend(links)
        if doc.gold is None or not doc.gold.entity_relevance:
            continue
        normalized = {raw: normalize_surface(raw) for raw in doc.gold.entity_relevance}
        judged_forms = set(normalized.values())
        # A link's surface is space-joined tokenizer output, hence already
        # in normalized form.
        judged = [l for l in links if l.surface in judged_forms]
        unjudged.update((l.source, l.lemmatized) for l in links
                        if l.surface not in judged_forms)
        assignments = evaluate_linking(judged, doc.gold).assignments
        for mode in DEFAULT_EVAL_MODES:
            for variant in VARIANTS:
                marks.setdefault((mode.name, variant), []).extend(
                    assignments[mode.name][variant].values())
        for raw, relevance in sorted(doc.gold.entity_relevance.items()):
            tuple_rows.append((doc.doc_id, raw, relevance) + tuple(
                assignments[mode.name][variant][normalized[raw]]
                for variant in VARIANTS for mode in DEFAULT_EVAL_MODES))
    eval_rows = []
    for variant in VARIANTS:
        for mode in DEFAULT_EVAL_MODES:
            counts = ModeCounts.from_marks(marks.get((mode.name, variant), ()))
            eval_rows.append((mode.name, variant, counts.tp, counts.fp, counts.fn, counts.tn,
                              counts.excluded, counts.precision(), counts.recall(),
                              counts.f1(), unjudged[mode.source, variant == LEMMATIZED]))
    return link_rows, eval_rows, tuple_rows


# ---------------------------------------------------------------------------
# Formula-concept linking


class FormulaConceptLink(NamedTuple):
    """A concept phrase found near a formula; a row of ``MATHEL_COLUMNS``.

    ``rank`` is the signed token distance of the phrase start from the
    formula: positive before, negative after.  When a gold score of 0
    is attached the rank is cleared, matching evaluation tables that
    print irrelevant candidates without a position.  The table puts
    ``score`` before ``rank``, so constructors pass both by keyword.
    """

    doc_id: str
    formula_id: str
    phrase: str
    length: int
    score: int | None
    rank: int | None
    target_title: str | None
    target_item: str | None
    source: str


MATHEL_COLUMNS = ("doc", "formula", "phrase", "tokens", "score", "rank", "title", "item",
                  "source")


def link_formula_concepts(doc: Document, gazetteer: Gazetteer, window: int = 10,
                          max_n: int = 3, gold: GoldAnnotations | None = None, *,
                          layout: tuple[list[str], list[tuple[str, int]]] | None = None,
                          ) -> list[FormulaConceptLink]:
    """Match gazetteer phrases within +-window tokens of each formula.

    The window holds at most ``window`` text tokens on each side, so a
    phrase starting at distance ``window`` on the near side is included
    and distance ``window + 1`` is not.  When ``gold`` is given, scores
    come from its formula-concept judgments.  ``layout`` (the document's
    ``token_layout()``) may be passed by a caller that already has it;
    otherwise it is computed here.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    tokens, positions = doc.token_layout() if layout is None else layout
    gold_scores: dict[str, dict[str, int]] = {}
    if gold:
        gold_scores = {fid: {normalize_surface(p): s for p, s in phrases.items()}
                       for fid, phrases in gold.concept_relevance.items()}
    links = []
    for fid, position in positions:
        before = tokens[max(0, position - window):position]
        after = tokens[position:position + window]
        sides = (
            (before, lambda start: len(before) - start),
            (after, lambda start: -(start + 1)),
        )
        for side_tokens, rank_of in sides:
            for start, length, form, entry in gazetteer.hits(side_tokens, side_tokens, max_n):
                rank: int | None = rank_of(start)
                score = gold_scores.get(fid, {}).get(form) if gold else None
                if score == 0:
                    rank = None
                links.append(FormulaConceptLink(
                    doc.doc_id, fid, form, length, score=score, rank=rank,
                    target_title=entry.title, target_item=entry.item_id, source=gazetteer.source))
    return links


def merge_concept_links(*link_lists: list[FormulaConceptLink]) -> list[FormulaConceptLink]:
    """Merge per-gazetteer results on (doc, formula, phrase, rank).

    Titles and item ids complement each other when different gazetteers
    know different halves of the target.
    """
    merged: dict[tuple, FormulaConceptLink] = {}
    for links in link_lists:
        for link in links:
            key = (link.doc_id, link.formula_id, link.phrase, link.rank)
            kept = merged.setdefault(key, link)
            if kept is not link:
                merged[key] = kept._replace(
                    score=kept.score if kept.score is not None else link.score,
                    target_title=kept.target_title or link.target_title,
                    target_item=kept.target_item or link.target_item,
                    source=kept.source if kept.source == link.source
                    else f"{kept.source}+{link.source}")
    return list(merged.values())


@dataclass(frozen=True)
class CoverageReport:
    """Window and knowledge-base coverage over gold formula concepts."""

    n_concepts: int
    fraction_with_article: float
    fraction_with_item: float
    fraction_name_in_window: float
    highly_relevant_found: int


def _coverage_counts(links: list[FormulaConceptLink],
                     gold: GoldAnnotations) -> tuple[int, int, int, int, int]:
    """One document's gold concepts, and those found, with an article, with an
    item and highly relevant among the found; links match on formula and phrase."""
    by_concept: dict[tuple[str, str], list[FormulaConceptLink]] = {}
    for link in links:
        by_concept.setdefault((link.formula_id, link.phrase), []).append(link)
    n = with_article = with_item = found = highly = 0
    for fid, phrases in gold.concept_relevance.items():
        for raw_phrase, score in phrases.items():
            n += 1
            concept_links = by_concept.get((fid, normalize_surface(raw_phrase)))
            if concept_links:
                found += 1
                with_article += any(l.target_title for l in concept_links)
                with_item += any(l.target_item for l in concept_links)
                highly += score == 2
    return n, with_article, with_item, found, highly


def _coverage_report(n: int, with_article: int, with_item: int, found: int,
                     highly: int) -> CoverageReport:
    if not n:
        raise DomainError("coverage undefined without gold formula concepts")
    return CoverageReport(n, with_article / n, with_item / n, found / n, highly)


def mathel_coverage_report(links: list[FormulaConceptLink], gold: GoldAnnotations) -> CoverageReport:
    """Coverage ratios over one document's gold concept set.

    A concept is "found" when any link matches its formula and phrase;
    article/item fractions count concepts whose links carry a title or
    an item id.  Highly relevant counts gold score-2 concepts that were
    found.
    """
    return _coverage_report(*_coverage_counts(links, gold))


def link_corpus_concepts(docs: list[Document], gazetteers: dict[str, Gazetteer],
                         window: int = 10, max_n: int = 3,
                         ) -> tuple[list[FormulaConceptLink], CoverageReport | None]:
    """Link the text around every formula; the links and the gold coverage.

    The links are the rows of ``MATHEL_COLUMNS`` (None for an empty cell):
    a document's links merged across gazetteers, by formula, ranked first,
    rank descending, phrase and source.  The coverage is None without gold.
    Formula ids name formulas within one document only, so each document's
    gold is matched against its own links, and the counts are summed over
    the corpus before each fraction is taken.
    """
    rows, counts = [], []
    for doc in docs:
        gold = doc.gold if doc.gold is not None and doc.gold.concept_relevance else None
        layout = doc.token_layout()
        links = merge_concept_links(*[link_formula_concepts(
            doc, gazetteers[tag], window=window, max_n=max_n, gold=gold, layout=layout)
            for tag in sorted(gazetteers)])
        links.sort(key=lambda l: (l.formula_id, l.rank is None, -(l.rank or 0),
                                  l.phrase, l.source))
        rows.extend(links)
        if gold is not None:
            counts.append(_coverage_counts(links, gold))
    return rows, _coverage_report(*map(sum, zip(*counts))) if counts else None
