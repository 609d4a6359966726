"""Math-aware document augmentation and feature ablation experiments.

A symbol-name source ranks candidate names for identifier symbols by
frequency.  Augmentation appends, for each distinct symbol of a
document, the tokens of its ``top_k`` candidate names to the text
token stream; the same names, plus the concept phrases found in the
text, make up a document's math-entity stream.  Ablation composes
token streams from text tokens and a designated math token set
(identifier names and/or concept phrase tokens) in four modes and
measures how classification accuracy reacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# train_logreg is re-exported: bench/tracing.py patches the trainer under
# this module's name too.
from .classify import (derive_seed, fit_split_model, held_out_accuracy,  # noqa: F401
                       labeled_documents, stratified_split, train_logreg)
from .corpus import Document, document_identifiers, tsv_fields
from .encode import PhraseIndex, TokenStream, phrase_hits, tokenize
from .errors import ParseError, ValidationError

# Full-scale reference accuracies for the experiments this module
# mirrors at desk scale; recorded as report metadata only.
FULL_SCALE_REFERENCE = {
    "text_only": 0.806,
    "text_plus_symbols": 0.230,
    "augmented_top3": {"arxiv": 0.53, "wikipedia": 0.49, "wikidata": 0.51},
    "augmented_top5": {"arxiv": 0.50, "wikipedia": 0.46, "wikidata": 0.49},
    "ablation_accuracy": {"text": 0.73, "math": 0.60, "text_plus_math": 0.60,
                          "text_minus_math": 0.19},
    "ablation_relative_cost": {"text": 1.0, "math": 0.21, "text_plus_math": 0.20,
                               "text_minus_math": 0.04},
}

TEXT_MODE = "Text"
MATH_MODE = "Math"
TEXT_PLUS_MATH = "TextPlusMath"
TEXT_MINUS_MATH = "TextMinusMath"
ABLATION_MODES = (TEXT_MODE, MATH_MODE, TEXT_PLUS_MATH, TEXT_MINUS_MATH)


@dataclass(frozen=True)
class SymbolNameSource:
    """Ranked candidate names per identifier symbol.

    Rankings are sorted by descending frequency with lexicographic
    tie-breaks, so the top-k prefix is deterministic.
    """

    name: str
    rankings: dict[str, tuple[tuple[str, float], ...]]

    def top_names(self, symbol: str, top_k: int) -> list[str]:
        return [name for name, _ in self.rankings.get(symbol, ())[:top_k]]

    @staticmethod
    def from_counts(name: str, counts: dict[str, dict[str, float]]) -> "SymbolNameSource":
        rankings = {}
        for symbol in sorted(counts):
            ordered = sorted(counts[symbol].items(), key=lambda kv: (-kv[1], kv[0]))
            rankings[symbol] = tuple(ordered)
        return SymbolNameSource(name, rankings)


def load_symbol_source(path: str, name: str) -> SymbolNameSource:
    """Load a ``symbol<TAB>name<TAB>frequency`` file; a frequency must be a finite number."""
    counts: dict[str, dict[str, float]] = {}
    rows = tsv_fields(path, 3)
    for symbol, candidate, frequency in rows:
        try:
            value = float(frequency)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            rows.throw(ParseError(f"bad frequency {frequency!r}"))  # raises, naming the line
        names = counts.setdefault(symbol, {})
        names[candidate] = names.get(candidate, 0.0) + value
    return SymbolNameSource.from_counts(name, counts)


@dataclass(frozen=True)
class ConceptCategoryMap:
    """Concept phrases mapped to the class they are characteristic of.

    ``phrase_tokens`` holds each phrase's tokens, and ``index`` describes
    the phrases' normalized keys (tokens space-joined) for ``keys_in``.
    A phrase that tokenizes to nothing has no key and occurs nowhere.
    """

    phrase_to_class: dict[str, str]
    phrase_tokens: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    keys: frozenset[str] = field(init=False, repr=False, compare=False)
    index: PhraseIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phrase_tokens = {phrase: tokenize(phrase) for phrase in self.phrase_to_class}
        keys = frozenset(" ".join(parts) for parts in phrase_tokens.values() if parts)
        index = PhraseIndex()
        index.update(keys)
        object.__setattr__(self, "phrase_tokens", phrase_tokens)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "index", index)

    def phrases(self) -> list[str]:
        return sorted(self.phrase_to_class)

    def token_set(self) -> frozenset[str]:
        return frozenset(t for parts in self.phrase_tokens.values() for t in parts)

    def keys_in(self, tokens: list[str]) -> set[str]:
        """The keys that occur in ``tokens`` as runs of adjacent tokens.

        Stopwords count like any other token here.
        """
        return {form for _, _, form in phrase_hits(tokens, tokens, self.keys, self.index,
                                                   max(self.index.longest, 1), frozenset())}

    def occurs(self, phrase: str, keys: set[str]) -> bool:
        """Whether ``phrase`` is among the keys ``keys_in`` found."""
        return " ".join(self.phrase_tokens[phrase]) in keys


def load_concept_map(path: str) -> ConceptCategoryMap:
    """Load a ``phrase<TAB>class`` file; a repeated phrase keeps its last class."""
    return ConceptCategoryMap(dict(tsv_fields(path, 2)))


def distinct_symbols(doc: Document) -> list[str]:
    """Distinct identifier symbols in order of first appearance."""
    seen = []
    for occurrence in document_identifiers(doc):
        if occurrence.symbol not in seen:
            seen.append(occurrence.symbol)
    return seen


def symbol_tokens(doc: Document) -> list[str]:
    """One lowercase token per identifier occurrence, in order."""
    tokens = []
    for occurrence in document_identifiers(doc):
        tokens.extend(tokenize(occurrence.symbol))
    return tokens


def _name_tokens(doc: Document, source: SymbolNameSource, top_k: int) -> list[str]:
    """The tokens of the top_k candidate names of each distinct symbol, in order."""
    return [token for symbol in distinct_symbols(doc)
            for name in source.top_names(symbol, top_k) for token in tokenize(name)]


def augment_identifiers(doc: Document, source: SymbolNameSource, top_k: int) -> TokenStream:
    """Text tokens plus the top_k candidate-name tokens per distinct symbol.

    Symbols absent from the source contribute nothing.
    """
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    return TokenStream.of(doc.doc_id, doc.text_tokens() + _name_tokens(doc, source, top_k))


def build_math_streams(docs: list[Document], source: SymbolNameSource, top_k: int,
                       concept_map: ConceptCategoryMap | None) -> dict[str, list[str]]:
    """Math-entity token streams: symbol names plus in-text concept phrases."""
    streams: dict[str, list[str]] = {}
    for doc in docs:
        tokens = _name_tokens(doc, source, top_k)
        if concept_map is not None:
            found = concept_map.keys_in(doc.text_tokens())
            for phrase in concept_map.phrases():
                if concept_map.occurs(phrase, found):
                    tokens.extend(concept_map.phrase_tokens[phrase])
        streams[doc.doc_id] = tokens
    return streams


def ablate(doc: Document, mode: str, math_tokens: frozenset[str]) -> TokenStream:
    """Compose the mode's token stream from text tokens and math tokens.

    Text keeps the text stream; Math keeps only occurrences of math
    tokens; TextPlusMath concatenates both, so its length is exactly
    the sum of the other two; TextMinusMath removes math tokens.
    """
    text = doc.text_tokens()
    math_part = [t for t in text if t in math_tokens]
    if mode == TEXT_MODE:
        tokens = text
    elif mode == MATH_MODE:
        tokens = math_part
    elif mode == TEXT_PLUS_MATH:
        tokens = text + math_part
    elif mode == TEXT_MINUS_MATH:
        tokens = [t for t in text if t not in math_tokens]
    else:
        raise ValidationError(f"unknown ablation mode {mode!r}")
    return TokenStream.of(doc.doc_id, tokens)


# ---------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class AugmentationCell:
    source: str
    top_k: int
    accuracy: float


@dataclass(frozen=True)
class AugmentationReport:
    class_axis: str
    text_only: float
    symbols_only: float
    text_plus_symbols: float
    cells: tuple[AugmentationCell, ...]
    n_train: int
    n_test: int
    reference: dict = field(default_factory=lambda: dict(FULL_SCALE_REFERENCE))


def run_augmentation_experiment(documents: list[Document], sources: list[SymbolNameSource],
                                top_ks: list[int], seed: int = 0, class_axis: str = "arxiv",
                                test_fraction: float = 0.2, **train_kwargs) -> AugmentationReport:
    """Accuracy per (source, top_k) cell plus three reference baselines.

    All cells share one seeded stratified document split, so their
    accuracies are comparable.  Baselines: text only, identifier symbol
    occurrences only, and text plus symbol occurrences.
    """
    docs, labels, _ = labeled_documents(documents, class_axis)
    train_idx, test_idx = stratified_split(labels, test_fraction, derive_seed(seed, "augment"))

    text_streams = [TokenStream.of(d.doc_id, d.text_tokens()) for d in docs]
    symbol_streams = [TokenStream.of(d.doc_id, symbol_tokens(d)) for d in docs]
    both_streams = [TokenStream.of(d.doc_id, t.tokens + s.tokens)
                    for d, t, s in zip(docs, text_streams, symbol_streams)]

    def cell_accuracy(streams):
        _, vectors, model = fit_split_model(streams, labels, train_idx, seed, **train_kwargs)
        return held_out_accuracy(model, vectors, labels, train_idx, test_idx)[0]

    cells = []
    for source in sources:
        for top_k in top_ks:
            augmented = [augment_identifiers(d, source, top_k) for d in docs]
            cells.append(AugmentationCell(source.name, top_k, cell_accuracy(augmented)))
    return AugmentationReport(class_axis, cell_accuracy(text_streams),
                              cell_accuracy(symbol_streams), cell_accuracy(both_streams),
                              tuple(cells), len(train_idx), len(test_idx))


@dataclass(frozen=True)
class AblationRow:
    mode: str
    accuracy: float
    relative_cost: float


@dataclass(frozen=True)
class AblationReport:
    class_axis: str
    rows: tuple[AblationRow, ...]
    coverage_violations: tuple[tuple[str, str], ...]  # (phrase, class) pairs
    n_train: int
    n_test: int
    reference: dict = field(default_factory=lambda: dict(FULL_SCALE_REFERENCE))


def concept_coverage_violations(documents: list[Document], concept_map: ConceptCategoryMap,
                                class_axis: str = "arxiv") -> list[tuple[str, str]]:
    """(phrase, class) pairs where the phrase's own class never contains it.

    Each phrase is checked only against the class the map assigns it to;
    absence from other classes is the expected situation, not a defect.
    """
    docs, labels, _ = labeled_documents(documents, class_axis)
    keys_by_class: dict[str, set[str]] = {}
    for doc, label in zip(docs, labels):
        keys_by_class.setdefault(label, set()).update(concept_map.keys_in(doc.text_tokens()))
    violations = []
    for phrase in concept_map.phrases():
        label = concept_map.phrase_to_class[phrase]
        if not concept_map.occurs(phrase, keys_by_class.get(label, set())):
            violations.append((phrase, label))
    return violations


def run_ablation_experiment(documents: list[Document], concept_map: ConceptCategoryMap,
                            seed: int = 0, class_axis: str = "arxiv",
                            test_fraction: float = 0.2, **train_kwargs) -> AblationReport:
    """Accuracy for the four ablation modes over one shared split.

    The math token set is the union of all concept phrase tokens.  The
    relative cost column is the mode's total token volume divided by
    the Text mode's, a deterministic proxy for runtime.  Concept
    phrases missing from every document of their own class are
    reported as coverage violations rather than failing the run.
    """
    docs, labels, _ = labeled_documents(documents, class_axis)
    math_tokens = concept_map.token_set()
    train_idx, test_idx = stratified_split(labels, test_fraction, derive_seed(seed, "ablate"))
    violations = concept_coverage_violations(documents, concept_map, class_axis)

    rows = []
    text_volume = None
    for mode in ABLATION_MODES:
        streams = [ablate(d, mode, math_tokens) for d in docs]
        volume = sum(len(s.tokens) for s in streams)
        if mode == TEXT_MODE:
            text_volume = volume
        _, vectors, model = fit_split_model(streams, labels, train_idx, seed, **train_kwargs)
        accuracy = held_out_accuracy(model, vectors, labels, train_idx, test_idx)[0]
        cost = volume / text_volume if text_volume else 0.0
        rows.append(AblationRow(mode, accuracy, cost))
    return AblationReport(class_axis, tuple(rows), tuple(violations),
                          len(train_idx), len(test_idx))
