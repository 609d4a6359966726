"""Math-aware document augmentation and feature ablation experiments.

Augmentation appends, for each distinct symbol of a document, the tokens
of its ``top_k`` candidate names in a symbol-name source to the text
token stream.  Ablation composes token streams from text tokens and a
designated math token set (identifier names and/or concept phrase
tokens) in four modes and measures how classification accuracy reacts.
The sources, concept maps and math-entity streams live in ``sources``;
their names are importable from here too.
"""

from __future__ import annotations

from dataclasses import dataclass

# train_logreg is re-exported: bench/test_bench.py reads it under this
# module's name.
from .classify import (derive_seed, fit_split_model, held_out_accuracy,  # noqa: F401
                       labeled_documents, stratified_split, train_logreg)
from .corpus import Document
from .encode import TokenStream, text_streams
from .errors import ValidationError
# Re-exported: bench/tracing.py spans the two loaders and distinct_symbols
# under this module's name, and callers import the sources API from here too.
from .sources import (ConceptCategoryMap, SymbolNameSource, _name_tokens,  # noqa: F401
                      build_math_streams, distinct_symbols, load_concept_map,
                      load_symbol_source)
from .tokenizer import tokenize

# Full-scale reference accuracies for the experiments this module mirrors
# at desk scale; stage metadata only.
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


def symbol_tokens(doc: Document) -> list[str]:
    """One lowercase token per identifier occurrence, in order.

    Each distinct symbol of the document is tokenized once.
    """
    tokens_of = {symbol: tokenize(symbol) for symbol in distinct_symbols(doc)}
    return [token for segment in doc.segments for symbol in segment.identifiers
            for token in tokens_of[symbol]]


def augment_identifiers(doc: Document, source: SymbolNameSource, top_k: int) -> TokenStream:
    """Text tokens plus the top_k candidate-name tokens per distinct symbol.

    Symbols absent from the source contribute nothing.
    """
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    return TokenStream.of(doc.doc_id, doc.text_tokens() + _name_tokens(doc, source, top_k))


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


def _fit_accuracy(streams: list[TokenStream], labels: list[str], train_idx: list[int],
                  test_idx: list[int], **train_kwargs) -> float:
    """Held-out accuracy of a model fitted on ``streams``; the fit's vectors
    and model are garbage once this returns."""
    _, vectors, model = fit_split_model(streams, labels, train_idx, **train_kwargs)
    return held_out_accuracy(model, vectors, labels, train_idx, test_idx)[0]


def run_augmentation_experiment(documents: list[Document], sources: list[SymbolNameSource],
                                top_ks: list[int], seed: int = 0, class_axis: str = "arxiv",
                                test_fraction: float = 0.2, **train_kwargs) -> AugmentationReport:
    """Accuracy per (source, top_k) cell plus three reference baselines.

    All cells share one seeded stratified document split, so their
    accuracies are comparable.  Baselines: text only, identifier symbol
    occurrences only, and text plus symbol occurrences.  The fits run
    one at a time, cells first, and each baseline's streams are built
    only once the cells are done.
    """
    docs, labels, _ = labeled_documents(documents, class_axis)
    train_idx, test_idx = stratified_split(labels, test_fraction, derive_seed(seed, "augment"))

    def accuracy(streams: list[TokenStream]) -> float:
        return _fit_accuracy(streams, labels, train_idx, test_idx, **train_kwargs)

    cells = tuple(AugmentationCell(source.name, top_k, accuracy(
                      [augment_identifiers(d, source, top_k) for d in docs]))
                  for source in sources for top_k in top_ks)
    text = text_streams(docs, remove_stopwords=False)
    text_only = accuracy(text)
    symbols = [TokenStream.of(d.doc_id, symbol_tokens(d)) for d in docs]
    both = [TokenStream.of(t.doc_id, t.tokens + s.tokens) for t, s in zip(text, symbols)]
    del text  # the text fit's streams go before the symbols fit
    symbols_only = accuracy(symbols)
    del symbols
    return AugmentationReport(class_axis, text_only, symbols_only, accuracy(both), cells,
                              len(train_idx), len(test_idx))


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

    def volume_and_accuracy(mode: str) -> tuple[int, float]:
        streams = [ablate(d, mode, math_tokens) for d in docs]
        return (sum(len(s.tokens) for s in streams),
                _fit_accuracy(streams, labels, train_idx, test_idx, **train_kwargs))

    # One mode at a time: a mode's streams, vectors and model are garbage
    # before the next mode's streams are built.
    results = [volume_and_accuracy(mode) for mode in ABLATION_MODES]
    text_volume = results[ABLATION_MODES.index(TEXT_MODE)][0]
    rows = tuple(AblationRow(mode, accuracy, volume / text_volume if text_volume else 0.0)
                 for mode, (volume, accuracy) in zip(ABLATION_MODES, results))
    return AblationReport(class_axis, rows, tuple(violations), len(train_idx), len(test_idx))
