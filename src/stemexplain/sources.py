"""Symbol-name sources, concept-phrase maps, and the math-entity streams built from them.

A symbol-name source ranks candidate names for identifier symbols by
frequency; a concept map assigns concept phrases to the class they are
characteristic of.  A document's math-entity stream is the tokens of the
top-ranked names of its symbols plus the concept phrases found in its
text.  The experiments of ``augment`` and the rankings of ``explain`` both
read these; only ``augment`` trains models, so ``explain`` loads this
module without the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import Document, tsv_fields
from .encode import PhraseIndex, phrase_hits
from .errors import ParseError
from .tokenizer import tokenize


@dataclass(frozen=True)
class SymbolNameSource:
    """Ranked candidate names per identifier symbol.

    Rankings are sorted by descending frequency with lexicographic
    tie-breaks, so the top-k prefix is deterministic.  ``name_tokens``
    holds the tokens of each symbol's names in ranking order: a source
    tokenizes its names once, when it is made.
    """

    name: str
    rankings: dict[str, tuple[tuple[str, float], ...]]
    name_tokens: dict[str, tuple[list[str], ...]] = field(init=False, repr=False,
                                                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name_tokens", {
            symbol: tuple(tokenize(name) for name, _ in ranking)
            for symbol, ranking in self.rankings.items()})

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
    # Text segments have no identifiers.
    return list(dict.fromkeys(symbol for segment in doc.segments
                              for symbol in segment.identifiers))


def _name_tokens(doc: Document, source: SymbolNameSource, top_k: int) -> list[str]:
    """The tokens of the top_k candidate names of each distinct symbol, in order."""
    return [token for symbol in distinct_symbols(doc)
            for tokens in source.name_tokens.get(symbol, ())[:top_k] for token in tokens]


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
