"""Synthetic fixture corpora with planted identifier/name structure.

The generator mirrors, at desk scale, the statistical shape the rest of
the toolkit is built to detect: identifier symbols shared across every
class (so their class distributions are broad) with class-pure gold
names (so name distributions are sharp), optional class-exclusive
symbols, fan-out from each arXiv-style class to several MSC codes, and
optional class-characteristic concept phrases planted into the text.

Generation is fully deterministic: the same config, including its seed,
always produces byte-identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .corpus import FORMULA, TEXT, Document, GoldAnnotations, Segment
from .errors import ValidationError

if TYPE_CHECKING:
    from .linker import Gazetteer
    from .sources import ConceptCategoryMap, SymbolNameSource


def __getattr__(name: str):
    # Fixture builders reach the two fixture classes of ``sources`` through
    # this module.  They are looked up on first use, so that the @demo corpus
    # loads neither ``sources`` nor ``encode``.
    if name in ("ConceptCategoryMap", "SymbolNameSource"):
        from . import sources

        return getattr(sources, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SynthConfig:
    classes: tuple[str, ...]
    docs_per_class: int
    seed: int = 0
    tokens_per_doc: int = 60
    class_vocab_size: int = 20
    shared_vocab_size: int = 40
    class_word_rate: float = 0.5
    shared_symbols: tuple[str, ...] = ("t", "x", "m")
    class_symbol_count: int = 0
    symbols_per_formula: int = 2
    formulas_per_doc: int = 2
    msc_fanout: int = 1
    concept_phrases_per_class: int = 0
    concept_occurrences: int = 2
    gold_names: bool = True

    def validate(self):
        if len(self.classes) < 2:
            raise ValidationError(f"need at least 2 classes, got {len(self.classes)}")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("class names must be unique")
        if self.docs_per_class < 2:
            raise ValidationError(f"need at least 2 docs per class, got {self.docs_per_class}")
        if self.tokens_per_doc < 1 or self.shared_vocab_size < 1:
            raise ValidationError("tokens_per_doc and shared_vocab_size must be positive")
        if self.msc_fanout < 1 or self.formulas_per_doc < 0:
            raise ValidationError("msc_fanout must be >= 1 and formulas_per_doc >= 0")


def class_words(config: SynthConfig, class_index: int) -> list[str]:
    return [f"topic{class_index}word{k}" for k in range(config.class_vocab_size)]


def shared_words(config: SynthConfig) -> list[str]:
    return [f"common{k}" for k in range(config.shared_vocab_size)]


def class_symbols(config: SynthConfig, class_index: int) -> list[str]:
    return [f"u{class_index}k{k}" for k in range(config.class_symbol_count)]


def msc_codes(config: SynthConfig, class_index: int) -> list[str]:
    base = 11 + (class_index % 88)
    return [f"{base:02d}A{j + 1:02d}" for j in range(config.msc_fanout)]


def identifier_name(symbol: str, class_index: int) -> str:
    """The class-pure gold name planted for a symbol in one class."""
    return f"{symbol}meaning{class_index}"


def concept_phrases(config: SynthConfig, class_index: int) -> list[str]:
    return [f"notion{class_index}p{p} theme{class_index}p{p}"
            for p in range(config.concept_phrases_per_class)]


def generate_synthetic_corpus(config: SynthConfig) -> list[Document]:
    """Build the corpus described by ``config``; deterministic per seed."""
    config.validate()
    rng = random.Random(config.seed)
    shared = shared_words(config)
    documents = []
    for class_index, cls in enumerate(config.classes):
        vocabulary = class_words(config, class_index)
        own_symbols = class_symbols(config, class_index)
        codes = msc_codes(config, class_index)
        phrases = concept_phrases(config, class_index)
        for j in range(config.docs_per_class):
            doc_id = f"{cls}-{j:03d}"
            tokens = []
            for _ in range(config.tokens_per_doc):
                if vocabulary and rng.random() < config.class_word_rate:
                    tokens.append(rng.choice(vocabulary))
                else:
                    tokens.append(rng.choice(shared))
            for phrase in phrases:
                phrase_tokens = phrase.split(" ")
                for _ in range(config.concept_occurrences):
                    at = rng.randrange(len(tokens) + 1)
                    tokens[at:at] = phrase_tokens

            formula_symbols = []
            for k in range(config.formulas_per_doc):
                picks = rng.sample(config.shared_symbols,
                                   min(config.symbols_per_formula, len(config.shared_symbols)))
                if k == 0:
                    picks = picks + own_symbols
                formula_symbols.append(picks)

            segments = []
            names: dict[str, dict[str, str]] = {}
            n_chunks = config.formulas_per_doc + 1
            chunk = max(1, len(tokens) // n_chunks)
            for k in range(config.formulas_per_doc):
                text = tokens[k * chunk:(k + 1) * chunk]
                segments.append(Segment(TEXT, " ".join(text)))
                fid = f"{doc_id}-f{k}"
                markup = "<mo>=</mo>".join(f"<mi>{s}</mi>" for s in formula_symbols[k])
                segments.append(Segment(FORMULA, markup, fid))
                if config.gold_names:
                    names[fid] = {s: identifier_name(s, class_index) for s in formula_symbols[k]}
            segments.append(Segment(TEXT, " ".join(tokens[config.formulas_per_doc * chunk:])))

            gold = GoldAnnotations(identifier_names=names) if names else None
            documents.append(Document(doc_id, segments, [cls], [rng.choice(codes)], gold))
    return documents


# ---------------------------------------------------------------------------
# The shipped demo corpus and its companion fixture files

DEMO_CLASSES = ("astro-ph", "cond-mat", "gr-qc", "hep-lat", "hep-ph",
                "hep-th", "math-ph", "nlin", "quant-ph", "physics")

DEMO_CONFIG = SynthConfig(
    classes=DEMO_CLASSES,
    docs_per_class=12,
    seed=12,
    tokens_per_doc=60,
    class_vocab_size=12,
    shared_vocab_size=30,
    class_word_rate=0.45,
    shared_symbols=("t", "x", "m", "e", "s", "v", "p", "h"),
    class_symbol_count=1,
    symbols_per_formula=2,
    formulas_per_doc=2,
    msc_fanout=2,
    concept_phrases_per_class=1,
    concept_occurrences=2,
)


def demo_corpus() -> list[Document]:
    """The ten-class demo corpus with gold annotations on one doc per class.

    Shared symbols spread over all ten classes while their gold names
    stay class-pure; one document per class additionally carries gold
    entity relevance and formula-concept judgments over its planted
    concept phrase, enough to drive the linking and coverage reports.
    """
    documents = generate_synthetic_corpus(DEMO_CONFIG)
    per_class_first = {}
    for doc in documents:
        per_class_first.setdefault(doc.arxiv_categories[0], doc)
    for class_index, cls in enumerate(DEMO_CONFIG.classes):
        doc = per_class_first[cls]
        phrase = concept_phrases(DEMO_CONFIG, class_index)[0]
        title, qid = _demo_targets(class_index)
        if doc.gold is None:
            doc.gold = GoldAnnotations()
        doc.gold.entity_relevance[phrase] = 1.0
        doc.gold.entity_relevance["common0 common1"] = 0.0
        doc.gold.entity_targets[phrase] = {"title": title, "qid": qid}
        fid = doc.formula_ids()[0]
        doc.gold.concept_relevance[fid] = {phrase: 2}
        # Pin one occurrence right after the judged formula so the phrase
        # always sits inside the concept-linking window.
        formula_at = next(i for i, s in enumerate(doc.segments) if s.kind == FORMULA)
        following = doc.segments[formula_at + 1]
        doc.segments[formula_at + 1] = Segment(TEXT, f"{phrase} {following.content}")
    return documents


def _demo_targets(class_index: int) -> tuple[str, str]:
    """Article title and item id for one demo phrase.

    The title is the phrase itself in export spelling (underscores,
    capitalized), so title comparisons on normalized surface form hold.
    """
    title = f"Notion{class_index}p0_theme{class_index}p0"
    qid = f"Q9{class_index}01"
    return title, qid


def demo_symbol_sources() -> list[SymbolNameSource]:
    """Three ranked name sources over the demo corpus's symbols.

    Each class symbol ranks its own class's words first and words of
    the next class at ranks 4 and 5, so small top_k values stay clean
    while larger ones pull in misleading names.  Shared symbols rank
    neutral gloss words that appear in no document text.
    """
    from .sources import SymbolNameSource

    config = DEMO_CONFIG
    n = len(config.classes)
    sources = []
    for source_name, noise_shift in (("arxiv", 1), ("wikipedia", 2), ("wikidata", 3)):
        counts: dict[str, dict[str, float]] = {}
        for class_index in range(n):
            words = class_words(config, class_index)
            noise = class_words(config, (class_index + noise_shift) % n)
            for symbol in class_symbols(config, class_index):
                ranking = {words[0]: 90.0, words[1]: 80.0, words[2]: 70.0,
                           noise[0]: 20.0, noise[1]: 10.0}
                counts[symbol] = ranking
        for symbol in config.shared_symbols:
            counts[symbol] = {f"{symbol}gloss{r}": float(50 - 10 * r) for r in range(5)}
        sources.append(SymbolNameSource.from_counts(source_name, counts))
    return sources


def demo_concept_map() -> ConceptCategoryMap:
    from .sources import ConceptCategoryMap

    mapping = {}
    for class_index, cls in enumerate(DEMO_CONFIG.classes):
        for phrase in concept_phrases(DEMO_CONFIG, class_index):
            mapping[phrase] = cls
    return ConceptCategoryMap(mapping)


def demo_gazetteers() -> dict[str, Gazetteer]:
    """One gazetteer per source tag covering the demo concept phrases."""
    from .linker import Gazetteer

    wikidump = []
    item_name = []
    sparql = []
    for class_index in range(len(DEMO_CONFIG.classes)):
        title, qid = _demo_targets(class_index)
        for phrase in concept_phrases(DEMO_CONFIG, class_index):
            wikidump.append((phrase, title))
            item_name.append((phrase, qid))
            sparql.append((phrase, qid))
    return {
        "wikidump": Gazetteer.from_pairs("wikidump", wikidump),
        "item-name": Gazetteer.from_pairs("item-name", item_name),
        "sparql-export": Gazetteer.from_pairs("sparql-export", sparql),
    }


# ---------------------------------------------------------------------------
# Fixture file writers (TSV formats shared with the loaders)


def write_symbol_source(source: SymbolNameSource, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for symbol in sorted(source.rankings):
            for name, frequency in source.rankings[symbol]:
                value = int(frequency) if float(frequency).is_integer() else frequency
                handle.write(f"{symbol}\t{name}\t{value}\n")


def write_concept_map(concept_map: ConceptCategoryMap, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for phrase in concept_map.phrases():
            handle.write(f"{phrase}\t{concept_map.phrase_to_class[phrase]}\n")


def write_gazetteer(gazetteer: Gazetteer, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for surface in sorted(gazetteer.entries):
            entry = gazetteer.entries[surface]
            handle.write(f"{surface}\t{entry.title or entry.item_id}\n")
