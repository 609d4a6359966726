"""Seeded workload generator for the pipeline benchmark.

Each workload is a synthetic corpus plus the files a full CLI walk needs:
two symbol-name sources, a concept map, two gazetteers and a config.  The
corpus comes from ``synth.generate_synthetic_corpus``; everything else is
built here from the same seed, so one (workload, seed) pair always yields
byte-identical input files.  The program under test only ever sees these
files.

The concept phrase of each class goes into its first two documents only, so
that classification is not trivially perfect.  Gold annotations sit on the
first document of every class:

- the concept phrase is pinned right after the document's first formula and
  judged relevant (score 2) for that formula, so ``mathel_coverage.tsv`` and
  therefore ``report`` exist;
- every n-gram any gazetteer matches in that document gets an entity
  judgment (the planted phrase 1, everything else 0).  ``evaluate_linking``
  requires exactly that; partially judged documents are not exercised here.

Every synthetic token ends in a digit, so the rule-based lemmatizer leaves
it unchanged and the lemmatized link variant matches the same n-grams as the
plain one.  That lets the generator compute the matches, and the expected
outputs, without calling the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from stemexplain import synth
from stemexplain.corpus import FORMULA, TEXT, GoldAnnotations, Segment, save_corpus

CLASSES = ("astro-ph", "cond-mat", "gr-qc", "hep-lat", "hep-ph",
           "hep-th", "math-ph", "nlin", "quant-ph", "physics")
SOURCE_TAGS = ("arxiv", "wikipedia")
GAZETTEER_TAGS = ("item-name", "wikidump")  # item ids / page titles
MAX_N = 3  # linker.max_n of the default config
WINDOW = 10  # linker.window of the default config
PHRASE_DOCS = 2  # documents per class that carry the class's concept phrase


@dataclass(frozen=True)
class Shape:
    """Size and mix of one workload; the seed comes from the command line."""

    classes: int
    docs_per_class: int
    tokens_per_doc: int
    shared_vocab_size: int
    class_vocab_size: int
    class_word_rate: float
    formulas_per_doc: int
    absent_forms: int  # gazetteer surface forms that never occur in the text
    shared_forms: int  # shared words also listed as gazetteer unigrams
    lime_samples: int  # lime.num_samples and explain.num_samples
    explain_budget: int

    @property
    def documents(self) -> int:
        return self.classes * self.docs_per_class


# Each workload is shaped so that one layer does most of the work.
WORKLOADS = {
    # Wide vocabulary, few documents: dense 500-step logistic-regression fits
    # dominate classify/augment/ablate/explain, and the class-word rate keeps
    # test accuracy below 1.0 so the accuracy floor means something.
    "train-wide": Shape(
        classes=10, docs_per_class=13, tokens_per_doc=150,
        shared_vocab_size=1200, class_vocab_size=25, class_word_rate=0.05,
        formulas_per_doc=2, absent_forms=0, shared_forms=0,
        lime_samples=300, explain_budget=5),
    # Long documents and large gazetteers whose forms mostly never occur: text
    # linking over every n-gram and the link tables dominate; fits are cheap.
    "link-long": Shape(
        classes=4, docs_per_class=12, tokens_per_doc=1000,
        shared_vocab_size=400, class_vocab_size=12, class_word_rate=0.3,
        formulas_per_doc=20, absent_forms=20000, shared_forms=40,
        lime_samples=300, explain_budget=5),
    # Many LIME samples over a small vocabulary: lime_explain queries the
    # trained dense weights thousands of times per document, the opposite of
    # how train-wide uses the model.
    "lime-dense": Shape(
        classes=10, docs_per_class=15, tokens_per_doc=150,
        shared_vocab_size=400, class_vocab_size=20, class_word_rate=0.3,
        formulas_per_doc=2, absent_forms=0, shared_forms=0,
        lime_samples=2000, explain_budget=10),
}


@dataclass(frozen=True)
class Workload:
    """Generated input files plus what the output check expects of them."""

    name: str
    seed: int
    shape: Shape
    config: Path
    documents: int
    phrases: tuple[str, ...]  # planted concept phrases, one per class
    pinned: tuple[tuple[str, str, str], ...]  # (doc, formula, phrase) judged 2
    accuracy_floor: float
    ngrams_examined: int  # text n-gram lookups the link stage makes


def synth_config(shape: Shape, seed: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        classes=CLASSES[:shape.classes], docs_per_class=shape.docs_per_class,
        seed=seed, tokens_per_doc=shape.tokens_per_doc,
        class_vocab_size=shape.class_vocab_size,
        shared_vocab_size=shape.shared_vocab_size,
        class_word_rate=shape.class_word_rate,
        shared_symbols=("t", "x", "m", "e", "s", "v", "p", "h"),
        class_symbol_count=1, symbols_per_formula=2,
        formulas_per_doc=shape.formulas_per_doc, msc_fanout=2,
        concept_phrases_per_class=1, concept_occurrences=0)


def accuracy_floor(shape: Shape, test_fraction: float = 0.2) -> float:
    """Lowest acceptable test accuracy, from the planted class-word signal.

    A test document can only be told apart by class words that also
    occurred in its class's training documents.  With rate r, V class
    words per class, L tokens per document and n training documents per
    class, a given class word is seen in training with probability
    s = 1 - (1 - r/V)^(nL), and a test document holds at least one seen
    class word with probability q = 1 - (1 - r*s)^L.  The floor sits
    halfway between chance and q, leaving room for the fixed-step
    optimizer but not for one that stops learning.
    """
    n_train = shape.docs_per_class - int(shape.docs_per_class * test_fraction)
    r, v, length = shape.class_word_rate, shape.class_vocab_size, shape.tokens_per_doc
    seen = 1.0 - (1.0 - r / v) ** (n_train * length)
    identifiable = 1.0 - (1.0 - r * seen) ** length
    chance = 1.0 / shape.classes
    return chance + 0.5 * (identifiable - chance)


def _symbol_sources(config: synth.SynthConfig) -> list:
    """Ranked names per symbol, shaped like ``synth.demo_symbol_sources``."""
    n = len(config.classes)
    sources = []
    for shift, tag in enumerate(SOURCE_TAGS, start=1):
        counts: dict[str, dict[str, float]] = {}
        for class_index in range(n):
            words = synth.class_words(config, class_index)
            noise = synth.class_words(config, (class_index + shift) % n)
            for symbol in synth.class_symbols(config, class_index):
                counts[symbol] = {words[0]: 90.0, words[1]: 80.0, words[2]: 70.0,
                                  noise[0]: 20.0, noise[1]: 10.0}
        for symbol in config.shared_symbols:
            counts[symbol] = {f"{symbol}gloss{r}": float(50 - 10 * r) for r in range(5)}
        sources.append(synth.SymbolNameSource.from_counts(tag, counts))
    return sources


def _targets(class_index: int) -> tuple[str, str]:
    return f"Notion{class_index}p0_theme{class_index}p0", f"Q9{class_index}01"


def _gazetteer_pairs(shape: Shape, config: synth.SynthConfig, rng: random.Random):
    """(surface, title, qid) rows shared by both gazetteers.

    Absent forms use a token family (``absent``/``form``/``kind``) that the
    corpus never contains, so they only cost lookups; the shared forms are
    the ones that produce links besides the planted phrases.
    """
    rows = []
    for class_index in range(shape.classes):
        title, qid = _targets(class_index)
        rows.append((synth.concept_phrases(config, class_index)[0], title, qid))
    for word in rng.sample(synth.shared_words(config), shape.shared_forms):
        rows.append((word, f"Page_{word}", f"Q{5000 + len(rows)}"))
    for k in range(shape.absent_forms):
        n = 1 + k % MAX_N
        surface = " ".join(f"{stem}{k}" for stem in ("absent", "form", "kind")[:n])
        rows.append((surface, f"Page_absent_{k}", f"Q{100000 + k}"))
    return rows


def _matched_ngrams(tokens: list[str], keys: set[str]) -> set[str]:
    matched = set()
    for n in range(1, MAX_N + 1):
        for start in range(len(tokens) - n + 1):
            gram = " ".join(tokens[start:start + n])
            if gram in keys:
                matched.add(gram)
    return matched


def generate(name: str, seed: int, dest: Path, shape: Shape | None = None) -> Workload:
    """Write workload ``name`` for ``seed`` into ``dest`` and describe it."""
    shape = shape or WORKLOADS[name]
    config = synth_config(shape, seed)
    docs = synth.generate_synthetic_corpus(config)
    rng = random.Random(f"{name}/{seed}/gazetteers")
    rows = _gazetteer_pairs(shape, config, rng)
    keys = {surface for surface, _, _ in rows}

    # Concept phrases go only into the first PHRASE_DOCS documents of each
    # class (synth plants none: concept_occurrences=0).  A phrase in every
    # document would make classification trivially perfect.
    phrases, pinned, by_class = [], [], {}
    for doc in docs:
        by_class.setdefault(doc.arxiv_categories[0], []).append(doc)
    for class_index, cls in enumerate(config.classes):
        phrase = synth.concept_phrases(config, class_index)[0]
        phrases.append(phrase)
        for doc in by_class[cls][:PHRASE_DOCS]:
            formula_at = next(i for i, s in enumerate(doc.segments) if s.kind == FORMULA)
            following = doc.segments[formula_at + 1]
            doc.segments[formula_at + 1] = Segment(TEXT, f"{phrase} {following.content}")
        doc = by_class[cls][0]
        title, qid = _targets(class_index)
        gold = doc.gold or GoldAnnotations()
        for gram in sorted(_matched_ngrams(doc.text_tokens(), keys)):
            gold.entity_relevance[gram] = 0.0
        gold.entity_relevance[phrase] = 1.0
        gold.entity_targets[phrase] = {"title": title, "qid": qid}
        fid = doc.formula_ids()[0]
        gold.concept_relevance[fid] = {phrase: 2}
        doc.gold = gold
        pinned.append((doc.doc_id, fid, phrase))

    dest.mkdir(parents=True, exist_ok=True)
    save_corpus(docs, dest / "corpus.jsonl")
    for source in _symbol_sources(config):
        synth.write_symbol_source(source, dest / f"source_{source.name}.tsv")
    concept_map = synth.ConceptCategoryMap(
        {phrase: cls for phrase, cls in zip(phrases, config.classes)})
    synth.write_concept_map(concept_map, dest / "concept_map.tsv")
    for tag in GAZETTEER_TAGS:
        column = 2 if tag == "item-name" else 1
        (dest / f"gazetteer_{tag}.tsv").write_text(
            "".join(f"{row[0]}\t{row[column]}\n" for row in rows), encoding="utf-8")
    run_config = {
        "corpus": "corpus.jsonl",
        "seed": seed,
        "lime": {"num_samples": shape.lime_samples},
        "linker": {"gazetteers": {tag: f"gazetteer_{tag}.tsv" for tag in GAZETTEER_TAGS}},
        "augment": {"sources": {tag: f"source_{tag}.tsv" for tag in SOURCE_TAGS},
                    "concept_map": "concept_map.tsv"},
        "explain": {"source": SOURCE_TAGS[0], "budget": shape.explain_budget,
                    "num_samples": shape.lime_samples},
    }
    config_path = dest / "config.json"
    config_path.write_text(json.dumps(run_config, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    # link_text_entities looks up every n-gram, n = 1..max_n, once per
    # gazetteer and variant (plain, lemmatized).
    ngrams = sum(max(0, len(doc.text_tokens()) - n + 1)
                 for doc in docs for n in range(1, MAX_N + 1))
    return Workload(name, seed, shape, config_path, len(docs), tuple(phrases),
                    tuple(pinned), accuracy_floor(shape),
                    ngrams * len(GAZETTEER_TAGS) * 2)


def describe() -> dict:
    """Every workload's shape, for the recorded baseline."""
    return {name: asdict(shape) | {"documents": shape.documents}
            for name, shape in WORKLOADS.items()}


def warm_up_shape(shape: Shape) -> Shape:
    """A small copy of ``shape`` whose walk takes the first-call costs in a process."""
    return replace(shape, docs_per_class=4, tokens_per_doc=min(shape.tokens_per_doc, 60),
                   absent_forms=min(shape.absent_forms, 200),
                   lime_samples=min(shape.lime_samples, 100))
