"""``evaluate_linking`` against the reference scorer of ``tests/oracles.py``.

Hypothesis generates one gold document and a list of links: gold n-grams
judged 0, 1/2 or 1, some of them stopword-only or sharing tokens, targets
with a title, a qid, both or neither, and links of the three gazetteer
sources in both variants, each carrying a title, an item id or both.  The
library, which indexes the links once, must give the reference's counts,
assignments (in gold order) and tuple count, or raise the same error.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemexplain.corpus import GoldAnnotations
from stemexplain.errors import ValidationError
from stemexplain.linker import DEFAULT_EVAL_MODES, EntityLink, EvalMode, evaluate_linking

from . import oracles

# "the", "of" and "a" are stopwords; the other words overlap across n-grams.
WORDS = ("wave", "function", "energy", "level", "the", "of", "a")
SOURCES = ("wikidump", "item-name", "sparql-export")
TITLES = ("Wave_function", "wave function", "Energy level", "energy_level", "Other")
QIDS = ("Q1", "Q2", "Q30")
RELEVANCES = (0.0, 0.5, 1.0)


def _raw_key(draw, ngram: str) -> str:
    """``ngram`` as gold may spell it: as it is, capitalized, or with underscores."""
    return draw(st.sampled_from([ngram, ngram.title(), ngram.replace(" ", "_")]))


@st.composite
def gold_and_links(draw):
    ngrams = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)
                           .map(" ".join), min_size=1, max_size=6, unique=True))
    gold = GoldAnnotations()
    for ngram in ngrams:
        gold.entity_relevance[_raw_key(draw, ngram)] = draw(st.sampled_from(RELEVANCES))
        target = {}
        if draw(st.booleans()):
            target["title"] = draw(st.sampled_from(TITLES))
        if draw(st.booleans()):
            target["qid"] = draw(st.sampled_from(QIDS))
        if target or draw(st.booleans()):
            gold.entity_targets[_raw_key(draw, ngram)] = target
    links = []
    for start in range(draw(st.integers(0, 12))):
        surface = draw(st.sampled_from(ngrams))
        lemmatized = draw(st.booleans())
        kind = draw(st.sampled_from(["title", "item", "both"]))
        title = None if kind == "item" else draw(st.sampled_from(TITLES))
        item = None if kind == "title" else draw(st.sampled_from(QIDS))
        form = draw(st.sampled_from([surface, surface.replace("wave", "waf")]))
        links.append(EntityLink("d1", start, len(surface.split(" ")), surface, form, title,
                                item, draw(st.sampled_from(SOURCES)), lemmatized))
    return gold, links


def _report(evaluate, links, gold, modes):
    try:
        report = evaluate(links, gold, modes)
    except ValidationError as exc:
        return str(exc)
    return (report.counts, report.n_tuples,
            {mode: {variant: list(marks.items()) for variant, marks in by_variant.items()}
             for mode, by_variant in report.assignments.items()})


def _link(surface, source="wikidump", title="T", item=None, lemmatized=False):
    return EntityLink("d1", 0, len(surface.split(" ")), surface, surface, title, item, source,
                      lemmatized)


HALF = GoldAnnotations(entity_relevance={"wave function": 0.5, "the energy": 0.5, "of a": 0.5,
                                         "level": 0.0})


@given(gold_and_links())
@example((HALF, [_link("wave"), _link("energy", source="item-name", title=None, item="Q1")]))
@example((HALF, [_link("level", lemmatized=True), _link("function", title=None, item="Q2")]))
@settings(max_examples=400, deadline=None)
def test_matches_the_reference_scorer(case):
    gold, links = case
    assert _report(evaluate_linking, links, gold, DEFAULT_EVAL_MODES) == \
        _report(oracles.evaluate_linking, links, gold, DEFAULT_EVAL_MODES)


@given(gold_and_links(), st.sampled_from(SOURCES))
@settings(max_examples=100, deadline=None)
def test_unknown_field_and_unjudged_link_raise_as_the_reference(case, source):
    gold, links = case
    modes = DEFAULT_EVAL_MODES + (EvalMode("evalX", source, "uri"),)
    assert _report(evaluate_linking, links, gold, modes) == \
        _report(oracles.evaluate_linking, links, gold, modes)
    unjudged = links + [_link("unjudged n gram", source=source)]
    assert _report(evaluate_linking, unjudged, gold, DEFAULT_EVAL_MODES) == \
        _report(oracles.evaluate_linking, unjudged, gold, DEFAULT_EVAL_MODES) == \
        "no gold relevance for linked n-gram 'unjudged n gram'"
