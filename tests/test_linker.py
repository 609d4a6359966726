"""Gazetteer lookup, text/formula linking, and confusion-table evaluation."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemexplain.augment import (ConceptCategoryMap, SymbolNameSource, build_math_streams,
                                 concept_coverage_violations)
from stemexplain.cli import main
from stemexplain.corpus import GoldAnnotations, record_to_document
from stemexplain.encode import PhraseIndex, lemmatize, tokenize
from stemexplain.errors import DomainError, ParseError, ValidationError
from stemexplain.linker import (DEFAULT_EVAL_MODES, LEMMATIZED, LINK_COLUMNS,
                                LINK_EVAL_COLUMNS, LINK_TUPLE_COLUMNS, UNLEMMATIZED,
                                CoverageReport, EntityLink, EvalMode, FormulaConceptLink,
                                Gazetteer, evaluate_linking, link_corpus,
                                link_corpus_concepts, link_formula_concepts,
                                link_text_entities, load_gazetteer, mathel_coverage_report,
                                merge_concept_links, normalize_surface)

from . import oracles


def text_doc(content, doc_id="d1"):
    return record_to_document({"id": doc_id, "arxiv": [], "msc": [],
                               "segments": [{"kind": "text", "content": content}]})


class TestNormalizeSurface:
    def test_underscores_and_case(self):
        assert normalize_surface("Wave_function") == "wave function"

    def test_punctuation_dropped(self):
        assert normalize_surface("Navier-Stokes  equations!") == "navier stokes equations"

    def test_already_normal(self):
        assert normalize_surface("wave function") == "wave function"


class TestGazetteer:
    def test_qid_targets_become_item_ids(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Q2362761"),
                                         ("Wave_function", "Wave_function")])
        entry = g.entries["wave function"]
        assert entry.item_id == "Q2362761"
        assert entry.title is None
        assert g.duplicates_dropped == 1  # second spelling collides after normalizing

    def test_title_targets_keep_title(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Wave_function")])
        entry = g.entries["wave function"]
        assert entry.title == "Wave_function"
        assert entry.item_id is None

    def test_first_entry_wins(self):
        g = Gazetteer.from_pairs("src", [("x y", "First"), ("X_y", "Second")])
        assert g.entries["x y"].title == "First"
        assert g.duplicates_dropped == 1

    def test_empty_surface_rejected(self):
        with pytest.raises(ValidationError):
            Gazetteer.from_pairs("src", [("!!!", "Q1")])

    def test_load_file(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("wave function\tQ1\n\nmetric tensor\tMetric_tensor\n",
                        encoding="utf-8")
        g = load_gazetteer(str(path), "disk")
        assert g.source == "disk"
        assert set(g.entries) == {"wave function", "metric tensor"}

    def test_load_names_the_line_of_a_surface_that_normalizes_to_nothing(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("wave\tQ1\n\n---\tQ2\nfunction\tQ3\n", encoding="utf-8")
        with pytest.raises(ParseError) as raised:
            load_gazetteer(str(path), "disk")
        assert raised.value.line == 3
        assert str(raised.value) == "line 3: surface form '---' normalizes to nothing"

    def test_load_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("one field only\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_gazetteer(str(path), "disk")


class TestNgrams:
    def test_all_orders_up_to_max(self):
        grams = oracles.generate_ngrams(["a", "b", "c"], 2)
        assert grams == [(0, ("a",)), (1, ("b",)), (2, ("c",)),
                         (0, ("a", "b")), (1, ("b", "c"))]

    def test_max_n_longer_than_input(self):
        assert oracles.generate_ngrams(["a"], 3) == [(0, ("a",))]

    def test_bad_max_n(self):
        with pytest.raises(ValidationError):
            oracles.generate_ngrams(["a"], 0)

    def test_bad_max_n_rejected_by_both_linkers(self):
        g = Gazetteer.from_pairs("src", [("wave", "Wave")])
        d = record_to_document({"id": "d", "arxiv": [], "msc": [], "segments": [
            {"kind": "text", "content": "the wave"},
            {"kind": "formula", "fid": "f1", "content": "<math><mi>x</mi></math>"}]})
        with pytest.raises(ValidationError, match="max_n"):
            link_text_entities(d, g, max_n=0)
        with pytest.raises(ValidationError, match="max_n"):
            link_formula_concepts(d, g, max_n=0)


class TestLinkText:
    def test_basic_match_records_positions(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Wave_function")])
        links = link_text_entities(text_doc("the wave function spreads"), g)
        assert len(links) == 1
        link = links[0]
        assert (link.start, link.length) == (1, 2)
        assert link.surface == "wave function"
        assert link.match_form == "wave function"
        assert link.source == "src"
        assert link.lemmatized is False

    def test_stopword_only_grams_never_link(self):
        g = Gazetteer.from_pairs("src", [("the", "The")])
        assert link_text_entities(text_doc("the wave"), g) == []

    def test_lemmatized_lookup_keeps_surface(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Wave_function")])
        links = link_text_entities(text_doc("wave functions collapse"), g,
                                   lemmatized=True)
        assert len(links) == 1
        assert links[0].surface == "wave functions"
        assert links[0].match_form == "wave function"
        assert links[0].lemmatized is True

    def test_unlemmatized_misses_inflected_form(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Wave_function")])
        assert link_text_entities(text_doc("wave functions collapse"), g) == []

    def test_max_n_bounds_candidates(self):
        g = Gazetteer.from_pairs("src", [("a b c", "Long")])
        d = text_doc("a b c")
        assert link_text_entities(d, g, max_n=2) == []
        assert len(link_text_entities(d, g, max_n=3)) == 1


# ---------------------------------------------------------------------------
# Evaluation


def make_link(surface, source="wikidump", title=None, item=None,
              lemmatized=False, match_form=None):
    return EntityLink("d1", 0, len(surface.split()), surface,
                      match_form or surface, title, item, source, lemmatized)


MODE1 = (EvalMode("eval1", "wikidump", "name"),)


class TestEvaluateLinking:
    def test_relevant_and_linked_correctly_is_tp(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0},
                               entity_targets={"wave function": {"title": "Wave function"}})
        links = [make_link("wave function", title="Wave_function")]
        report = evaluate_linking(links, gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].tp == 1
        assert report.assignments["eval1"][UNLEMMATIZED]["wave function"] == "TP"

    def test_relevant_linked_to_wrong_target_is_fn(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0},
                               entity_targets={"wave function": {"title": "Wave function"}})
        links = [make_link("wave function", title="Sine_wave")]
        report = evaluate_linking(links, gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].fn == 1

    def test_relevant_unlinked_is_fn(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0})
        report = evaluate_linking([], gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].fn == 1

    def test_missing_gold_target_key_accepts_any_value(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0},
                               entity_targets={"wave function": {"qid": "Q1"}})
        links = [make_link("wave function", title="Anything_at_all")]
        report = evaluate_linking(links, gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].tp == 1

    def test_irrelevant_linked_is_fp_unlinked_is_tn(self):
        gold = GoldAnnotations(entity_relevance={"field": 0.0, "gauge": 0.0})
        links = [make_link("field", title="Field_(physics)")]
        report = evaluate_linking(links, gold, MODE1)
        tally = report.counts["eval1"][UNLEMMATIZED]
        assert (tally.fp, tally.tn) == (1, 1)

    def test_half_relevant_covered_is_excluded(self):
        gold = GoldAnnotations(entity_relevance={"scalar field": 0.5,
                                                 "field": 0.0})
        links = [make_link("field", title="Field_(physics)")]
        report = evaluate_linking(links, gold, MODE1)
        tally = report.counts["eval1"][UNLEMMATIZED]
        assert tally.excluded == 1
        assert report.assignments["eval1"][UNLEMMATIZED]["scalar field"] == "EXCL"

    def test_half_relevant_uncovered_is_fn(self):
        gold = GoldAnnotations(entity_relevance={"scalar field": 0.5})
        report = evaluate_linking([], gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].fn == 1

    def test_field_without_value_does_not_count_as_linked(self):
        # an item-id-only entry has no title, so name/url modes see no link
        gold = GoldAnnotations(entity_relevance={"wave function": 0.0})
        links = [make_link("wave function", item="Q1")]
        report = evaluate_linking(links, gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].tn == 1

    def test_other_source_links_ignored(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 0.0})
        links = [make_link("wave function", source="sparql-export", title="X")]
        report = evaluate_linking(links, gold, MODE1)
        assert report.counts["eval1"][UNLEMMATIZED].tn == 1

    def test_link_without_gold_tuple_rejected(self):
        gold = GoldAnnotations(entity_relevance={"field": 0.0})
        with pytest.raises(ValidationError):
            evaluate_linking([make_link("unjudged thing", title="X")], gold, MODE1)

    def test_counts_partition_the_gold_tuples(self):
        gold = GoldAnnotations(
            entity_relevance={"wave function": 1.0, "field": 0.0,
                              "scalar field": 0.5, "gauge theory": 1.0},
            entity_targets={"wave function": {"title": "Wave function"}})
        links = [make_link("wave function", title="Wave_function"),
                 make_link("field", title="Field_(physics)")]
        report = evaluate_linking(links, gold, DEFAULT_EVAL_MODES)
        assert report.n_tuples == 4
        for mode in DEFAULT_EVAL_MODES:
            for variant in (UNLEMMATIZED, LEMMATIZED):
                tally = report.counts[mode.name][variant]
                assert tally.evaluated() + tally.excluded == 4

    def test_url_field_compares_past_prefix(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0},
                               entity_targets={"wave function": {"title": "Wave function"}})
        links = [make_link("wave function", title="Wave_function")]
        mode = (EvalMode("eval2", "wikidump", "url"),)
        report = evaluate_linking(links, gold, mode)
        assert report.counts["eval2"][UNLEMMATIZED].tp == 1

    def test_qid_field_requires_exact_id(self):
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0},
                               entity_targets={"wave function": {"qid": "Q1"}})
        right = [make_link("wave function", source="item-name", item="Q1")]
        wrong = [make_link("wave function", source="item-name", item="Q2")]
        mode = (EvalMode("eval4", "item-name", "qid"),)
        assert evaluate_linking(right, gold, mode).counts["eval4"][UNLEMMATIZED].tp == 1
        assert evaluate_linking(wrong, gold, mode).counts["eval4"][UNLEMMATIZED].fn == 1

    def test_item_field_falls_back_to_match_form(self):
        # item exports key on the concept name itself, so an id-only hit
        # answers with the matched surface
        gold = GoldAnnotations(entity_relevance={"wave function": 1.0},
                               entity_targets={"wave function": {"title": "Wave function"}})
        links = [make_link("wave function", source="item-name", item="Q1")]
        mode = (EvalMode("eval3", "item-name", "item"),)
        report = evaluate_linking(links, gold, mode)
        assert report.counts["eval3"][UNLEMMATIZED].tp == 1


class TestModeCountsMetrics:
    def test_zero_denominators_give_zero(self):
        from stemexplain.linker import ModeCounts
        empty = ModeCounts()
        assert empty.precision() == 0.0
        assert empty.recall() == 0.0
        assert empty.f1() == 0.0

    def test_known_values(self):
        from stemexplain.linker import ModeCounts
        counts = ModeCounts(tp=3, fp=1, fn=2, tn=4)
        assert counts.precision() == pytest.approx(0.75)
        assert counts.recall() == pytest.approx(0.6)
        assert counts.f1() == pytest.approx(2 * 0.75 * 0.6 / 1.35)


# ---------------------------------------------------------------------------
# Formula-concept linking


def formula_doc(before, after, doc_id="d1"):
    segments = []
    if before:
        segments.append({"kind": "text", "content": before})
    segments.append({"kind": "formula", "fid": "f1",
                     "content": "<math><mi>E</mi></math>"})
    if after:
        segments.append({"kind": "text", "content": after})
    return record_to_document({"id": doc_id, "arxiv": [], "msc": [],
                               "segments": segments})


class TestLinkFormulaConcepts:
    def test_rank_counts_back_from_formula(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Q1")])
        d = formula_doc("the wave function near", "")
        links = link_formula_concepts(d, g, window=10)
        assert len(links) == 1
        # phrase starts at "wave", the third token before the formula
        assert links[0].rank == 3
        assert links[0].formula_id == "f1"

    def test_rank_negative_after_formula(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Q1")])
        d = formula_doc("", "describes the wave function here")
        links = link_formula_concepts(d, g, window=10)
        assert len(links) == 1
        assert links[0].rank == -3  # phrase starts at the third token after

    def test_window_boundary_inclusive_then_exclusive(self):
        g = Gazetteer.from_pairs("src", [("marker", "Q1")])
        pad = " ".join(f"pad{i}" for i in range(9))
        inside = formula_doc(f"marker {pad}", "")
        outside = formula_doc(f"marker pad9 {pad}", "")
        assert [l.rank for l in link_formula_concepts(inside, g, window=10)] == [10]
        assert link_formula_concepts(outside, g, window=10) == []

    def test_window_boundary_after_side(self):
        g = Gazetteer.from_pairs("src", [("marker", "Q1")])
        pad = " ".join(f"pad{i}" for i in range(9))
        inside = formula_doc("", f"{pad} marker")
        outside = formula_doc("", f"{pad} pad9 marker")
        assert [l.rank for l in link_formula_concepts(inside, g, window=10)] == [-10]
        assert link_formula_concepts(outside, g, window=10) == []

    def test_gold_score_attaches_and_zero_clears_rank(self):
        g = Gazetteer.from_pairs("src", [("wave function", "Q1"),
                                         ("noise term", "Q2")])
        d = formula_doc("wave function and noise term", "")
        gold = GoldAnnotations(concept_relevance={
            "f1": {"wave function": 2, "noise term": 0}})
        links = {l.phrase: l for l in link_formula_concepts(d, g, gold=gold)}
        assert links["wave function"].score == 2
        assert links["wave function"].rank is not None
        assert links["noise term"].score == 0
        assert links["noise term"].rank is None

    def test_stopword_only_grams_skipped(self):
        g = Gazetteer.from_pairs("src", [("the", "Q1")])
        assert link_formula_concepts(formula_doc("near the", ""), g) == []

    def test_window_below_one_rejected(self):
        g = Gazetteer.from_pairs("src", [])
        with pytest.raises(ValidationError):
            link_formula_concepts(formula_doc("x", ""), g, window=0)


class TestMergeConceptLinks:
    def link(self, source, title=None, item=None, score=None, rank=2):
        return FormulaConceptLink("d1", "f1", "wave function", 2, score=score, rank=rank,
                                  target_title=title, target_item=item, source=source)

    def test_complementary_targets_merge(self):
        merged = merge_concept_links([self.link("a", title="Wave_function")],
                                     [self.link("b", item="Q1")])
        assert len(merged) == 1
        assert merged[0].target_title == "Wave_function"
        assert merged[0].target_item == "Q1"
        assert merged[0].source == "a+b"

    def test_same_source_not_duplicated_in_tag(self):
        merged = merge_concept_links([self.link("a", title="X")],
                                     [self.link("a", item="Q1")])
        assert merged[0].source == "a"

    def test_distinct_ranks_stay_separate(self):
        merged = merge_concept_links([self.link("a", rank=2)],
                                     [self.link("b", rank=3)])
        assert len(merged) == 2

    def test_first_score_wins_none_filled(self):
        merged = merge_concept_links([self.link("a", score=None)],
                                     [self.link("b", score=1)])
        assert merged[0].score == 1


class TestCoverageReport:
    def test_fractions_over_gold_concepts(self):
        gold = GoldAnnotations(concept_relevance={
            "f1": {"wave function": 2, "missing phrase": 1}})
        links = [FormulaConceptLink("d1", "f1", "wave function", 2, score=2, rank=1,
                                    target_title="Wave_function", target_item=None, source="a")]
        report = mathel_coverage_report(links, gold)
        assert report.n_concepts == 2
        assert report.fraction_name_in_window == 0.5
        assert report.fraction_with_article == 0.5
        assert report.fraction_with_item == 0.0
        assert report.highly_relevant_found == 1

    def test_empty_gold_rejected(self):
        with pytest.raises(DomainError):
            mathel_coverage_report([], GoldAnnotations())


# ---------------------------------------------------------------------------
# The phrase matcher against the per-n-gram reference loops

WORDS = ["the", "of", "a", "is", "wave", "waves", "function", "functions",
         "field", "fields", "matrix", "matrices", "collapse", "beatles",
         "thes", "ands", "does"]
_words = st.sampled_from(WORDS)
_phrases = st.lists(_words, min_size=1, max_size=4).map(" ".join)
# Keys that share prefixes, keys longer than any max_n drawn below, a key
# whose first token is a stopword, and stopword-only keys.  "thes" and
# "ands" lemmatize to stopwords and the stopword "does" to "doe", so the
# stopword rule must look at the tokens, not at their lookup forms.
INDEX_KEYS = ["wave", "wave function", "wave function collapse",
              "wave function collapse of the field matrix", "the beatles", "the of",
              "field", "matrix of the field", "functions", "the", "and", "doe"]
_keys = st.one_of(st.sampled_from(INDEX_KEYS),
                  st.lists(_words, min_size=1, max_size=7).map(" ".join))


@st.composite
def linking_case(draw):
    """A document of text and formula segments, a gazetteer, and formula gold.

    Documents are often shorter than the gazetteer's longest key.
    """
    segments, fids = [], []
    for text in draw(st.lists(st.one_of(st.none(), _phrases), max_size=8)):
        if text is None:
            fids.append(f"f{len(fids)}")
            segments.append({"kind": "formula", "fid": fids[-1],
                             "content": "<math><mi>x</mi></math>"})
        else:
            segments.append({"kind": "text", "content": text})
    doc = record_to_document({"id": "d", "arxiv": [], "msc": [], "segments": segments})
    surfaces = draw(st.lists(_keys, max_size=8))
    # Stretches of the text itself, as written and lemmatized, make hits likely.
    tokens = doc.text_tokens()
    for start, length, lemmas in draw(st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 4), st.booleans()), max_size=6)):
        gram = tokens[start:start + length]
        if gram:
            surfaces.append(" ".join(lemmatize(t) for t in gram) if lemmas else " ".join(gram))
    targets = st.sampled_from(["Q7", "Some_title"])
    gazetteer = Gazetteer.from_pairs("src", [(s, draw(targets)) for s in surfaces])
    scores = st.dictionaries(_keys, st.integers(0, 2), max_size=4)
    gold = GoldAnnotations(concept_relevance={fid: draw(scores) for fid in fids})
    return doc, gazetteer, gold


class TestLinkCorpus:
    """The corpus-level linkers against the per-n-gram reference linkers."""

    GAZETTEERS = {
        "wikidump": Gazetteer.from_pairs("wikidump", [("wave function", "Wave_function"),
                                                      ("metric tensor", "Metric_tensor")]),
        "item-name": Gazetteer.from_pairs("item-name", [("wave function", "Q1")]),
    }

    def corpus(self):
        gold = {"entity_relevance": {"wave function": 1, "the metric": 0},
                "entity_targets": {"wave function": {"title": "Wave_function", "qid": "Q1"}},
                "concept_relevance": {"g-f": {"metric tensor": 2, "wave function": 0}}}
        records = [
            {"id": "a", "segments": [{"kind": "text", "content": "waves of the wave functions"}]},
            {"id": "g", "gold": gold, "segments": [
                {"kind": "text", "content": "the wave function and the"},
                {"kind": "formula", "fid": "g-f", "content": "<math><mi>g</mi></math>"},
                {"kind": "text", "content": "metric tensor"}]},
        ]
        return [record_to_document({"arxiv": [], "msc": [], **r}) for r in records]

    def test_text_links_equal_reference_and_judge_only_gold_ngrams(self):
        docs = self.corpus()
        links, evaluation, tuples = link_corpus(docs, self.GAZETTEERS, max_n=3)
        expected = []
        for doc in docs:
            doc_links = [link for tag in sorted(self.GAZETTEERS) for lemmatized in (False, True)
                         for link in oracles.link_text_entities(doc, self.GAZETTEERS[tag],
                                                                lemmatized=lemmatized)]
            doc_links.sort(key=lambda l: (l.start, -l.length, l.source, l.lemmatized))
            expected += [(l.doc_id, l.start, l.length, l.surface, l.match_form, l.target_title,
                          l.target_item, l.source, l.lemmatized) for l in doc_links]
        assert links == expected
        assert ("a", 3, 2, "wave functions", "wave function", None, "Q1", "item-name",
                True) in links
        # "metric tensor" links in the gold document but is not judged: unjudged, once
        # per variant, under the two wikidump modes.  Only "wave function" (relevance
        # 1) and "the metric" (relevance 0) are evaluated.
        found, missed = (1, 0, 0, 1, 0, 1.0, 1.0, 1.0), (0, 0, 1, 1, 0, 0.0, 0.0, 0.0)
        assert evaluation == [
            (mode.name, variant) + (found if mode.source != "sparql-export" else missed)
            + (int(mode.source == "wikidump"),)
            for variant in (UNLEMMATIZED, LEMMATIZED) for mode in DEFAULT_EVAL_MODES]
        assert tuples == [("g", "the metric", 0.0) + ("TN",) * 12,
                          ("g", "wave function", 1.0) + ("TP",) * 4 + ("FN",) * 2
                          + ("TP",) * 4 + ("FN",) * 2]
        assert {len(LINK_COLUMNS)} == {len(row) for row in links}
        assert {len(LINK_EVAL_COLUMNS)} == {len(row) for row in evaluation}
        assert {len(LINK_TUPLE_COLUMNS)} == {len(row) for row in tuples}

    def test_concept_links_equal_reference_with_gold_coverage(self):
        docs = self.corpus()
        rows, coverage = link_corpus_concepts(docs, self.GAZETTEERS, window=10, max_n=3)
        expected = []
        for doc in docs:
            gold = doc.gold if doc.gold is not None and doc.gold.concept_relevance else None
            links = merge_concept_links(*[oracles.link_formula_concepts(
                doc, self.GAZETTEERS[tag], gold=gold) for tag in sorted(self.GAZETTEERS)])
            links.sort(key=lambda l: (l.formula_id, l.rank is None, -(l.rank or 0),
                                      l.phrase, l.source))
            expected += [(l.doc_id, l.formula_id, l.phrase, l.length, l.score, l.rank,
                          l.target_title, l.target_item, l.source) for l in links]
        assert rows == expected
        assert rows == [("g", "g-f", "metric tensor", 2, 2, -1, "Metric_tensor", None,
                         "wikidump"),
                        ("g", "g-f", "wave function", 2, 0, None, "Wave_function", "Q1",
                         "item-name+wikidump")]
        assert coverage == CoverageReport(2, 1.0, 0.5, 1.0, 1)
        assert link_corpus_concepts(docs[:1], self.GAZETTEERS) == ([], None)


# Two documents whose formulas share an id, each with its own concept gold.
SHARED_FID_RECORDS = [
    {"id": "d1", "gold": {"concept_relevance": {"f1": {"wave function": 2}}}, "segments": [
        {"kind": "text", "content": "the wave function"},
        {"kind": "formula", "fid": "f1", "content": "<math><mi>x</mi></math>"}]},
    {"id": "d2", "gold": {"concept_relevance": {"f1": {"energy level": 1}}}, "segments": [
        {"kind": "text", "content": "the energy level"},
        {"kind": "formula", "fid": "f1", "content": "<math><mi>y</mi></math>"}]},
]
SHARED_FID_GAZETTEER = "wave function\tQ1\nenergy level\tQ2\n"


class TestCoverageAcrossDocuments:
    """A formula id names a formula within its document only."""

    GAZETTEERS = {"g": Gazetteer.from_pairs("g", [("wave function", "Q1"),
                                                  ("energy level", "Q2")])}

    @pytest.mark.parametrize("fid", ["f1", None])  # None: both formulas are seg1
    def test_each_document_keeps_its_gold(self, fid):
        records = [{"arxiv": [], "msc": [], **r} for r in SHARED_FID_RECORDS]
        for record in records:
            if fid is None:
                del record["segments"][1]["fid"]
                record["gold"]["concept_relevance"] = {
                    "seg1": record["gold"]["concept_relevance"]["f1"]}
        docs = [record_to_document(r) for r in records]
        rows, coverage = link_corpus_concepts(docs, self.GAZETTEERS)
        assert [(r.doc_id, r.formula_id, r.phrase) for r in rows] == [
            ("d1", fid or "seg1", "wave function"), ("d2", fid or "seg1", "energy level")]
        assert coverage == CoverageReport(2, 0.0, 1.0, 1.0, 1)
        # one document at a time, the report counts that document's gold alone
        assert mathel_coverage_report(rows[1:], docs[1].gold) == CoverageReport(
            1, 0.0, 1.0, 1.0, 0)

    def test_mathel_stage_writes_corpus_coverage(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"arxiv": [], "msc": [], **r}) + "\n"
                                  for r in SHARED_FID_RECORDS), encoding="utf-8")
        (tmp_path / "g.tsv").write_text(SHARED_FID_GAZETTEER, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "corpus": "corpus.jsonl",
                                      "linker": {"gazetteers": {"g": "g.tsv"}}}),
                          encoding="utf-8")
        out_dir = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["mathel", "-c", str(config), "--out-dir", str(out_dir)]) == 0
        table = (out_dir / "mathel_coverage.tsv").read_text(encoding="utf-8")
        assert table.splitlines() == [
            "metric\tvalue", "gold_concepts\t2", "fraction_with_article\t0",
            "fraction_with_item\t1", "fraction_name_in_window\t1",
            "highly_relevant_found\t1"]


class TestMatcherEquivalence:
    @given(linking_case(), st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_links_equal_reference_loops(self, case, max_n, window):
        doc, gazetteer, gold = case
        tokens = doc.text_tokens()
        lemmas = [lemmatize(t) for t in tokens]
        for lemmatized in (False, True):
            expected = oracles.link_text_entities(doc, gazetteer, max_n=max_n,
                                                  lemmatized=lemmatized)
            assert link_text_entities(doc, gazetteer, max_n=max_n,
                                      lemmatized=lemmatized) == expected
            # As the link stage calls it, with tokens and lemmas computed once.
            assert link_text_entities(doc, gazetteer, max_n=max_n, lemmatized=lemmatized,
                                      tokens=tokens, lemmas=lemmas) == expected
        for formula_gold in (None, gold):
            assert (link_formula_concepts(doc, gazetteer, window=window, max_n=max_n,
                                          gold=formula_gold)
                    == oracles.link_formula_concepts(doc, gazetteer, window=window,
                                                     max_n=max_n, gold=formula_gold))


class TestPhraseIndex:
    def test_index_holds_first_tokens_and_longest_key(self):
        g = Gazetteer.from_pairs("src", [(k, "T") for k in INDEX_KEYS])
        assert g.index == PhraseIndex({"wave", "the", "field", "matrix", "functions", "and",
                                       "doe"}, 7)

    def test_updates_accumulate(self):
        g = Gazetteer.from_pairs("src", [("wave packet spread", "T")])
        g.update([("Field", "Q1"), ("wave packet", "T"), ("Field", "Q2")])
        assert g.index == PhraseIndex({"wave", "field"}, 3)
        assert list(g.entries) == ["wave packet spread", "field", "wave packet"]
        assert g.duplicates_dropped == 1

    def test_one_token_key_is_stored_as_itself(self):
        g = Gazetteer.from_pairs("src", [("wave", "T")])
        (key,) = g.entries
        (first,) = g.index.first_tokens
        assert first is key

    def test_empty_gazetteer_links_nothing(self):
        assert link_text_entities(text_doc("wave function"), Gazetteer("src")) == []


@st.composite
def concept_case(draw):
    """Labeled documents with identifiers, and a concept map over their words."""
    docs = []
    for i, text in enumerate(draw(st.lists(st.lists(_words, max_size=9).map(" ".join),
                                           min_size=1, max_size=6))):
        docs.append(record_to_document({
            "id": f"d{i}", "arxiv": [draw(st.sampled_from(["a.b", "c.d"]))], "msc": [],
            "segments": [{"kind": "text", "content": text},
                         {"kind": "formula", "content": "<math><mi>E</mi></math>"}]}))
    # A phrase that tokenizes to nothing, and a stopword-only phrase.
    phrases = draw(st.lists(_keys, max_size=8)) + ["!!!", "the of", "The-Beatles"]
    labels = st.sampled_from(["a.b", "c.d", "e.f"])
    concept_map = ConceptCategoryMap({phrase: draw(labels) for phrase in phrases})
    return docs, concept_map


class TestConceptPhraseIndex:
    SOURCE = SymbolNameSource.from_counts("s", {"E": {"energy": 2.0, "error": 1.0}})

    @given(concept_case())
    @settings(max_examples=200, deadline=None)
    def test_streams_and_violations_equal_reference_loops(self, case):
        docs, concept_map = case
        for top_k in (1, 2):
            assert (build_math_streams(docs, self.SOURCE, top_k, concept_map)
                    == oracles.build_math_streams(docs, self.SOURCE, top_k, concept_map))
        assert (concept_coverage_violations(docs, concept_map)
                == oracles.concept_coverage_violations(docs, concept_map))

    def test_empty_and_stopword_only_phrases(self):
        d = record_to_document({"id": "d", "arxiv": ["a.b"], "msc": [], "segments": [
            {"kind": "text", "content": "the of wave"}]})
        concept_map = ConceptCategoryMap({"!!!": "a.b", "the of": "a.b", "wave": "a.b"})
        assert concept_map.keys_in(d.text_tokens()) == {"the of", "wave"}
        assert concept_coverage_violations([d], concept_map) == [("!!!", "a.b")]
        assert build_math_streams([d], self.SOURCE, 1, concept_map) == {
            "d": ["the", "of", "wave"]}


# ---------------------------------------------------------------------------
# Loading against the line-by-line reference loader

_surfaces = st.sampled_from(["wave function", "Wave_function", "WAVE  function!",
                             "Émile—Borel", "émile borel", "x_y", "Ünïcode", "ǅemal",
                             "ΣΑΣ", "Q1", "the", "a\u00a0b", "a\x0cb", "a\u2028b",
                             "\u212avin", "kvin", "wave function  ", "a b c d"])
_targets = st.sampled_from(["Q1", "Q42", "Wave_function", "Q", "Q1x", "q7", "Title"])


@st.composite
def gazetteer_file(draw):
    """Gazetteer file bytes: colliding surfaces, blank and CRLF lines, bad lines."""
    lines = []
    kinds = st.sampled_from(["pair"] * 20 + ["blank"] * 4 + ["empty", "three", "one"])
    for kind in draw(st.lists(kinds, max_size=12)):
        if kind == "pair":
            line = f"{draw(_surfaces)}\t{draw(_targets)}"
        elif kind == "empty":  # a surface that normalizes to nothing
            line = f"{draw(st.sampled_from(['!!!', ' ', '_']))}\t{draw(_targets)}"
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\t", " \t ", "\u00a0", "\x0c", "\u3000"]))
        elif kind == "three":
            line = f"{draw(_surfaces)}\t{draw(_targets)}\textra"
        else:
            line = draw(_surfaces)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines).encode("utf-8")


def _load_outcome(load, path):
    """Entries, duplicates and phrase index of a loaded file, or its error.

    The reference loader keeps no index; one is built from its entries.
    """
    try:
        g = load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    index = getattr(g, "index", None)
    if index is None:
        index = PhraseIndex({key.split(" ")[0] for key in g.entries},
                            max((key.count(" ") + 1 for key in g.entries), default=0))
    return g.entries, g.duplicates_dropped, index


class TestLoadGazetteer:
    @given(gazetteer_file())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loader(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gaz.tsv"
            path.write_bytes(data)
            loaded = _load_outcome(lambda p: load_gazetteer(str(p), "src"), path)
            expected = _load_outcome(lambda p: oracles.load_gazetteer(p, "src"), path)
        assert loaded == expected
        if isinstance(loaded[0], dict):
            assert list(loaded[0].items()) == list(expected[0].items())

    def test_errors_carry_reference_line_numbers(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_bytes(b"wave\tQ1\r\n\r\n  \r\nfield\tT\tx\r\n")
        with pytest.raises(ParseError, match="line 4") as raised:
            load_gazetteer(str(path), "src")
        with pytest.raises(ParseError, match="line 4"):
            oracles.load_gazetteer(path, "src")
        assert raised.value.line == 4

    @given(st.one_of(st.text(), st.text(alphabet="ab09 Z_-\u00c9")))
    @settings(max_examples=500, deadline=None)
    def test_normalize_surface_matches_reference(self, text):
        assert normalize_surface(text) == " ".join(tokenize(text.replace("_", " ")))
