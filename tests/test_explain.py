"""Surrogate explanations and entity-ranking entropy summaries."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stemexplain
from stemexplain import classify as classify_mod
from stemexplain import cli
from stemexplain import explain as explain_mod
from stemexplain.cli import SETTINGS
from stemexplain.classify import (LabeledDataset, LogRegModel, derive_seed,
                                  train_logreg)
from stemexplain.corpus import load_corpus, primary_label, record_to_document
from stemexplain.encode import TfIdfModel, TokenStream, fit_tfidf, text_streams, transform
from stemexplain.errors import DomainError, ValidationError
from stemexplain.explain import (CLS_ENT, ENT_CLS, MATH_KIND, MDISC, MFREQ,
                                 REPORT_ROWS, TEXT_KIND, EntityRanking, LimeBuffers,
                                 LimeSettings, TokenMagnitudes, build_entropy_report,
                                 class_entity_entropy, compute_rankings, lime_explain,
                                 rank_entities, run_explain)
from stemexplain.sources import SymbolNameSource, load_concept_map, load_symbol_source

from . import oracles


def fit_two_class():
    """Classifier separating 'wave' docs from 'star' docs."""
    streams = [
        TokenStream.of("a1", ["wave", "packet", "spreads"]),
        TokenStream.of("a2", ["wave", "collapse", "spreads"]),
        TokenStream.of("b1", ["star", "cluster", "spreads"]),
        TokenStream.of("b2", ["star", "formation", "spreads"]),
    ]
    encoder = fit_tfidf(streams)
    data = LabeledDataset([transform(encoder, s) for s in streams],
                          ["quant", "quant", "astro", "astro"],
                          dim=len(encoder.vocabulary))
    return train_logreg(data), encoder


class TestLimeExplain:
    def test_deterministic_per_seed(self):
        model, encoder = fit_two_class()
        tokens = ["wave", "packet", "spreads"]
        a = lime_explain(model, encoder, "d", tokens, "quant", seed=4)
        b = lime_explain(model, encoder, "d", tokens, "quant", seed=4)
        c = lime_explain(model, encoder, "d", tokens, "quant", seed=5)
        assert a == b
        assert a.features != c.features

    def test_discriminative_token_gets_positive_weight(self):
        model, encoder = fit_two_class()
        explanation = lime_explain(model, encoder, "d",
                                   ["wave", "packet", "spreads"], "quant",
                                   num_samples=500, seed=1)
        weights = dict(explanation.features)
        assert weights["wave"] > 0
        assert weights["wave"] > weights["spreads"]
        # the same token argues against the other class
        flipped = lime_explain(model, encoder, "d",
                               ["wave", "packet", "spreads"], "astro",
                               num_samples=500, seed=1)
        assert dict(flipped.features)["wave"] < 0

    def test_features_sorted_by_magnitude(self):
        model, encoder = fit_two_class()
        explanation = lime_explain(model, encoder, "d",
                                   ["wave", "packet", "spreads"], "quant", seed=1)
        magnitudes = [abs(w) for _, w in explanation.features]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_top_k_truncates(self):
        model, encoder = fit_two_class()
        explanation = lime_explain(model, encoder, "d",
                                   ["wave", "packet", "spreads"], "quant",
                                   top_k=2, seed=1)
        assert len(explanation.features) == 2

    def test_out_of_vocabulary_tokens_ignored(self):
        model, encoder = fit_two_class()
        explanation = lime_explain(model, encoder, "d",
                                   ["wave", "unseen", "spreads"], "quant", seed=1)
        assert "unseen" not in dict(explanation.features)

    def test_all_oov_rejected(self):
        model, encoder = fit_two_class()
        with pytest.raises(ValidationError):
            lime_explain(model, encoder, "d", ["unseen", "tokens"], "quant")

    def test_unknown_class_rejected(self):
        model, encoder = fit_two_class()
        with pytest.raises(ValidationError):
            lime_explain(model, encoder, "d", ["wave"], "nuclear")

    def test_bad_sample_count_rejected(self):
        model, encoder = fit_two_class()
        with pytest.raises(ValidationError):
            lime_explain(model, encoder, "d", ["wave"], "quant", num_samples=0)

    def test_default_kernel_width(self):
        model, encoder = fit_two_class()
        explanation = lime_explain(model, encoder, "d",
                                   ["wave", "packet", "spreads"], "quant", seed=1)
        assert explanation.kernel_width == pytest.approx(0.75 * np.sqrt(3))

    def test_fidelity_reasonable_on_near_linear_model(self):
        model, encoder = fit_two_class()
        explanation = lime_explain(model, encoder, "d",
                                   ["wave", "packet", "spreads"], "quant",
                                   num_samples=800, seed=1)
        assert 0.0 < explanation.fidelity <= 1.0


@st.composite
def lime_cases(draw):
    """A random model and encoder over up to 40 terms, a token sequence with
    out-of-vocabulary tokens and repeats, and LIME settings."""
    n_terms = draw(st.integers(1, 40))
    terms = [f"t{i}" for i in range(n_terms)]
    encoder = TfIdfModel({t: i for i, t in enumerate(terms)},
                         draw(st.lists(st.floats(0.1, 5.0), min_size=n_terms,
                                       max_size=n_terms)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_classes = draw(st.integers(2, 4))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    model = LogRegModel([f"c{k}" for k in range(n_classes)],
                        rng.normal(size=(n_classes, n_terms)) * scale,
                        rng.normal(size=n_classes))
    tokens = draw(st.lists(st.sampled_from(terms + ["oov"]), min_size=1, max_size=80)
                  .filter(lambda ts: any(t != "oov" for t in ts)))
    return model, encoder, tokens, draw(st.sampled_from(model.classes))


def _same_explanation(model, encoder, tokens, target, buffers=None, **kwargs):
    """Both implementations give the same explanation, bit for bit, or fail
    together: where the reference's solve raises LinAlgError, the library
    raises DomainError.  ``buffers`` goes to the library only."""
    try:
        expected = oracles.lime_explain(model, encoder, "d", tokens, target, **kwargs)
    except np.linalg.LinAlgError:
        with pytest.raises(DomainError, match="singular"):
            lime_explain(model, encoder, "d", tokens, target, buffers=buffers, **kwargs)
        return
    got = lime_explain(model, encoder, "d", tokens, target, buffers=buffers, **kwargs)
    # repr spells every float exactly (and nan, and the sign of zero)
    assert repr(got) == repr(expected)


class TestLimeReference:
    """The design matrix built in place equals the cast-and-stack reference."""

    @settings(max_examples=200, deadline=None)
    @given(case=lime_cases(),
           num_samples=st.one_of(st.integers(1, 2), st.integers(3, 300)),
           kernel_width=st.none() | st.floats(0.05, 5.0),
           ridge=st.just(0.0) | st.floats(1e-3, 10.0),
           top_k=st.none() | st.integers(1, 5),
           seed=st.integers(0, 2 ** 64 - 1))
    @example(case=(LogRegModel(["a", "b"], np.array([[1.0], [-1.0]]), np.zeros(2)),
                   TfIdfModel({"w": 0}, [1.0]), ["w"], "a"),
             num_samples=50, kernel_width=None, ridge=1.0, top_k=None, seed=0)
    def test_equals_reference(self, case, num_samples, kernel_width, ridge, top_k, seed):
        model, encoder, tokens, target = case
        _same_explanation(model, encoder, tokens, target, num_samples=num_samples,
                          kernel_width=kernel_width, ridge=ridge, top_k=top_k, seed=seed)

    @pytest.mark.parametrize("n_features, num_samples", [(1, 1), (1, 2), (1, 50), (2, 40)])
    def test_all_zero_mask_rows_equal_reference(self, n_features, num_samples):
        terms = [f"t{i}" for i in range(n_features)]
        encoder = TfIdfModel({t: i for i, t in enumerate(terms)}, [1.5] * n_features)
        model = LogRegModel(["a", "b"], np.arange(2.0 * n_features).reshape(2, -1),
                            np.array([0.5, -0.5]))
        seed = next(s for s in range(100) if not np.random.default_rng(s).integers(
            0, 2, size=(num_samples, n_features)).sum(axis=1).all())
        for ridge in (0.0, 1.0):
            _same_explanation(model, encoder, terms, "a", num_samples=num_samples,
                              ridge=ridge, top_k=None, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(st.tuples(
        lime_cases(), st.integers(1, 300), st.none() | st.floats(0.05, 5.0),
        st.just(0.0) | st.floats(1e-3, 10.0), st.none() | st.integers(1, 5),
        st.integers(0, 2 ** 64 - 1)), min_size=2, max_size=6))
    def test_shared_buffers_equal_reference(self, calls):
        """One holder serves calls whose sizes grow and shrink."""
        buffers = LimeBuffers()
        for (model, encoder, tokens, target), num_samples, width, ridge, top_k, seed in calls:
            _same_explanation(model, encoder, tokens, target, buffers=buffers,
                              num_samples=num_samples, kernel_width=width, ridge=ridge,
                              top_k=top_k, seed=seed)


class TestMaskStream:
    """The masks drawn from the generator's raw words are the values
    ``integers(0, 2)`` draws, across row blocks and odd sizes.  A numpy
    release that changed either would change every explanation."""

    @pytest.mark.parametrize("num_samples", [1, 255, 256, 257, 2000])
    @pytest.mark.parametrize("n_features", [1, 2, 117, 118])
    def test_raw_words_equal_integers(self, num_samples, n_features):
        design = np.full((num_samples, n_features + 1), -1.0)
        for seed in (0, 1, 12345, 2 ** 64 - 1):
            explain_mod.draw_masks(seed, design[:, 1:])
            expected = np.random.default_rng(seed).integers(
                0, 2, size=(num_samples, n_features), dtype=np.int32)
            assert np.array_equal(design[:, 1:], expected), seed
            assert (design[:, 0] == -1.0).all()  # the intercept column is not written


class TestLimeMemory:
    """What one call allocates, at S = 2,000 samples, F = 100 features and 10
    classes, in units of one S x (F + 1) float64 array."""

    S, F = 2000, 100

    def case(self):
        rng = np.random.default_rng(5)
        terms = [f"t{i}" for i in range(self.F)]
        encoder = TfIdfModel({t: i for i, t in enumerate(terms)},
                             list(rng.uniform(1, 3, self.F)))
        model = LogRegModel([f"c{k}" for k in range(10)], rng.normal(size=(10, self.F)),
                            rng.normal(size=10))
        return model, encoder, terms

    def traced_peak(self, call) -> float:
        """The peak of traced memory during ``call``, above what was traced before."""
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
        return (peak - before) / (self.S * (self.F + 1) * 8)

    def test_allocations_per_call(self):
        model, encoder, terms = self.case()

        def explain(buffers=None):
            return lime_explain(model, encoder, "d", terms, "c3", num_samples=self.S,
                                top_k=None, seed=7, buffers=buffers)

        explain()  # numpy's one-time allocations happen outside the trace
        buffers = LimeBuffers()
        tracemalloc.start()
        try:
            alone = self.traced_peak(explain)
            first = self.traced_peak(lambda: explain(buffers))
            repeat = self.traced_peak(lambda: explain(buffers))
        finally:
            tracemalloc.stop()
        # a fresh pair of buffers, plus the small per-call arrays
        assert alone <= 2.6 and first <= 2.6
        # only the (S, classes) probabilities, one block of raw mask words
        # and the per-sample vectors (0.230 measured)
        assert repeat <= 0.25

    @staticmethod
    def held_after_table(docs, rank_samples):
        """Traced bytes ``run_explain`` holds when its table loop is done (at
        its ``compute_rankings`` call, where the run is stopped), and the
        features of the MDisc Text sample: the distinct in-vocabulary tokens
        of its documents."""
        held, encoders = [], []

        class TableDone(Exception):
            pass

        def stop(documents, text_model, text_encoder, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            encoders.append(text_encoder)
            raise TableDone

        source = SymbolNameSource("arxiv", {"x": (("wave function", 1.0),),
                                            "y": (("luminosity", 1.0),)})
        compute = explain_mod.compute_rankings
        explain_mod.compute_rankings = stop
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(TableDone):
                run_explain(docs, source, None, seed=4, lime=LimeSettings(num_samples=20),
                            rank_samples=rank_samples, budget=10)
        finally:
            explain_mod.compute_rankings = compute
            tracemalloc.stop()
        sample = explain_mod.mdisc_documents(docs, budget=10, seed=4)
        features = sum(len({t for t in doc.text_tokens() if t in encoders[0].vocabulary})
                       for doc in docs if doc.doc_id in sample)
        return held[0] - before, features

    def test_held_table_memory_does_not_grow_per_feature(self):
        """Between a run whose MDisc Text ranking reuses the table's
        explanations and one that does not, the held memory differs by what
        the sample documents keep; per extra sample feature that is one
        token reference and one float64, not a (token, weight) pair.  The
        pairs outnumber the interpreter's 2,000 free tuples, which
        tracemalloc does not see being reused."""
        extra = []
        for words in (40, 200):
            docs = pool_documents(words)
            self.held_after_table(docs, rank_samples=30)  # token layouts, first-use caches
            with_sample, features = self.held_after_table(docs, rank_samples=20)
            without_sample, _ = self.held_after_table(docs, rank_samples=30)
            extra.append((with_sample - without_sample, features))
        (small, small_features), (large, large_features) = extra
        assert large_features - small_features > 2000
        assert (large - small) / (large_features - small_features) <= 24


def pool_documents(words: int, per_class: int = 8) -> list:
    """Two classes of documents, each of ``words`` distinct words from a
    shared pool, so every word is in vocabulary whatever the split."""
    rng = np.random.default_rng(words)
    pool = [f"word{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(2 * words)]
    docs = []
    for label in ("quant-ph", "astro-ph"):
        for i in range(per_class):
            chosen = [pool[j] for j in rng.choice(len(pool), words, replace=False)]
            docs.append(record_to_document({
                "id": f"{label}-{i}", "arxiv": [label], "msc": [],
                "segments": [{"kind": "text", "content": " ".join([label[:5]] + chosen)},
                             {"kind": "formula",
                              "content": f"<mi>{'x' if label == 'quant-ph' else 'y'}</mi>"}]}))
    return docs


def labeled_docs():
    texts = {
        "quant-ph": ["wave packet dynamics", "wave collapse model",
                     "wave interference study"],
        "astro-ph": ["star cluster survey", "star formation rate",
                     "star luminosity fit"],
    }
    docs = []
    for cls, bodies in texts.items():
        for i, body in enumerate(bodies):
            docs.append(record_to_document({
                "id": f"{cls}-{i}", "arxiv": [cls], "msc": [],
                "segments": [{"kind": "text", "content": body}]}))
    return docs


def text_entities(docs):
    """Each document's Text entities, as ``compute_rankings`` maps them."""
    return {stream.doc_id: stream.tokens for stream in text_streams(docs)}


def fit_on(docs, streams):
    encoder = fit_tfidf(streams)
    labels = [d.arxiv_categories[0] for d in docs]
    data = LabeledDataset([transform(encoder, s) for s in streams], labels,
                          dim=len(encoder.vocabulary))
    return train_logreg(data), encoder


class TestRankEntities:
    def test_mfreq_counts_documents_not_occurrences(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        ranking = rank_entities(docs, model, encoder, MFREQ, TEXT_KIND,
                                streams=text_entities(docs))
        strengths = dict(ranking.per_class["quant-ph"])
        assert strengths["wave"] == 3.0
        assert strengths["packet"] == 1.0
        assert "star" not in strengths

    def test_mdisc_puts_marker_token_first(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        ranking = rank_entities(docs, model, encoder, MDISC, TEXT_KIND,
                                streams=text_entities(docs),
                                lime=LimeSettings(num_samples=400), seed=2)
        assert ranking.per_class["quant-ph"][0][0] == "wave"
        assert ranking.per_class["astro-ph"][0][0] == "star"
        assert ranking.warnings == ()

    def test_mdisc_budget_limits_documents(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        small = rank_entities(docs, model, encoder, MDISC, TEXT_KIND, streams=text_entities(docs),
                              budget=1, lime=LimeSettings(num_samples=200), seed=2)
        # one document per class still yields a ranking
        assert set(small.per_class) == {"quant-ph", "astro-ph"}

    def test_math_kind_requires_streams(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        with pytest.raises(ValidationError):
            rank_entities(docs, model, encoder, MFREQ, MATH_KIND)
        partial = {d.doc_id: ["psi"] for d in docs[1:]}
        with pytest.raises(ValidationError,
                           match="^no math token stream for document 'quant-ph-0'$"):
            rank_entities(docs, model, encoder, MFREQ, MATH_KIND, streams=partial)

    def test_math_streams_feed_math_kind(self):
        docs = labeled_docs()
        streams = {d.doc_id: ["psi"] if d.arxiv_categories[0] == "quant-ph"
                   else ["lum"] for d in docs}
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, streams[d.doc_id])
                                       for d in docs])
        ranking = rank_entities(docs, model, encoder, MFREQ, MATH_KIND,
                                streams=streams)
        assert dict(ranking.per_class["quant-ph"]) == {"psi": 3.0}

    def test_unknown_mode_rejected(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        with pytest.raises(ValidationError):
            rank_entities(docs, model, encoder, "MWild", TEXT_KIND,
                          streams=text_entities(docs))

    def test_class_unknown_to_model_warned_and_omitted(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        extra = record_to_document({
            "id": "gr-0", "arxiv": ["gr-qc"], "msc": [],
            "segments": [{"kind": "text", "content": "metric tensor waves"}]})
        ranking = rank_entities(docs + [extra], model, encoder, MDISC, TEXT_KIND,
                                streams=text_entities(docs + [extra]),
                                lime=LimeSettings(num_samples=200), seed=2)
        assert "gr-qc" not in ranking.per_class
        assert any("gr-qc" in w for w in ranking.warnings)

    def test_mdisc_reuses_given_explanations(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        lime = LimeSettings(num_samples=200, kernel_width=0.6, ridge=2.0)
        streams = text_entities(docs)
        known = {d.doc_id: TokenMagnitudes.of(lime_explain(
                     model, encoder, d.doc_id, streams[d.doc_id],
                     d.arxiv_categories[0], top_k=None, seed=derive_seed(2, "lime", d.doc_id),
                     num_samples=200, kernel_width=0.6, ridge=2.0))
                 for d in docs[1:]}
        fresh = rank_entities(docs, model, encoder, MDISC, TEXT_KIND, lime=lime, seed=2,
                              streams=streams)
        reused = rank_entities(docs, model, encoder, MDISC, TEXT_KIND, lime=lime, seed=2,
                               streams=streams, explained=known)
        assert (fresh.reused, reused.reused) == (0, len(docs) - 1)
        assert reused.per_class == fresh.per_class

    @pytest.mark.parametrize("change", [{"target_class": "astro-ph"}, {"num_samples": 100},
                                        {"seed": 0}])
    def test_explanation_made_otherwise_rejected(self, change):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        doc = docs[0]  # quant-ph
        made = lime_explain(model, encoder, doc.doc_id, doc.text_tokens(), "quant-ph",
                            num_samples=200, top_k=None, seed=derive_seed(2, "lime", doc.doc_id))
        with pytest.raises(ValidationError, match=doc.doc_id):
            rank_entities(docs, model, encoder, MDISC, TEXT_KIND, seed=2,
                          streams=text_entities(docs), lime=LimeSettings(num_samples=200),
                          explained={doc.doc_id: TokenMagnitudes.of(replace(made, **change))})


class TestClassEntityEntropy:
    def test_single_class_entity_contributes_zero_clsent(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {
            "a": (("only", 4.0),), "b": (("other", 4.0),)})
        assert class_entity_entropy(ranking, CLS_ENT) == 0.0

    def test_shared_entity_even_split_gives_one_bit(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {
            "a": (("shared", 2.0),), "b": (("shared", 2.0),)})
        assert class_entity_entropy(ranking, CLS_ENT) == pytest.approx(1.0)

    def test_entcls_mean_over_classes(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {
            "a": (("x", 1.0), ("y", 1.0)),  # 1 bit
            "b": (("z", 1.0),),             # 0 bits
        })
        assert class_entity_entropy(ranking, ENT_CLS) == pytest.approx(0.5)

    def test_top_m_limits_both_directions(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {
            "a": (("x", 8.0), ("y", 1.0), ("z", 1.0))})
        # with top_m=1 only x is kept: one entity, one class
        assert class_entity_entropy(ranking, ENT_CLS, top_m=1) == 0.0
        assert class_entity_entropy(ranking, CLS_ENT, top_m=1) == 0.0

    def test_zero_strengths_dropped(self):
        ranking = EntityRanking(MDISC, TEXT_KIND, {
            "a": (("x", 1.0), ("dead", 0.0))})
        assert class_entity_entropy(ranking, ENT_CLS) == 0.0

    def test_empty_ranking_rejected(self):
        with pytest.raises(DomainError):
            class_entity_entropy(EntityRanking(MFREQ, TEXT_KIND, {}), CLS_ENT)

    def test_all_zero_rejected(self):
        ranking = EntityRanking(MDISC, TEXT_KIND, {"a": (("x", 0.0),)})
        with pytest.raises(DomainError):
            class_entity_entropy(ranking, CLS_ENT)
        with pytest.raises(DomainError):
            class_entity_entropy(ranking, ENT_CLS)

    def test_unknown_direction_rejected(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {"a": (("x", 1.0),)})
        with pytest.raises(ValidationError):
            class_entity_entropy(ranking, "Sideways")


class TestEntropyReport:
    def test_eight_rows_in_fixed_order(self):
        assert len(REPORT_ROWS) == 8
        assert REPORT_ROWS[0] == (MDISC, TEXT_KIND, CLS_ENT)
        assert REPORT_ROWS[-1] == (MFREQ, MATH_KIND, ENT_CLS)

    def test_build_report_from_rankings(self):
        docs = labeled_docs()
        text_streams = [TokenStream.of(d.doc_id, d.text_tokens()) for d in docs]
        math_streams = {d.doc_id: ["psi", "h"] if d.arxiv_categories[0] == "quant-ph"
                        else ["lum", "h"] for d in docs}
        text_model, text_encoder = fit_on(docs, text_streams)
        math_model, math_encoder = fit_on(
            docs, [TokenStream.of(d.doc_id, math_streams[d.doc_id]) for d in docs])
        rankings = compute_rankings(docs, text_model, text_encoder,
                                    math_model, math_encoder, math_streams,
                                    lime=LimeSettings(num_samples=200), seed=3)
        report = build_entropy_report(rankings, top_m=10)
        labels = [label for label, _ in report.rows]
        assert labels == ["MDiscTextClsEnt", "MDiscTextEntCls",
                          "MFreqTextClsEnt", "MFreqTextEntCls",
                          "MDiscMathClsEnt", "MDiscMathEntCls",
                          "MFreqMathClsEnt", "MFreqMathEntCls"]
        for _, value in report.rows:
            assert value >= 0.0
        # the shared math token "h" sits in both classes: ClsEnt sees spread
        assert report.value("MFreqMathClsEnt") > 0.0
        with pytest.raises(KeyError):
            report.value("NoSuchRow")


# Stopwords, plurals and non-ASCII tokens; labels on one axis, the other or neither.
_RANKED_WORDS = ["the", "of", "and", "is", "wave", "waves", "star", "stars", "ψ", "größe"]
_RANKED_LABELS = [([], []), (["quant-ph"], []), (["astro-ph", "quant-ph"], ["81V10"]),
                  ([], ["85A04"])]


class TestComputeRankings:
    @given(st.lists(st.tuples(st.lists(st.sampled_from(_RANKED_WORDS), max_size=8),
                              st.sampled_from(_RANKED_LABELS)), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_text_map_is_each_labeled_documents_entity_stream(self, drawn):
        docs = [record_to_document({
                    "id": f"d{i}", "arxiv": arxiv, "msc": msc,
                    "segments": [{"kind": "text", "content": " ".join(words)}]})
                for i, (words, (arxiv, msc)) in enumerate(drawn)]
        math_streams = {doc.doc_id: ["psi"] for doc in docs}
        seen = {}

        def spy(documents, model, encoder, mode, kind, **kwargs):
            seen[(mode, kind)] = kwargs["streams"]
            return EntityRanking(mode, kind, {})

        with mock.patch.object(explain_mod, "rank_entities", spy):
            compute_rankings(docs, None, None, None, None, math_streams)
        labeled = [doc for doc in docs if doc.arxiv_categories]
        for mode in (MDISC, MFREQ):
            assert seen[(mode, MATH_KIND)] is math_streams
            text = seen[(mode, TEXT_KIND)]
            for doc in labeled:
                assert list(text[doc.doc_id]) == oracles.entity_stream(doc, TEXT_KIND, None)


@pytest.fixture(scope="module")
def demo_fixtures(tmp_path_factory):
    fixtures = tmp_path_factory.mktemp("fixtures")
    assert cli.main(["synth", "--seed", "1", "--out-dir", str(fixtures)]) == 0
    return fixtures


def explain_config(fixtures, name, lime=None, logreg=None, **explain):
    """A copy of the demo config, next to it, with other lime/logreg/explain
    settings."""
    config = json.loads((fixtures / "demo_config.json").read_text(encoding="utf-8"))
    config["lime"].update(lime or {})
    config["logreg"].update(logreg or {})
    config["explain"].update(explain)
    path = fixtures / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, config


def class_documents(fixtures):
    docs = load_corpus(str(fixtures / "demo_corpus.jsonl"))
    by_class = {}
    for doc in docs:
        by_class.setdefault(primary_label(doc, "arxiv"), []).append(doc)
    return by_class


class TestExplainStage:
    """The explain stage explains each table document once and hands the
    explanations to the MDisc Text ranking when the settings agree."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls, rankings = [], []
        lime, compute = explain_mod.lime_explain, explain_mod.compute_rankings

        def spy_lime(*args, **kwargs):
            calls.append((args, kwargs))
            return lime(*args, **kwargs)

        def spy_compute(*args, **kwargs):
            rankings.append(compute(*args, **kwargs))
            return rankings[-1]

        monkeypatch.setattr(explain_mod, "lime_explain", spy_lime)
        monkeypatch.setattr(explain_mod, "compute_rankings", spy_compute)
        return calls, rankings

    def run(self, config_path, out_dir):
        assert cli.main(["explain", "-c", str(config_path), "--out-dir", str(out_dir)]) == 0
        return json.loads((out_dir / "explain.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("lime, ranking_samples, reused", [
        ({"num_samples": 40}, 40, True),
        ({"num_samples": 40, "kernel_width": 0.5, "ridge": 3.0}, 40, True),
        ({"num_samples": 40, "kernel_width": 0.5, "ridge": 3.0}, 30, False),
    ])
    def test_lime_call_count(self, demo_fixtures, tmp_path, spied, lime,
                             ranking_samples, reused):
        calls, _ = spied
        path, config = explain_config(demo_fixtures, tmp_path.name, lime,
                                      num_samples=ranking_samples)
        report = self.run(path, tmp_path / "out")
        lines = (tmp_path / "out" / "explanations.tsv").read_text().splitlines()[1:]
        explained = len({line.split("\t")[0] for line in lines})
        budget = config["explain"]["budget"]
        sampled = sum(min(budget, len(docs)) for docs in class_documents(demo_fixtures).values())
        assert not any(report["warnings"].values())
        assert explained == 120 and sampled == 50
        assert report["lime"]["documents_explained"] == explained
        assert report["lime"]["documents_skipped"] == 0
        assert report["lime"]["ranking_explanations_reused"] == (sampled if reused else 0)
        # the table's documents, the MDisc Math sample and, only when the
        # settings differ, the MDisc Text sample again
        assert len(calls) == explained + sampled + (0 if reused else sampled)
        # no (document, model, settings) is explained twice
        assert len({(args[2], id(args[0]), kwargs["num_samples"])
                    for args, kwargs in calls}) == len(calls)

    @pytest.mark.parametrize("ranking_samples", [40, 30])
    def test_only_the_mdisc_text_sample_keeps_all_features(self, demo_fixtures, tmp_path,
                                                            spied, ranking_samples):
        calls, _ = spied
        path, config = explain_config(demo_fixtures, tmp_path.name, {"num_samples": 40},
                                      num_samples=ranking_samples)
        report = self.run(path, tmp_path / "out")
        table_calls = calls[:report["lime"]["documents_explained"]]
        full = {args[2] for args, kwargs in table_calls if kwargs["top_k"] is None}
        assert all(kwargs["top_k"] in (None, config["lime"]["top_k"])
                   for _, kwargs in table_calls)
        docs = [doc for docs in class_documents(demo_fixtures).values() for doc in docs]
        sample = explain_mod.mdisc_documents(docs, config["explain"]["budget"],
                                             config["seed"])
        assert full == (sample if ranking_samples == 40 else set())
        assert report["lime"]["ranking_explanations_reused"] == len(full)

    def test_explain_fits_the_classify_stage_text_model(self, demo_fixtures, tmp_path,
                                                       monkeypatch):
        """Under default ``encode`` settings, explain's text fit gets the
        ``classify`` stage's streams, labels and training rows."""
        records = [json.loads(line) for line in
                   (demo_fixtures / "demo_corpus.jsonl").read_text(encoding="utf-8").splitlines()]
        for record in records:  # stopwords and plurals for the rule to act on
            for segment in record["segments"]:
                if segment["kind"] == "text":
                    segment["content"] = f"The {segment['content']} of the classes"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        path, config = explain_config(demo_fixtures, tmp_path.name, {"num_samples": 20},
                                      num_samples=20)
        config["corpus"] = str(corpus)
        config["encode"] = {"remove_stopwords": SETTINGS["encode.remove_stopwords"][0],
                            "lemmatize": SETTINGS["encode.lemmatize"][0]}
        path.write_text(json.dumps(config), encoding="utf-8")
        fits = []
        fit = classify_mod.fit_split_model

        def spy(streams, labels, train_idx, *args, **kwargs):
            fits.append((list(streams), list(labels), list(train_idx)))
            return fit(streams, labels, train_idx, *args, **kwargs)

        monkeypatch.setattr(classify_mod, "fit_split_model", spy)
        monkeypatch.setattr(explain_mod, "fit_split_model", spy)
        for stage in ("classify", "explain"):
            assert cli.main([stage, "-c", str(path), "--out-dir", str(tmp_path / stage)]) == 0
        classify_fit, text_fit, _ = fits
        assert "the" not in classify_fit[0][0].tokens and "classes" in classify_fit[0][0].tokens
        assert text_fit == classify_fit

    def test_singular_surrogate_exits_4(self, demo_fixtures, tmp_path, capsys):
        path, _ = explain_config(demo_fixtures, tmp_path.name, {"ridge": 0, "num_samples": 5})
        code = cli.main(["explain", "-c", str(path), "--out-dir", str(tmp_path / "out")])
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 4
        assert record["error"] == "DomainError"
        assert "singular" in record["message"]

    # S * (F + 1) float64 elements need more than 2**47 bytes, beyond any
    # process's address space, so the allocation fails before a page is touched.
    OUT_OF_MEMORY = {"num_samples": 2 ** 45}

    def test_out_of_memory_exits_4(self, demo_fixtures, tmp_path, capsys):
        path, _ = explain_config(demo_fixtures, tmp_path.name, self.OUT_OF_MEMORY)
        code = cli.main(["explain", "-c", str(path), "--out-dir", str(tmp_path / "out")])
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 4
        assert record["error"] == "MemoryError"
        assert "Unable to allocate" in record["message"]

    def test_out_of_memory_prints_one_record_and_no_traceback(self, demo_fixtures, tmp_path):
        path, _ = explain_config(demo_fixtures, tmp_path.name, self.OUT_OF_MEMORY)
        src = str(Path(stemexplain.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "stemexplain", "explain", "-c", str(path),
             "--out-dir", str(tmp_path / "out")], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert result.returncode == 4, result.stderr
        records = [json.loads(line) for line in result.stderr.splitlines()]
        errors = [r for r in records if "error" in r]
        assert len(errors) == 1 and errors[0]["error"] == "MemoryError"

    @pytest.mark.parametrize("ranking_samples", [40, 30])
    def test_mdisc_text_uses_lime_settings(self, demo_fixtures, tmp_path, spied,
                                           ranking_samples):
        calls, rankings = spied
        lime = {"num_samples": 40, "kernel_width": 0.5, "ridge": 3.0}
        path, config = explain_config(demo_fixtures, tmp_path.name, lime,
                                      num_samples=ranking_samples, budget=100)
        self.run(path, tmp_path / "out")
        model, encoder = calls[0][0][:2]  # the table's text model comes first
        expected = {}
        for label, docs in sorted(class_documents(demo_fixtures).items()):
            sums, count = {}, 0
            for doc in sorted(docs, key=lambda d: d.doc_id):
                stream = oracles.entity_stream(doc, TEXT_KIND, None)
                explanation = oracles.lime_explain(
                    model, encoder, doc.doc_id, stream, label,
                    num_samples=ranking_samples, kernel_width=0.5, ridge=3.0, top_k=None,
                    seed=derive_seed(config["seed"], "lime", doc.doc_id))
                count += 1
                for token, weight in explanation.features:
                    sums[token] = sums.get(token, 0.0) + abs(weight)
            expected[label] = tuple(sorted(((t, s / count) for t, s in sums.items()),
                                           key=lambda kv: (-kv[1], kv[0])))
        (ranked,) = rankings
        assert ranked[(MDISC, TEXT_KIND)].per_class == expected

    @pytest.mark.parametrize("rank_samples", [40, 30])
    def test_shared_buffers_give_the_same_report(self, demo_fixtures, monkeypatch,
                                                 rank_samples):
        docs = load_corpus(str(demo_fixtures / "demo_corpus.jsonl"))
        source = load_symbol_source(str(demo_fixtures / "source_arxiv.tsv"), "arxiv")
        concept_map = load_concept_map(str(demo_fixtures / "concept_map.tsv"))

        def report():
            return run_explain(docs, source, concept_map, seed=3,
                               lime=LimeSettings(num_samples=40, kernel_width=0.7),
                               rank_samples=rank_samples, budget=3)

        holders = []
        lime = explain_mod.lime_explain

        def unshared(*args, buffers, **kwargs):
            holders.append(buffers)
            return lime(*args, **kwargs)

        shared = report()
        monkeypatch.setattr(explain_mod, "lime_explain", unshared)
        alone = report()
        # every call of the run was handed the run's one holder
        assert len(holders) > 100 and isinstance(holders[0], LimeBuffers)
        assert len({id(h) for h in holders}) == 1
        assert repr(alone) == repr(shared)

    def test_runs_in_one_process_equal_fresh_processes(self, demo_fixtures, tmp_path):
        # two lime settings, then the first settings with another model
        configs = [explain_config(demo_fixtures, "leak-a", {"num_samples": 40},
                                  num_samples=40)[0],
                   explain_config(demo_fixtures, "leak-b",
                                  {"num_samples": 60, "kernel_width": 0.8, "ridge": 2.0,
                                   "top_k": 3}, num_samples=50)[0],
                   explain_config(demo_fixtures, "leak-c", {"num_samples": 40},
                                  {"l2": 0.05}, num_samples=40)[0]]
        for k, path in enumerate(configs):
            self.run(path, tmp_path / f"in-process-{k}")
        src = str(Path(stemexplain.__file__).resolve().parents[1])
        for k, path in enumerate(configs):
            fresh = tmp_path / f"fresh-{k}"
            result = subprocess.run(
                [sys.executable, "-m", "stemexplain", "explain", "-c", str(path),
                 "--out-dir", str(fresh)], capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
            assert result.returncode == 0, result.stderr
            names = sorted(p.name for p in fresh.iterdir())
            assert names == sorted(p.name for p in (tmp_path / f"in-process-{k}").iterdir())
            for name in names:
                assert ((tmp_path / f"in-process-{k}" / name).read_bytes()
                        == (fresh / name).read_bytes()), (k, name)
