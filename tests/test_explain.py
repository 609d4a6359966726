"""Surrogate explanations and entity-ranking entropy summaries."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
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
from stemexplain import corpus as corpus_mod
from stemexplain import explain as explain_mod
from stemexplain.cli import SETTINGS
from stemexplain.classify import (LabeledDataset, LogRegModel, derive_seed,
                                  train_logreg)
from stemexplain.corpus import load_corpus, primary_label, record_to_document
from stemexplain.encode import TfIdfModel, TokenStream, fit_tfidf, text_streams, transform
from stemexplain.errors import DomainError, ValidationError
from stemexplain.explain import (CLS_ENT, ENT_CLS, FULL_SCALE_REFERENCE, MATH_KIND, MDISC,
                                 MFREQ, TEXT_KIND, EntityRanking, ExplainInputs, LimeBuffers,
                                 LimePlan, LimeSettings, TokenMagnitudes, build_entropy_report,
                                 class_entity_entropy, compute_rankings, explain_inputs,
                                 lime_explain, plan_lime, rank_entities, reduce_ranking,
                                 run_explain, run_plan)
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

    @pytest.mark.parametrize("kernel_width", [1e200, sys.float_info.max, 10 ** 200])
    def test_width_whose_square_is_no_double_weighs_samples_alike(self, kernel_width):
        """Every sample weight is exp(-0) = 1, as under an infinite width."""
        model, encoder = fit_two_class()
        tokens = ["wave", "packet", "spreads"]
        huge = lime_explain(model, encoder, "d", tokens, "quant", num_samples=50,
                            kernel_width=kernel_width, seed=3)
        limit = lime_explain(model, encoder, "d", tokens, "quant", num_samples=50,
                             kernel_width=float("inf"), seed=3)
        assert huge == replace(limit, kernel_width=kernel_width)

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
    def held_by_results(docs, rank_samples):
        """Traced bytes that the results of ``run_explain``'s ``run_plan``
        call hold when it returns (the run is stopped there), and the
        features of the MDisc Text sample: the distinct in-vocabulary tokens
        of its documents."""
        held, encoders = [], []

        class PlanDone(Exception):
            pass

        def stop(plan, fitted, *args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            results = run(plan, fitted, *args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0] - before)
            encoders.append(fitted[TEXT_KIND][1])
            del results
            raise PlanDone

        source = SymbolNameSource("arxiv", {"x": (("wave function", 1.0),),
                                            "y": (("luminosity", 1.0),)})
        run = explain_mod.run_plan
        explain_mod.run_plan = stop
        tracemalloc.start()
        try:
            with pytest.raises(PlanDone):
                run_explain(explain_inputs(docs, source, None), seed=4,
                            lime=LimeSettings(num_samples=20), rank_samples=rank_samples,
                            budget=10)
        finally:
            explain_mod.run_plan = run
            tracemalloc.stop()
        sample = oracles.mdisc_documents(docs, budget=10, seed=4)
        features = sum(len({t for t in doc.text_tokens() if t in encoders[0].vocabulary})
                       for doc in docs if doc.doc_id in sample)
        return held[0], features

    def test_held_table_memory_does_not_grow_per_feature(self):
        """What the executor returns grows, per feature of the MDisc Text
        sample, by one token reference and one float64, not a (token,
        weight) pair: with the table's sample count (20), the sample's
        explanations are the table's; with another (30), they are made apart.
        The pairs outnumber the interpreter's 2,000 free tuples, which
        tracemalloc does not see being reused."""
        for rank_samples in (20, 30):
            extra = []
            for words in (40, 200):
                docs = pool_documents(words)
                self.held_by_results(docs, rank_samples)  # token layouts, first-use caches
                extra.append(self.held_by_results(docs, rank_samples))
            (small, small_features), (large, large_features) = extra
            assert large_features - small_features > 2000
            assert (large - small) / (large_features - small_features) <= 24, rank_samples


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


def ids_and_labels(docs):
    """The documents' ids and primary arXiv labels, as the rankings read them."""
    return [d.doc_id for d in docs], [d.arxiv_categories[0] for d in docs]


def fit_on(docs, streams):
    encoder = fit_tfidf(streams)
    labels = [d.arxiv_categories[0] for d in docs]
    data = LabeledDataset([transform(encoder, s) for s in streams], labels,
                          dim=len(encoder.vocabulary))
    return train_logreg(data), encoder


def mdisc_ranking(docs, model, encoder, kind=TEXT_KIND, streams=None, budget=5, seed=2,
                  lime=LimeSettings(num_samples=200), table=None):
    """A plan for the MDisc ranking of one kind (and the table, with
    ``table`` settings), the ranking made from its results, and the plan."""
    streams = text_entities(docs) if streams is None else streams
    fitted = {kind: (model, encoder)}
    plan = plan_lime(*ids_and_labels(docs), fitted, {kind: streams}, budget, seed, lime,
                     table=table)
    magnitudes = run_plan(plan, fitted, seed)[2]
    return rank_entities(*ids_and_labels(docs), MDISC, kind, streams, plan=plan,
                         magnitudes=magnitudes), plan


class TestRankEntities:
    def test_mfreq_counts_documents_not_occurrences(self):
        docs = labeled_docs()
        ranking = rank_entities(*ids_and_labels(docs), MFREQ, TEXT_KIND,
                                streams=text_entities(docs))
        strengths = dict(ranking.per_class["quant-ph"])
        assert strengths["wave"] == 3.0
        assert strengths["packet"] == 1.0
        assert "star" not in strengths

    def test_mdisc_puts_marker_token_first(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        ranking, _ = mdisc_ranking(docs, model, encoder, lime=LimeSettings(num_samples=400))
        assert ranking.per_class["quant-ph"][0][0] == "wave"
        assert ranking.per_class["astro-ph"][0][0] == "star"
        assert ranking.warnings == ()

    def test_mdisc_budget_limits_documents(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        small, plan = mdisc_ranking(docs, model, encoder, budget=1)
        # one document per class is explained, and still yields a ranking
        assert [len(ids) for ids in plan.samples[TEXT_KIND][0].values()] == [1, 1]
        assert len(plan.requests) == 2
        assert set(small.per_class) == {"quant-ph", "astro-ph"}

    def test_math_kind_requires_streams(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        with pytest.raises(ValidationError):
            rank_entities(*ids_and_labels(docs), MFREQ, MATH_KIND)
        partial = {d.doc_id: ["psi"] for d in docs[1:]}
        message = "^no math token stream for document 'quant-ph-0'$"
        with pytest.raises(ValidationError, match=message):
            rank_entities(*ids_and_labels(docs), MFREQ, MATH_KIND, streams=partial)
        with pytest.raises(ValidationError, match=message):  # the plan reads them too
            plan_lime(*ids_and_labels(docs), {MATH_KIND: (model, encoder)},
                      {MATH_KIND: partial})

    def test_mdisc_without_a_sample_of_the_kind_rejected(self):
        """An MDisc ranking reads its kind's sample off the plan: with no plan,
        or a plan without that kind, it names the kind."""
        docs = labeled_docs()
        message = "^no LIME plan holds an MDisc sample of kind 'Text'$"
        with pytest.raises(ValidationError, match=message):
            rank_entities(*ids_and_labels(docs), MDISC, TEXT_KIND, text_entities(docs))
        math_only = LimePlan((), {MATH_KIND: ({}, ())})
        with pytest.raises(ValidationError, match=message):
            rank_entities(*ids_and_labels(docs), MDISC, TEXT_KIND, text_entities(docs),
                          plan=math_only, magnitudes={})

    def test_any_kind_of_the_streams_is_ranked(self):
        docs = labeled_docs()
        streams = {d.doc_id: [d.arxiv_categories[0]] for d in docs}
        ranking = rank_entities(*ids_and_labels(docs), MFREQ, "Entity", streams=streams)
        assert (ranking.kind, dict(ranking.per_class["astro-ph"])) == ("Entity",
                                                                        {"astro-ph": 3.0})

    def test_math_streams_feed_math_kind(self):
        docs = labeled_docs()
        streams = {d.doc_id: ["psi"] if d.arxiv_categories[0] == "quant-ph"
                   else ["lum"] for d in docs}
        ranking = rank_entities(*ids_and_labels(docs), MFREQ, MATH_KIND, streams=streams)
        assert dict(ranking.per_class["quant-ph"]) == {"psi": 3.0}

    def test_unknown_mode_rejected(self):
        docs = labeled_docs()
        with pytest.raises(ValidationError):
            rank_entities(*ids_and_labels(docs), "MWild", TEXT_KIND,
                          streams=text_entities(docs))

    def test_class_unknown_to_model_warned_and_omitted(self):
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        extra = record_to_document({
            "id": "gr-0", "arxiv": ["gr-qc"], "msc": [],
            "segments": [{"kind": "text", "content": "metric tensor waves"}]})
        ranking, plan = mdisc_ranking(docs + [extra], model, encoder)
        assert "gr-qc" not in ranking.per_class
        assert ranking.warnings == ("class 'gr-qc' unknown to the classifier; omitted",)
        assert "gr-0" not in {request.doc_id for request in plan.requests}

    def test_mdisc_reuses_given_explanations(self):
        """With the table's settings, the MDisc ranking keeps the table's
        explanations of its sample: one request each, and the ranking of a
        plan without the table."""
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        lime = LimeSettings(num_samples=200, kernel_width=0.6, ridge=2.0)
        fresh, alone = mdisc_ranking(docs, model, encoder, lime=lime)
        reused, merged = mdisc_ranking(docs, model, encoder, lime=lime, table=lime)
        assert [(r.table, r.magnitudes) for r in alone.requests] == [(False, True)] * len(docs)
        assert [(r.table, r.magnitudes) for r in merged.requests] == [(True, True)] * len(docs)
        assert reused == fresh

    @pytest.mark.parametrize("change", [{"num_samples": 100}, {"kernel_width": 0.5},
                                        {"ridge": 3.0}])
    def test_explanation_made_otherwise_rejected(self, change):
        """A table explanation made with other settings is not taken for the
        MDisc ranking: the ranking explains its sample itself."""
        docs = labeled_docs()
        model, encoder = fit_on(docs, [TokenStream.of(d.doc_id, d.text_tokens())
                                       for d in docs])
        lime = LimeSettings(num_samples=200)
        fresh, _ = mdisc_ranking(docs, model, encoder, lime=lime)
        ranking, plan = mdisc_ranking(docs, model, encoder, lime=lime,
                                      table=replace(lime, **change))
        assert [(r.table, r.magnitudes) for r in plan.requests] == (
            [(True, False)] * len(docs) + [(False, True)] * len(docs))
        assert ranking == fresh


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

    @staticmethod
    def row_labels(modes, kinds):
        """The report's labels for rankings made in ``modes`` x ``kinds`` order."""
        rankings = {(mode, kind): EntityRanking(mode, kind, {"a": (("x", 1.0),)})
                    for mode in modes for kind in kinds}
        return [label for label, _ in build_entropy_report(rankings).rows]

    def test_rows_follow_the_kinds_of_the_rankings(self):
        """Four rows per kind, kinds in first-seen order, whatever order the
        modes come in."""
        kinds = (TEXT_KIND, MATH_KIND, "Entity")
        assert self.row_labels((MFREQ, MDISC), kinds) == [
            f"{mode}{kind}{direction}" for kind in kinds
            for mode in (MDISC, MFREQ) for direction in (CLS_ENT, ENT_CLS)]

    def test_full_scale_reference_has_the_text_and_math_rows(self):
        assert list(FULL_SCALE_REFERENCE) == self.row_labels((MDISC, MFREQ),
                                                              (TEXT_KIND, MATH_KIND))


# Few entities and classes, so that they share entities; tied, zero and
# unrounded strengths.
_REDUCED_STRENGTHS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.0]) | st.floats(0.0, 4.0)


@st.composite
def full_rankings(draw, mode=MFREQ, kind=TEXT_KIND):
    """A ranking as ``rank_entities`` makes it: per class, distinct entities
    sorted by strength (descending), then name."""
    per_class = {}
    for label in draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=3)):
        strengths = draw(st.dictionaries(st.sampled_from("abcdefg"), _REDUCED_STRENGTHS,
                                         max_size=7))
        per_class[label] = tuple(sorted(strengths.items(), key=lambda kv: (-kv[1], kv[0])))
    return EntityRanking(mode, kind, per_class, tuple(draw(st.lists(st.just("w"), max_size=1))))


def ranking_rows(ranking, top_m):
    """The ranking's rows as ``run_explain`` writes them."""
    return [(label, position, entity, strength) for label in sorted(ranking.per_class)
            for position, (entity, strength)
            in enumerate(ranking.per_class[label][:top_m], start=1)]


class TestReduceRanking:
    """A ranking cut to what its rows and entropies read gives the full
    ranking's rows, entropies, entropy report and errors."""

    def test_keeps_each_class_prefix_and_every_entry_of_the_top_entities(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {
            "a": (("x", 5.0), ("y", 4.0), ("z", 1.0), ("w", 1.0)),
            "b": (("w", 9.0), ("z", 0.5), ("x", 0.1))}, ("warned",))
        # totals: w 10, x 5.1, y 4, z 1.5; the top entity is w
        assert reduce_ranking(ranking, 1) == EntityRanking(MFREQ, TEXT_KIND, {
            "a": (("x", 5.0), ("w", 1.0)), "b": (("w", 9.0),)}, ("warned",))
        assert reduce_ranking(ranking, 4) == ranking

    def test_non_positive_top_m_keeps_the_ranking(self):
        ranking = EntityRanking(MFREQ, TEXT_KIND, {"a": (("x", 1.0), ("y", 1.0))})
        assert reduce_ranking(ranking, 0) is ranking
        assert reduce_ranking(ranking, -1) is ranking

    @settings(max_examples=300, deadline=None)
    @given(ranking=full_rankings(), top_m=st.integers(1, 8))
    @example(ranking=EntityRanking(MFREQ, TEXT_KIND, {"x": (("a", 1.0), ("b", 1.0)),
                                                       "y": (("b", 1.0), ("a", 1.0))}),
             top_m=1)
    def test_rows_and_entropies_equal_the_full_rankings(self, ranking, top_m):
        reduced = reduce_ranking(ranking, top_m)
        assert (reduced.mode, reduced.kind, reduced.warnings) == (
            ranking.mode, ranking.kind, ranking.warnings)
        assert list(reduced.per_class) == list(ranking.per_class)
        assert ranking_rows(reduced, top_m) == ranking_rows(ranking, top_m)
        for direction in (CLS_ENT, ENT_CLS):
            assert (outcome(class_entity_entropy, reduced, direction, top_m)
                    == outcome(class_entity_entropy, ranking, direction, top_m))

    @settings(max_examples=100, deadline=None)
    @given(drawn=st.tuples(*(full_rankings(mode, kind) for kind in (TEXT_KIND, MATH_KIND)
                             for mode in (MDISC, MFREQ))),
           top_m=st.integers(1, 4))
    def test_entropy_report_equals_the_full_rankings(self, drawn, top_m):
        full = {(ranking.mode, ranking.kind): ranking for ranking in drawn}
        reduced = {key: reduce_ranking(ranking, top_m) for key, ranking in full.items()}
        assert (outcome(build_entropy_report, reduced, top_m)
                == outcome(build_entropy_report, full, top_m))


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
        planned, seen = [], {}

        def plan(doc_ids, labels, fitted, streams, *args):
            planned.append((doc_ids, labels, streams))
            return LimePlan((), {})

        def spy(doc_ids, labels, mode, kind, streams, *args):
            seen[(mode, kind)] = (doc_ids, labels, streams)
            return EntityRanking(mode, kind, {})

        labeled = [doc for doc in docs if doc.arxiv_categories]
        with mock.patch.object(explain_mod, "plan_lime", plan), \
                mock.patch.object(explain_mod, "rank_entities", spy):
            if not labeled:
                with pytest.raises(ValidationError, match="no document carries a label"):
                    compute_rankings(docs, None, None, None, None, math_streams)
                return
            compute_rankings(docs, None, None, None, None, math_streams)
        ((doc_ids, labels, streams),) = planned
        assert doc_ids == [doc.doc_id for doc in labeled]
        assert labels == [doc.arxiv_categories[0] for doc in labeled]
        for mode in (MDISC, MFREQ):
            assert seen[(mode, MATH_KIND)] == (doc_ids, labels, math_streams)
            assert seen[(mode, MATH_KIND)][2] is streams[MATH_KIND] is math_streams
            ids, _, text = seen[(mode, TEXT_KIND)]
            assert text is streams[TEXT_KIND] and ids == doc_ids
            for doc in labeled:
                assert list(text[doc.doc_id]) == oracles.entity_stream(doc, TEXT_KIND, None)


# Shared words, one word of the document's own (out of vocabulary when the
# document is held out) and symbols, some of which the source does not name.
_PLAN_WORDS = ["wave", "star", "field", "spin", "dust", "orbit"]
_PLAN_SOURCE = SymbolNameSource("arxiv", {"x": (("wave function", 1.0),),
                                          "y": (("luminosity", 1.0),)})


@st.composite
def plan_corpora(draw):
    labels = draw(st.lists(st.sampled_from(["astro-ph", "gr-qc", "quant-ph"]),
                           min_size=2, max_size=12))
    return [record_to_document({
        "id": f"d{i:02d}", "arxiv": [label], "msc": [],
        "segments": [{"kind": "text", "content": " ".join(draw(st.lists(
                          st.sampled_from(_PLAN_WORDS + [f"own{i}"]), max_size=6)))}]
                    + [{"kind": "formula", "content": f"<mi>{symbol}</mi>"}
                       for symbol in draw(st.lists(st.sampled_from("xyz"), max_size=2))]})
        for i, label in enumerate(labels)]


def outcome(function, *args, **kwargs):
    """The result of the call, or the type and text of the error it raised."""
    try:
        return function(*args, **kwargs)
    except (ValidationError, DomainError) as exc:
        return type(exc).__name__, str(exc)


class TestLimePlan:
    @settings(max_examples=100, deadline=None)
    @given(docs=plan_corpora(), seed=st.integers(0, 2 ** 32 - 1),
           samples=st.sampled_from([(20, 20), (20, 30), (30, 20)]),
           kernel_width=st.none() | st.sampled_from([0.5, 2.0]), top_k=st.sampled_from([1, 3]),
           budget=st.integers(1, 4))
    def test_plan_equals_the_two_loops(self, docs, seed, samples, kernel_width, top_k, budget):
        """The plan gives the rows, rankings, warnings, ``lime`` block and
        LIME call count of the table loop and the MDisc loops it replaced.
        The entropy report, which an empty ranking stops, is left out."""
        lime = LimeSettings(num_samples=samples[0], kernel_width=kernel_width)
        options = dict(seed=seed, lime=lime, top_k=top_k, rank_samples=samples[1],
                       budget=budget, top_m=100)
        calls = []
        library = explain_mod.lime_explain

        def counted(*args, **kwargs):
            calls.append(args[2])
            return library(*args, **kwargs)

        with mock.patch.object(explain_mod, "lime_explain", counted), \
                mock.patch.object(explain_mod, "build_entropy_report", lambda *args, **kw: None):
            got = outcome(lambda: run_explain(explain_inputs(docs, _PLAN_SOURCE, None),
                                              **options))
        expected = outcome(oracles.explain_loops, docs, _PLAN_SOURCE, None, **options)
        if isinstance(expected, tuple) and len(expected) == 2:  # both raised
            assert got == expected
            return
        rows, ranking_rows, warnings, block, n_calls = expected
        assert got.explanation_rows == rows
        assert got.ranking_rows == ranking_rows
        assert got.warnings == warnings
        assert got.lime == block
        assert len(calls) == n_calls


class TestKindsTable:
    def test_a_third_kind_is_fitted_ranked_and_reported(self):
        """A third kind in the table gets its fit, both rankings, their
        warnings and four entropy rows, last; the explanations table, which
        is Text only, and the other kinds' outputs are unchanged."""
        docs = pool_documents(6)
        two = explain_inputs(docs, _PLAN_SOURCE, None)
        entities = {doc_id: tokens[:3] for doc_id, tokens in two.streams[TEXT_KIND].items()}
        three = ExplainInputs(two.doc_ids, two.labels, {**two.streams, "Entity": entities})
        options = dict(seed=5, lime=LimeSettings(num_samples=30), rank_samples=30, budget=3,
                       top_k=3, top_m=4)
        calls, plans = [], []
        library_lime, library_plan = explain_mod.lime_explain, explain_mod.plan_lime

        def counted(*args, **kwargs):
            calls.append(args[2])
            return library_lime(*args, **kwargs)

        def planned(*args, **kwargs):
            plans.append(library_plan(*args, **kwargs))
            return plans[-1]

        with mock.patch.object(explain_mod, "lime_explain", counted), \
                mock.patch.object(explain_mod, "plan_lime", planned):
            before = run_explain(two, **options)
            calls_before = len(calls)
            after = run_explain(three, **options)
        assert after.explanation_rows == before.explanation_rows
        assert after.lime == before.lime
        assert len(after.entropy.rows) == 12
        assert after.entropy.rows[:8] == before.entropy.rows
        assert [label for label, _ in after.entropy.rows[8:]] == [
            "MDiscEntityClsEnt", "MDiscEntityEntCls", "MFreqEntityClsEnt", "MFreqEntityEntCls"]
        assert list(after.warnings) == ["MDisc_Text", "MDisc_Math", "MDisc_Entity",
                                        "MFreq_Text", "MFreq_Math", "MFreq_Entity"]
        assert {key: after.warnings[key] for key in before.warnings} == before.warnings
        assert [row for row in after.ranking_rows if row[1] != "Entity"] == before.ranking_rows
        assert {row[:2] for row in after.ranking_rows if row[1] == "Entity"} == {
            (MDISC, "Entity"), (MFREQ, "Entity")}
        grown = sum(len(ids) for ids in plans[1].samples["Entity"][0].values())
        assert grown == 6  # budget 3, two classes
        assert len(calls) - calls_before == calls_before + grown


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
        """Every LIME call, each ranking by (mode, kind), and what the
        executor returned."""
        calls, rankings, results = [], {}, []
        lime, rank, run = explain_mod.lime_explain, explain_mod.rank_entities, explain_mod.run_plan

        def spy_lime(*args, **kwargs):
            calls.append((args, kwargs))
            return lime(*args, **kwargs)

        def spy_rank(*args, **kwargs):
            ranking = rank(*args, **kwargs)
            rankings[ranking.mode, ranking.kind] = ranking
            return ranking

        def spy_run(*args, **kwargs):
            results.append(run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(explain_mod, "lime_explain", spy_lime)
        monkeypatch.setattr(explain_mod, "rank_entities", spy_rank)
        monkeypatch.setattr(explain_mod, "run_plan", spy_run)
        return calls, rankings, results

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
        calls, _, _ = spied
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
        calls, _, results = spied
        path, config = explain_config(demo_fixtures, tmp_path.name, {"num_samples": 40},
                                      num_samples=ranking_samples)
        report = self.run(path, tmp_path / "out")
        table_calls = calls[:report["lime"]["documents_explained"]]
        full = {args[2] for args, kwargs in table_calls if kwargs["top_k"] is None}
        assert all(kwargs["top_k"] in (None, config["lime"]["top_k"])
                   for _, kwargs in table_calls)
        docs = [doc for docs in class_documents(demo_fixtures).values() for doc in docs]
        sample = oracles.mdisc_documents(docs, config["explain"]["budget"], config["seed"])
        assert full == (sample if ranking_samples == 40 else set())
        assert report["lime"]["ranking_explanations_reused"] == len(full)
        # the executor keeps the table's rows, and magnitudes of the MDisc samples only
        ((rows, fidelities, magnitudes),) = results
        lines = (tmp_path / "out" / "explanations.tsv").read_text().splitlines()[1:]
        assert len(rows) == len(lines) and len(fidelities) == len(table_calls)
        assert set(magnitudes) == {(kind, doc_id) for kind in (TEXT_KIND, MATH_KIND)
                                   for doc_id in sample}
        assert all(isinstance(held, TokenMagnitudes) and held.magnitudes.dtype == np.float64
                   and len(held.tokens) == len(held.magnitudes) for held in magnitudes.values())

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

    @pytest.mark.parametrize("kernel_width", [0.001, 1e-160])
    def test_vanishing_sample_weights_exit_4(self, demo_fixtures, tmp_path, kernel_width):
        """A kernel width so small that every sample weight is 0 is named as
        the cause, in one JSON record and no numpy warning on stderr."""
        path, _ = explain_config(demo_fixtures, tmp_path.name,
                                 {"num_samples": 50, "kernel_width": kernel_width},
                                 num_samples=50)
        src = str(Path(stemexplain.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "stemexplain", "explain", "-c", str(path),
             "--out-dir", str(tmp_path / "out")], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert result.returncode == 4, result.stderr
        (line,) = result.stderr.splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainError"
        assert f"lime.kernel_width {kernel_width} is too small" in record["message"]
        assert "'astro-ph-000'" in record["message"]

    @pytest.mark.parametrize("kernel_width", [1e200, sys.float_info.max])
    def test_huge_kernel_width_runs(self, demo_fixtures, tmp_path, kernel_width):
        """A legal width whose square no double holds explains with equal
        sample weights: exit 0 and nothing on stderr."""
        path, _ = explain_config(demo_fixtures, tmp_path.name,
                                 {"num_samples": 50, "kernel_width": kernel_width},
                                 num_samples=50)
        src = str(Path(stemexplain.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "stemexplain", "explain", "-c", str(path),
             "--out-dir", str(tmp_path / "out")], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert (result.returncode, result.stderr) == (0, "")

    def test_no_document_is_alive_once_the_streams_exist(self, demo_fixtures, tmp_path,
                                                          monkeypatch):
        """The stage lets go of the corpus once its streams are built: no
        loaded ``Document`` is alive at either fit or when the plan runs."""
        loaded, alive = [], []
        load, fit, run = corpus_mod.load_corpus, explain_mod.fit_split_model, explain_mod.run_plan

        def spy_load(path):
            docs = load(path)
            loaded.extend(weakref.ref(doc) for doc in docs)
            return docs

        def count_alive(function, name):
            def spy(*args, **kwargs):
                gc.collect()
                alive.append((name, sum(ref() is not None for ref in loaded)))
                return function(*args, **kwargs)
            return spy

        monkeypatch.setattr(corpus_mod, "load_corpus", spy_load)
        monkeypatch.setattr(explain_mod, "fit_split_model", count_alive(fit, "fit"))
        monkeypatch.setattr(explain_mod, "run_plan", count_alive(run, "run_plan"))
        path, _ = explain_config(demo_fixtures, tmp_path.name, {"num_samples": 20},
                                 num_samples=20)
        self.run(path, tmp_path / "out")
        assert len(loaded) == 120
        assert alive == [("fit", 0), ("fit", 0), ("run_plan", 0)]

    def test_mfreq_rankings_come_between_the_fits_and_the_lime_calls(
            self, demo_fixtures, tmp_path, monkeypatch):
        events = []

        def logged(name, event):
            function = getattr(explain_mod, name)

            def spy(*args, **kwargs):
                result = function(*args, **kwargs)
                events.append(event(result))
                return result
            monkeypatch.setattr(explain_mod, name, spy)

        logged("fit_split_model", lambda _: "fit")
        logged("rank_entities", lambda ranking: f"{ranking.mode} {ranking.kind}")
        logged("plan_lime", lambda _: "plan_lime")
        logged("run_plan", lambda _: "run_plan")
        path, _ = explain_config(demo_fixtures, tmp_path.name, {"num_samples": 20},
                                 num_samples=20)
        self.run(path, tmp_path / "out")
        assert events == ["fit", "fit", "MFreq Text", "MFreq Math", "plan_lime", "run_plan",
                          "MDisc Text", "MDisc Math"]

    def test_no_full_ranking_is_alive_when_the_plan_runs(self, demo_fixtures, tmp_path,
                                                         monkeypatch):
        """Both MFreq rankings are made before the LIME calls and cut to what
        their rows and entropies read: when ``run_plan`` starts, neither
        ranking ``rank_entities`` returned is alive."""
        made, alive = [], []
        rank, run = explain_mod.rank_entities, explain_mod.run_plan

        def spy_rank(*args, **kwargs):
            ranking = rank(*args, **kwargs)
            made.append(weakref.ref(ranking))
            return ranking

        def spy_run(*args, **kwargs):
            gc.collect()
            alive.append((len(made), sum(ref() is not None for ref in made)))
            return run(*args, **kwargs)

        monkeypatch.setattr(explain_mod, "rank_entities", spy_rank)
        monkeypatch.setattr(explain_mod, "run_plan", spy_run)
        path, _ = explain_config(demo_fixtures, tmp_path.name, {"num_samples": 20},
                                 num_samples=20, top_m=2)
        self.run(path, tmp_path / "out")
        assert alive == [(2, 0)]

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
        calls, rankings, _ = spied
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
        assert rankings[MDISC, TEXT_KIND].per_class == expected

    @pytest.mark.parametrize("rank_samples", [40, 30])
    def test_shared_buffers_give_the_same_report(self, demo_fixtures, monkeypatch,
                                                 rank_samples):
        docs = load_corpus(str(demo_fixtures / "demo_corpus.jsonl"))
        source = load_symbol_source(str(demo_fixtures / "source_arxiv.tsv"), "arxiv")
        concept_map = load_concept_map(str(demo_fixtures / "concept_map.tsv"))

        def report():
            return run_explain(explain_inputs(docs, source, concept_map), seed=3,
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
