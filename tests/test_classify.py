"""Softmax regression training, splits, and the category cross-prediction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemexplain import classify, corpus, explain
from stemexplain.classify import (LabeledDataset, LogRegModel, classifier_label_map,
                                  derive_seed, evaluate_accuracy,
                                  labeled_documents, loss_and_gradient,
                                  predict_categories, predict_label,
                                  predict_labels, predict_proba, softmax,
                                  stratified_split, train_logreg,
                                  truncate_label)
from stemexplain.corpus import record_to_document
from stemexplain.encode import SparseVector, TokenStream, fit_tfidf, transform_all
from stemexplain.errors import ConvergenceWarning, DomainError, ValidationError
from stemexplain.sources import SymbolNameSource
from stemexplain.stats import build_distribution_library
from stemexplain.synth import demo_corpus

from . import oracles
from .oracles import TrainingError


def vec(*pairs):
    return SparseVector(tuple(i for i, _ in pairs), tuple(v for _, v in pairs))


class TestSoftmax:
    def test_sums_to_one(self):
        probs = softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        scores = np.array([1.0, 2.0, 3.0])
        assert np.allclose(softmax(scores), softmax(scores + 1000.0))

    def test_large_scores_stay_finite(self):
        probs = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    def test_out_is_written_in_place_with_the_same_bits(self):
        scores = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 40.0]])
        expected = softmax(scores)
        assert np.array_equal(scores, [[1.0, 2.0, 3.0], [0.5, -1.0, 40.0]])
        assert softmax(scores, out=scores) is scores
        assert np.array_equal(scores, expected)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        n, d, c = 5, 4, 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        weights = rng.normal(scale=0.3, size=(c, d))
        bias = rng.normal(scale=0.1, size=c)
        l2 = 1e-2
        _, grad_w, grad_b = loss_and_gradient(weights, bias, x, y, l2)
        eps = 1e-6

        def loss_at(w, b):
            value, _, _ = loss_and_gradient(w, b, x, y, l2)
            return value

        for i in range(c):
            for j in range(d):
                up = weights.copy(); up[i, j] += eps
                down = weights.copy(); down[i, j] -= eps
                numeric = (loss_at(up, bias) - loss_at(down, bias)) / (2 * eps)
                assert grad_w[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)
        for i in range(c):
            up = bias.copy(); up[i] += eps
            down = bias.copy(); down[i] -= eps
            numeric = (loss_at(weights, up) - loss_at(weights, down)) / (2 * eps)
            assert grad_b[i] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_bias_unregularized(self):
        x = np.array([[1.0]])
        y = np.array([0])
        weights = np.array([[2.0], [0.0]])
        bias = np.array([5.0, 0.0])
        _, _, grad_b_small = loss_and_gradient(weights, bias, x, y, 0.0)
        _, _, grad_b_large = loss_and_gradient(weights, bias, x, y, 10.0)
        assert np.allclose(grad_b_small, grad_b_large)


def separable_dataset():
    vectors = [vec((0, 1.0)), vec((0, 0.9)), vec((1, 1.0)), vec((1, 0.8))]
    labels = ["neg", "neg", "pos", "pos"]
    return LabeledDataset(vectors, labels, dim=2)


class TestTraining:
    def test_separable_reaches_full_accuracy(self):
        data = separable_dataset()
        model = train_logreg(data)
        assert evaluate_accuracy(model, data) == 1.0

    def test_training_deterministic(self):
        data = separable_dataset()
        a = train_logreg(data)
        b = train_logreg(data)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_loss_decreases(self):
        model = train_logreg(separable_dataset())
        # two balanced classes start at ln 2
        assert model.metadata["final_loss"] < np.log(2)

    def test_classes_sorted(self):
        model = train_logreg(separable_dataset())
        assert model.classes == ["neg", "pos"]

    def test_divergent_step_raises(self):
        with pytest.raises(TrainingError):
            oracles.gradient_descent(separable_dataset(), step=1e18, max_iterations=80)

    def test_round_trip_record(self):
        model = train_logreg(separable_dataset())
        clone = LogRegModel.from_record(model.to_record())
        assert clone.classes == model.classes
        assert np.allclose(clone.weights, model.weights)
        assert np.allclose(clone.bias, model.bias)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            LabeledDataset([vec((0, 1.0))], ["a", "b"], dim=1)

    def test_single_class_untrainable(self):
        data = LabeledDataset([vec((0, 1.0))], ["only"], dim=1)
        with pytest.raises(ValidationError):
            train_logreg(data)


def demo_dataset():
    """Raw text tokens of the demo corpus, tf-idf encoded, arXiv labels."""
    docs, labels, _ = labeled_documents(demo_corpus(), "arxiv")
    streams = [TokenStream.of(d.doc_id, d.text_tokens()) for d in docs]
    encoder = fit_tfidf(streams)
    return LabeledDataset(transform_all(encoder, streams), labels,
                          dim=len(encoder.vocabulary))


class TestLbfgs:
    @pytest.mark.parametrize("make", [separable_dataset, demo_dataset])
    def test_converges_below_gradient_descent_loss(self, make):
        data = make()
        descent = oracles.gradient_descent(data, max_iterations=500)
        model = train_logreg(data)
        assert model.metadata["solver"] == "lbfgs"
        assert model.metadata["converged"] is True
        assert model.metadata["iterations"] < 500
        assert model.metadata["final_loss"] <= descent.metadata["final_loss"]
        assert model.metadata["grad_norm"] < descent.metadata["grad_norm"]

    def test_fits_bit_identical(self):
        data = demo_dataset()
        a = train_logreg(data)
        b = train_logreg(data)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert a.metadata == b.metadata

    def test_iteration_cap_warns_and_returns_model(self):
        with pytest.warns(ConvergenceWarning) as record:
            model = train_logreg(demo_dataset(), max_iterations=1)
        assert model.metadata["iterations"] == 1
        assert model.metadata["converged"] is False
        assert record[0].message.iterations == 1
        assert record[0].message.final_loss == model.metadata["final_loss"]


class TestBatchScoring:
    def test_matches_per_row_reference(self):
        data = demo_dataset()
        model = train_logreg(data)
        rows = [(v.indices, v.values) for v in data.vectors]
        expected = oracles.argmax_predictions(model.weights.tolist(), model.bias.tolist(),
                                              model.classes, rows)
        assert predict_labels(model, data.vectors) == expected
        hits = sum(1 for guess, label in zip(expected, data.labels) if guess == label)
        assert evaluate_accuracy(model, data) == hits / len(data.labels)

    def test_ties_go_to_lowest_class_index(self):
        model = LogRegModel(["b-class", "a-class"], np.zeros((2, 2)), np.zeros(2), {})
        assert predict_labels(model, [SparseVector((), ()), vec((1, 1.0))]) == ["b-class"] * 2

    def test_index_beyond_model_dim_rejected(self):
        model = train_logreg(separable_dataset())
        with pytest.raises(ValidationError):
            evaluate_accuracy(model, LabeledDataset([vec((7, 1.0))], ["neg"]))


class TestPrediction:
    def test_proba_sums_to_one(self):
        model = train_logreg(separable_dataset())
        assert predict_proba(model, vec((0, 1.0))).sum() == pytest.approx(1.0)

    def test_index_beyond_dim_rejected(self):
        model = train_logreg(separable_dataset())
        with pytest.raises(ValidationError):
            predict_proba(model, vec((7, 1.0)))

    def test_zero_vector_tie_goes_lexicographic(self):
        model = LogRegModel(("b-class", "a-class"), np.zeros((2, 2)),
                            np.zeros(2), {})
        # classes stored as given; argmax on equal scores picks index 0
        assert predict_label(model, SparseVector((), ())) == "b-class"

    def test_near_tie_is_decided_on_raw_scores(self):
        # softmax rounds both probabilities to 0.5; the scores still differ
        model = LogRegModel(["a", "b"], np.zeros((2, 1)), np.array([0.0, 1e-20]), {})
        zero = SparseVector((), ())
        assert oracles.argmax_predictions([[0.0], [0.0]], [0.0, 1e-20], ["a", "b"],
                                          [((), ())]) == ["b"]
        assert predict_labels(model, [zero]) == ["b"]
        assert predict_label(model, zero) == predict_labels(model, [zero])[0]

    def test_accuracy_empty_rejected(self):
        model = train_logreg(separable_dataset())
        with pytest.raises(DomainError):
            evaluate_accuracy(model, LabeledDataset([], [], dim=2))


class TestDeriveSeed:
    def test_construction(self):
        digest = hashlib.sha256(b"7/split/astro-ph").digest()
        assert derive_seed(7, "split", "astro-ph") == int.from_bytes(digest[:8], "big")

    def test_distinct_parts_distinct_seeds(self):
        assert derive_seed(7, "a") != derive_seed(7, "b") != derive_seed(8, "b")


class TestStratifiedSplit:
    def test_partition_and_order(self):
        labels = ["a"] * 10 + ["b"] * 5
        train, test = stratified_split(labels, 0.2, 3)
        assert sorted(train + test) == list(range(15))
        assert train == sorted(train) and test == sorted(test)

    def test_per_label_test_counts(self):
        labels = ["a"] * 10 + ["b"] * 5
        train, test = stratified_split(labels, 0.2, 3)
        assert sum(1 for i in test if labels[i] == "a") == 2
        assert sum(1 for i in test if labels[i] == "b") == 1

    def test_singleton_label_stays_in_train(self):
        labels = ["a", "a", "a", "b"]
        train, test = stratified_split(labels, 0.5, 1)
        assert labels.index("b") in train

    def test_every_label_keeps_a_training_instance(self):
        labels = ["a", "a", "b", "b"]
        train, _ = stratified_split(labels, 0.9, 0)
        assert {labels[i] for i in train} == {"a", "b"}

    def test_deterministic_per_seed(self):
        labels = ["a", "b"] * 20
        assert stratified_split(labels, 0.25, 9) == stratified_split(labels, 0.25, 9)
        assert stratified_split(labels, 0.25, 9) != stratified_split(labels, 0.25, 10)

    def test_zero_fraction_all_train(self):
        train, test = stratified_split(["a", "a", "b"], 0.0, 0)
        assert test == [] and len(train) == 3


class TestTruncateLabel:
    def test_arxiv_coarse_keeps_first_level(self):
        assert truncate_label("astro-ph.SR", "arxiv", "coarse") == "astro-ph"
        assert truncate_label("hep-th", "arxiv", "coarse") == "hep-th"

    def test_msc_coarse_keeps_two_digits(self):
        assert truncate_label("85A05", "msc", "coarse") == "85"

    def test_fine_is_identity(self):
        assert truncate_label("astro-ph.SR", "arxiv", "fine") == "astro-ph.SR"
        assert truncate_label("85A05", "msc", "fine") == "85A05"


def fanout_docs():
    """Each MSC code implies one arXiv class; each class spreads over 3 codes."""
    docs = []
    classes = ["c-a", "c-b", "c-c"]
    for ci, cls in enumerate(classes):
        for j in range(12):
            code = f"{20 + ci}A{j % 3 + 1:02d}"
            record = {"id": f"{cls}-{j}", "arxiv": [cls], "msc": [code],
                      "segments": [{"kind": "text", "content": "stub"}]}
            docs.append(record_to_document(record))
    return docs


class TestPredictCategories:
    def test_fanout_direction(self):
        docs = fanout_docs()
        from_msc = predict_categories(docs, "arxiv-from-msc", seed=1)
        from_arxiv = predict_categories(docs, "msc-from-arxiv", seed=1)
        assert from_msc.accuracy == 1.0
        assert from_arxiv.accuracy < 0.67
        assert from_msc.evaluated_on == "test"

    def test_multi_label_expansion(self):
        record = {"id": "d", "arxiv": ["c-a"], "msc": ["20A01", "21A01"],
                  "segments": [{"kind": "text", "content": "stub"}]}
        docs = fanout_docs() + [record_to_document(record)]
        pairs, skipped = oracles.expand_multilabel(docs, "msc")
        assert len(pairs) == len(fanout_docs()) + 2
        assert skipped == 0
        report = predict_categories(docs, "msc-from-arxiv", label_mode="multi", seed=1)
        assert report.n_train + report.n_test == len(pairs)

    def test_coarse_granularity_collapses_codes(self):
        docs = fanout_docs()
        report = predict_categories(docs, "msc-from-arxiv", granularity="coarse", seed=1)
        # after truncation each class maps to exactly one 2-digit prefix
        assert report.accuracy == 1.0

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValidationError):
            predict_categories(fanout_docs(), "sideways")

    def test_docs_missing_an_axis_are_skipped(self):
        record = {"id": "bare", "arxiv": ["c-a"], "msc": [],
                  "segments": [{"kind": "text", "content": "stub"}]}
        docs = fanout_docs() + [record_to_document(record)]
        report = predict_categories(docs, "arxiv-from-msc", seed=1)
        assert report.skipped == 1

    @pytest.mark.parametrize("label_mode", ["single", "multi"])
    def test_tfidf_fitted_on_training_instances_only(self, monkeypatch, label_mode):
        records = [{"id": f"two-{j}", "arxiv": ["c-a", "c-b"], "msc": ["20A01"],
                    "segments": [{"kind": "text", "content": "stub"}]} for j in range(4)]
        docs = fanout_docs() + [record_to_document(r) for r in records]
        fitted = []
        fit_tfidf_unspied = classify.fit_tfidf

        def spy(streams):
            fitted.append(len(streams))
            return fit_tfidf_unspied(streams)

        monkeypatch.setattr(classify, "fit_tfidf", spy)
        report = predict_categories(docs, "arxiv-from-msc", label_mode=label_mode, seed=1)
        assert report.n_test > 0
        extra_instances = 4 if label_mode == "multi" else 0
        assert report.n_train + report.n_test == len(docs) + extra_instances
        assert fitted == [report.n_train]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_multi_label_documents_fall_on_one_side(self, monkeypatch, seed):
        records = [{"id": f"two-{j}", "arxiv": ["c-a", "c-b"], "msc": ["20A01"],
                    "segments": [{"kind": "text", "content": "stub"}]} for j in range(4)]
        docs = fanout_docs() + [record_to_document(r) for r in records]
        fitted = []
        fit_unspied = classify.fit_split_model

        def spy(streams, labels, train_idx, *args, **kwargs):
            fitted.append((streams, labels, train_idx))
            return fit_unspied(streams, labels, train_idx, *args, **kwargs)

        monkeypatch.setattr(classify, "fit_split_model", spy)
        report = predict_categories(docs, "arxiv-from-msc", label_mode="multi", seed=seed)
        ((streams, labels, train_idx),) = fitted
        train = set(train_idx)
        train_docs = {streams[i].doc_id for i in train}
        test_docs = {s.doc_id for i, s in enumerate(streams) if i not in train}
        assert train_docs.isdisjoint(test_docs)
        assert train_docs | test_docs == {d.doc_id for d in docs}
        assert report.n_train + report.n_test == len(docs) + 4
        assert [labels[i] for i, s in enumerate(streams) if s.doc_id == "two-0"] == ["c-a", "c-b"]


class TestClassifierLabelMap:
    def test_fanout_mapping(self):
        docs = fanout_docs()
        assert classifier_label_map(docs, "arxiv-from-msc") == {
            f"{20 + ci}A0{j}": cls for ci, cls in enumerate(["c-a", "c-b", "c-c"])
            for j in (1, 2, 3)}
        assert classifier_label_map(docs, "msc-from-arxiv") == {
            "c-a": "20A01", "c-b": "21A02", "c-c": "22A02"}


ARXIV_LABELS = ("math.AP", "math.CO", "math", "hep-th", "cs.LG")
MSC_LABELS = ("35A01", "35B05", "05C10", "68T05")

# Corpora of multi-label, unlabeled and one-axis-only documents.
label_corpora = st.lists(
    st.tuples(st.lists(st.sampled_from(ARXIV_LABELS), unique=True, max_size=3),
              st.lists(st.sampled_from(MSC_LABELS), unique=True, max_size=3)),
    max_size=8,
).map(lambda labels: [record_to_document({
    "id": f"d{i}", "arxiv": arxiv, "msc": msc,
    "segments": [{"kind": "text", "content": "stub"}]}) for i, (arxiv, msc) in enumerate(labels)])


def outcome(function, *args):
    """The result of the call, or the text of the ValidationError it raised."""
    try:
        return function(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestLabelRules:
    @given(label_corpora, st.sampled_from(["arxiv-from-msc", "msc-from-arxiv"]),
           st.sampled_from(["single", "multi"]), st.sampled_from(["fine", "coarse"]))
    @settings(max_examples=200, deadline=None)
    def test_category_streams_match_the_prediction_loop(self, docs, direction, label_mode,
                                                        granularity):
        axes = classify.direction_axes(direction)
        expected = outcome(oracles.category_prediction_streams, docs, *axes, label_mode,
                           granularity)
        got = outcome(classify._label_streams, docs, *axes, granularity)
        if isinstance(got, tuple) and label_mode == "single":
            streams, targets, skipped = got
            got = streams, [target[:1] for target in targets], skipped
        assert got == expected

    @given(label_corpora, st.sampled_from(["arxiv-from-msc", "msc-from-arxiv"]))
    @settings(max_examples=200, deadline=None)
    def test_fine_streams_match_the_label_map_loop(self, docs, direction):
        axes = classify.direction_axes(direction)
        expected = outcome(oracles.label_map_streams, docs, *axes)
        got = outcome(classify._label_streams, docs, *axes)
        if isinstance(got, tuple):
            streams, targets, _ = got
            got = (streams, [target[0] for target in targets],
                   {label for stream in streams for label in stream.tokens})
        assert got == expected

    @given(label_corpora, st.sampled_from(["arxiv", "msc"]))
    @settings(max_examples=200, deadline=None)
    def test_labeled_documents_in_every_caller(self, docs, axis):
        expected = outcome(oracles.primary_labeled, docs, axis)
        got = outcome(labeled_documents, docs, axis)
        if isinstance(got, tuple):
            kept, labels, skipped = got
            got = list(zip(kept, labels)), skipped
        assert got == expected
        assert labeled_documents is corpus.labeled_documents
        if not docs:
            return
        library = outcome(build_distribution_library, docs, axis)
        inputs = outcome(explain.explain_inputs, docs, SymbolNameSource("empty", {}), None,
                         axis)
        if isinstance(expected, str):
            assert library == inputs == expected
            return
        pairs, skipped = expected
        assert (library.document_count, library.skipped_unlabeled) == (len(pairs), skipped)
        assert list(zip(inputs.doc_ids, inputs.labels)) == [(d.doc_id, label)
                                                            for d, label in pairs]
        by_class = {}
        for doc, label in sorted(pairs, key=lambda pair: (pair[1], pair[0].doc_id)):
            by_class.setdefault(label, []).append(doc.doc_id)
        assert explain._ids_by_class(inputs.doc_ids, inputs.labels) == by_class
