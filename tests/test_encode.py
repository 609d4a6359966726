"""Tokenizer, stopword, lemmatizer, and tf-idf behavior.

Expected tf-idf values come from the brute-force oracle in oracles.py,
never from the implementation under test.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemexplain.corpus import record_to_document
from stemexplain.encode import (LEMMA_EXCEPTIONS, STOPWORDS, SparseVector,
                                TfIdfModel, TokenStream, fit_tfidf, lemmatize,
                                load_lemma_exceptions, load_stopwords, text_streams,
                                tokenize, transform, transform_all)
from stemexplain.errors import ValidationError

from . import oracles
from .oracles import tfidf_vectors

# Characters that tell the two tokenizer patterns apart or trip them up:
# ASCII letters, digits, underscore and punctuation; whitespace of both
# kinds; the Kelvin and Ohm signs and dotted capital I, whose lowercase
# forms are ASCII or longer; Latin, Greek and CJK letters; combining marks;
# non-ASCII digits.
_TRICKY = "aZz09_-=. \t\n\u00a0\u212a\u2126\u0130\u00df\u00e9\u00c9\u03a3\u03c2\u4e2d\u0301\u0663\uff11\u2028"

# Stopwords, plurals the lemmatizer rewrites or keeps, and non-ASCII tokens.
_STREAM_WORDS = ["the", "of", "is", "are", "and", "vortices", "lattices", "classes",
                 "radius", "atlases", "series", "ψ", "schrödinger", "émiles", "größe",
                 "中文", "E=mc2", "well-known"]


def text_document(*texts, doc_id="d"):
    """A document whose text segments are ``texts``, with a formula between them."""
    segments = []
    for text in texts:
        segments += [{"kind": "text", "content": text},
                     {"kind": "formula", "content": "<mi>x</mi>"}]
    return record_to_document({"id": doc_id, "arxiv": [], "msc": [], "segments": segments})


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("Velocity dispersion is") == ["velocity", "dispersion", "is"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_symbol_boundaries(self):
        assert tokenize("E=mc2") == ["e", "mc2"]

    def test_hyphens_and_dashes_split(self):
        assert tokenize("well-known Navier–Stokes") == ["well", "known", "navier", "stokes"]

    def test_underscore_splits(self):
        assert tokenize("gross_pitaevski") == ["gross", "pitaevski"]

    def test_digits_survive(self):
        assert tokenize("about 42 things") == ["about", "42", "things"]

    def test_accented_letters_kept_whole(self):
        assert tokenize("Schrödinger") == ["schrödinger"]

    def test_kelvin_sign_lowercases_to_ascii(self):
        assert tokenize("5\u212a") == ["5k"]

    @given(st.one_of(st.text(alphabet=_TRICKY), st.text()))
    @settings(max_examples=500, deadline=None)
    def test_equals_unicode_pattern_reference(self, text):
        assert tokenize(text) == oracles.tokenize(text)


class TestStopwords:
    def test_paper_style_examples_listed(self):
        for word in ("the", "of", "is", "are"):
            assert word in STOPWORDS

    def test_list_size(self):
        # the shipped list is a fixed artifact; pin its size so silent
        # edits are caught
        assert len(STOPWORDS) == 151

    def test_removal_preserves_order(self):
        assert text_streams([text_document("of the axion")])[0].tokens == ("axion",)

    def test_no_stopwords_unchanged(self):
        doc = text_document("axion condensate")
        assert text_streams([doc]) == [TokenStream.of("d", ["axion", "condensate"])]

    def test_all_stopwords_empty(self):
        assert text_streams([text_document("the of is")])[0].tokens == ()

    def test_loader_matches_constant(self):
        assert load_stopwords() == STOPWORDS


class TestTextStreams:
    @given(st.lists(st.lists(st.lists(st.one_of(st.sampled_from(_STREAM_WORDS),
                                                   st.text(alphabet="aeisyéψ-_ ", max_size=8)),
                                         max_size=6).map(" ".join), max_size=3),
                    max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_classify_stage_loop(self, texts_per_doc):
        docs = [text_document(*texts, doc_id=f"d{i}") for i, texts in enumerate(texts_per_doc)]
        for remove_stopwords in (False, True):
            for lemmatized in (False, True):
                assert (text_streams(docs, remove_stopwords, lemmatized)
                        == oracles.encoded_streams(docs, remove_stopwords, lemmatized))

    def test_defaults_drop_stopwords_only(self):
        doc = text_document("the vortices of", "lattices")
        assert text_streams([doc]) == [TokenStream.of("d", ["vortices", "lattices"])]
        assert (text_streams([doc], remove_stopwords=False, lemmatized=True)[0].tokens
                == ("the", "vortex", "of", "lattice"))


class TestLemmatize:
    @pytest.mark.parametrize("token,expected", [
        ("vortices", "vortex"),
        ("vortex", "vortex"),
        ("equations", "equation"),
        ("properties", "property"),
        ("matrices", "matrix"),
        ("series", "series"),
        ("physics", "physics"),
        ("classes", "class"),
        ("boxes", "box"),
        ("branches", "branch"),
        ("meshes", "mesh"),
        ("analysis", "analysis"),   # -is guard
        ("radius", "radius"),       # -us guard
        ("press", "press"),         # -ss guard
        ("gas", "gas"),             # below length threshold
        ("ties", "tie"),            # too short for -ies, falls to -s
        ("axes", "axis"),
        ("atlases", "atla"),        # -es stem goes through -s stripping too
        ("atlas", "atla"),
        ("aaases", "aaa"),
        ("biases", "bia"),
        ("canvases", "canva"),
    ])
    def test_rules_and_exceptions(self, token, expected):
        assert lemmatize(token) == expected

    def test_exception_table_loads(self):
        exceptions = load_lemma_exceptions()
        assert exceptions["vortices"] == "vortex"
        assert exceptions == LEMMA_EXCEPTIONS

    @given(st.text(alphabet=st.characters(codec="ascii", categories=("Ll",)),
                   min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_on_arbitrary_words(self, token):
        assert lemmatize(lemmatize(token)) == lemmatize(token)

    def test_idempotent_on_exception_targets(self):
        for token in LEMMA_EXCEPTIONS:
            assert lemmatize(lemmatize(token)) == lemmatize(token)

    def test_exception_values_are_fixed_points(self):
        for lemma in LEMMA_EXCEPTIONS.values():
            assert lemmatize(lemma) == lemma

    def test_stream_helper(self):
        doc = text_document("vortices form lattices")
        assert (text_streams([doc], remove_stopwords=False, lemmatized=True)[0].tokens
                == ("vortex", "form", "lattice"))


class TestTokenStream:
    def test_rejects_empty_token(self):
        with pytest.raises(ValidationError):
            TokenStream.of("d", ["ok", ""])

    def test_rejects_whitespace_token(self):
        with pytest.raises(ValidationError):
            TokenStream.of("d", ["two words"])

    @pytest.mark.parametrize("token", ["a\u00a0b", "a\u2003b", "a\u3000b", "a\x1cb"])
    def test_rejects_unicode_whitespace_token(self, token):
        with pytest.raises(ValidationError):
            TokenStream.of("d", ["ok", token])

    @given(st.lists(st.one_of(st.text(alphabet=_TRICKY, max_size=4),
                              st.sampled_from(["", " ", "ok", "a\x1cb"])), max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_check_equals_per_token_reference(self, tokens):
        try:
            oracles.check_tokens("d", tokens)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                TokenStream.of("d", tokens)
            assert str(raised.value) == str(exc)
        else:
            assert TokenStream.of("d", tokens).tokens == tuple(tokens)


class TestSparseVector:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValidationError):
            SparseVector((3, 1), (1.0, 2.0))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValidationError):
            SparseVector((1, 1), (1.0, 2.0))

    def test_norm(self):
        a = SparseVector((0, 2), (3.0, 4.0))
        assert a.norm() == pytest.approx(5.0)


def _streams(token_lists):
    return [TokenStream.of(f"d{i}", tokens) for i, tokens in enumerate(token_lists)]


class TestTfIdf:
    def test_idf_token_in_every_doc(self):
        model = fit_tfidf(_streams([["a", "b"], ["a", "c"], ["a", "d"]]))
        assert model.idf[model.vocabulary["a"]] == pytest.approx(1.0)

    def test_idf_token_in_one_of_three(self):
        model = fit_tfidf(_streams([["a", "b"], ["a", "c"], ["a", "d"]]))
        assert model.idf[model.vocabulary["b"]] == pytest.approx(math.log(4 / 2) + 1)

    def test_vocabulary_first_seen_order(self):
        model = fit_tfidf(_streams([["b", "a"], ["c", "a"]]))
        assert model.vocabulary == {"b": 0, "a": 1, "c": 2}

    def test_refit_identical(self):
        streams = _streams([["x", "y"], ["y", "z"]])
        assert fit_tfidf(streams) == fit_tfidf(streams)

    def test_all_empty_streams_rejected(self):
        with pytest.raises(ValidationError):
            fit_tfidf([TokenStream.of("d", [])])

    def test_single_token_stream_is_unit_vector(self):
        model = fit_tfidf(_streams([["a", "b"], ["c"]]))
        vector = transform(model, TokenStream.of("q", ["c"]))
        assert vector.norm() == pytest.approx(1.0)
        assert len(vector.indices) == 1

    def test_oov_only_stream_is_zero_vector(self):
        model = fit_tfidf(_streams([["a"]]))
        vector = transform(model, TokenStream.of("q", ["unknown", "tokens"]))
        assert vector.indices == () and vector.values == ()

    def test_matches_oracle_on_training_docs(self):
        token_lists = [["axion", "dark", "matter", "axion"],
                       ["dark", "energy", "scale"],
                       ["matter", "matter", "scale", "axion"]]
        streams = _streams(token_lists)
        model = fit_tfidf(streams)
        _, expected = tfidf_vectors(token_lists)
        index_of = model.vocabulary
        for stream, want in zip(streams, expected):
            got = transform(model, stream)
            dense = dict(zip(got.indices, got.values))
            assert len(dense) == len(want)
            for token, weight in want.items():
                assert dense[index_of[token]] == pytest.approx(weight, abs=1e-9)

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(9)
        alphabet = [f"w{i}" for i in range(30)]
        for _ in range(25):
            token_lists = [[rng.choice(alphabet) for _ in range(rng.randrange(1, 20))]
                           for _ in range(rng.randrange(2, 8))]
            streams = _streams(token_lists)
            model = fit_tfidf(streams)
            _, expected = tfidf_vectors(token_lists)
            for stream, want in zip(streams, expected):
                got = transform(model, stream)
                dense = dict(zip(got.indices, got.values))
                for token, weight in want.items():
                    assert dense[model.vocabulary[token]] == pytest.approx(weight, abs=1e-9)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, tokens, rng):
        model = fit_tfidf(_streams([["a", "b", "c"], ["c", "d", "e"]]))
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        assert transform(model, TokenStream.of("q", tokens)) == \
            transform(model, TokenStream.of("q", shuffled))

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_duplication_leaves_normalized_vector_unchanged(self, tokens, k):
        model = fit_tfidf(_streams([["a", "b"], ["b", "c"]]))
        once = transform(model, TokenStream.of("q", tokens))
        repeated = transform(model, TokenStream.of("q", tokens * k))
        assert once.indices == repeated.indices
        for u, v in zip(once.values, repeated.values):
            assert u == pytest.approx(v, abs=1e-9)

    def test_round_trip_record(self):
        model = fit_tfidf(_streams([["a", "b"], ["b"]]))
        assert TfIdfModel.from_record(model.to_record()) == model

    def test_transform_all_matches_transform(self):
        streams = _streams([["a", "b"], ["b", "c"]])
        model = fit_tfidf(streams)
        assert transform_all(model, streams) == [transform(model, s) for s in streams]
