"""Corpus records: parsing, validation, round-trips, synthetic generation."""

import copy
import json
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemexplain import corpus, synth
from stemexplain.corpus import (FORMULA, TEXT, Document, GoldAnnotations, Segment,
                                corpus_to_text, document_identifiers,
                                document_to_record, load_corpus,
                                parse_corpus_text, primary_label,
                                record_to_document, save_corpus, tsv_fields)
from stemexplain.errors import ParseError, ValidationError
from stemexplain.formulas import parse_formula
from stemexplain.synth import (DEMO_CONFIG, SynthConfig, demo_corpus,
                               generate_synthetic_corpus)

from . import oracles
from .test_formulas import formula_markup


def make_record(**overrides):
    record = {
        "id": "doc1",
        "arxiv": ["astro-ph.SR"],
        "msc": ["85A05"],
        "segments": [
            {"kind": "text", "content": "energy balance of"},
            {"kind": "formula", "content": "<mi>E</mi><mo>=</mo><mi>m</mi><mi>c</mi>",
             "fid": "f1"},
        ],
    }
    record.update(overrides)
    return record


class TestRecordParsing:
    def test_both_label_schemes_carried(self):
        doc = record_to_document(make_record())
        assert doc.arxiv_categories == ["astro-ph.SR"]
        assert doc.msc_codes == ["85A05"]

    def test_missing_id_is_parse_error(self):
        record = make_record()
        del record["id"]
        with pytest.raises(ParseError):
            record_to_document(record)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            record_to_document(make_record(extra=1))

    def test_unknown_segment_key_rejected(self):
        record = make_record()
        record["segments"][0]["surprise"] = True
        with pytest.raises(ParseError):
            record_to_document(record)

    def test_bad_msc_code_rejected(self):
        with pytest.raises(ParseError):
            record_to_document(make_record(msc=["8A05"]))

    def test_dash_msc_code_accepted(self):
        doc = record_to_document(make_record(msc=["85-05"]))
        assert doc.msc_codes == ["85-05"]

    def test_bad_arxiv_code_rejected(self):
        with pytest.raises(ParseError):
            record_to_document(make_record(arxiv=["astro.ph.SR"]))

    def test_one_level_arxiv_accepted(self):
        doc = record_to_document(make_record(arxiv=["hep-th"]))
        assert doc.arxiv_categories == ["hep-th"]

    def test_bad_segment_kind_rejected(self):
        record = make_record(segments=[{"kind": "image", "content": "x"}])
        with pytest.raises(ParseError):
            record_to_document(record)

    def test_malformed_formula_markup_rejected(self):
        record = make_record(segments=[{"kind": "formula", "content": "<mi>E"}])
        with pytest.raises(ParseError):
            record_to_document(record)

    def test_fid_on_text_segment_rejected(self):
        record = make_record(segments=[{"kind": "text", "content": "x", "fid": "f9"}])
        with pytest.raises(ParseError):
            record_to_document(record)


class TestGoldParsing:
    def test_gold_fields_parsed(self):
        record = make_record(gold={
            "identifier_names": {"f1": {"E": "energy"}},
            "entity_relevance": {"velocity dispersion": 1, "is of": 0, "the axion": 0.5},
            "entity_targets": {"velocity dispersion": {"title": "Velocity_dispersion",
                                                       "qid": "Q530873"}},
            "concept_relevance": {"f1": {"mass energy": 2}},
        })
        doc = record_to_document(record)
        assert doc.gold.identifier_names["f1"]["E"] == "energy"
        assert doc.gold.entity_relevance["the axion"] == 0.5
        assert doc.gold.entity_targets["velocity dispersion"]["qid"] == "Q530873"
        assert doc.gold.concept_relevance["f1"]["mass energy"] == 2

    def test_relevance_outside_enum_rejected(self):
        record = make_record(gold={"entity_relevance": {"x y": 0.7}})
        with pytest.raises(ParseError):
            record_to_document(record)

    def test_concept_score_outside_enum_rejected(self):
        record = make_record(gold={"concept_relevance": {"f1": {"x": 3}}})
        with pytest.raises(ParseError):
            record_to_document(record)

    def test_unknown_target_key_rejected(self):
        record = make_record(gold={"entity_targets": {"x y": {"url": "nope"}}})
        with pytest.raises(ParseError):
            record_to_document(record)


class TestCorpusText:
    def test_two_records_in_file_order(self):
        text = (json.dumps(make_record()) + "\n"
                + json.dumps(make_record(id="doc2")) + "\n")
        docs = parse_corpus_text(text)
        assert [d.doc_id for d in docs] == ["doc1", "doc2"]

    def test_parse_error_names_line(self):
        text = json.dumps(make_record()) + "\n{not json}\n"
        with pytest.raises(ParseError) as err:
            parse_corpus_text(text)
        assert "line 2" in str(err.value)

    def test_duplicate_id_rejected(self):
        text = json.dumps(make_record()) + "\n" + json.dumps(make_record()) + "\n"
        with pytest.raises(ParseError) as err:
            parse_corpus_text(text)
        assert err.value.line == 2
        assert str(err.value) == "line 2: duplicate document id 'doc1'"

    def test_round_trip(self, tmp_path):
        docs = demo_corpus()
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_round_trip_text_stable(self):
        docs = demo_corpus()
        text = corpus_to_text(docs)
        assert corpus_to_text(parse_corpus_text(text)) == text

    def test_record_round_trip(self):
        record = make_record(gold={"identifier_names": {"f1": {"E": "energy"}}})
        doc = record_to_document(record)
        assert record_to_document(document_to_record(doc)) == doc


def _without(key):
    record = make_record()
    del record[key]
    return record


def _segment(**fields):
    return make_record(segments=[{"kind": "formula", "content": "<mi>x</mi>", **fields}])


class TestErrorMessages:
    """Each malformed field raises the first failing check's exact message and line."""

    @pytest.mark.parametrize("record, message", [
        ([], "record must be an object"),
        (make_record(zeta=1, alpha=2), "unknown record keys: ['alpha', 'zeta']"),
        ({"arxiv": [], "msc": [], "segments": [], "x": 1}, "unknown record keys: ['x']"),
        (_without("id"), "missing required field 'id'"),
        (_without("segments"), "missing required field 'segments'"),
        (make_record(id=""), "id must be a non-empty string"),
        (make_record(id=7), "id must be a non-empty string"),
        (make_record(arxiv="math.AP"), "arxiv must be an array"),
        (make_record(msc={}), "msc must be an array"),
        (make_record(arxiv=["astro.ph.SR"]), "bad arxiv category 'astro.ph.SR'"),
        (make_record(arxiv=[3]), "bad arxiv category 3"),
        (make_record(msc=["85A05", "8A05"]), "bad msc code '8A05'"),
        (make_record(segments={}), "segments must be an array"),
        (make_record(segments=["x"]), "segment must be an object"),
        (_segment(b=1, a=2), "unknown segment keys: ['a', 'b']"),
        (_segment(kind="image"), "segment kind must be text or formula, got 'image'"),
        (make_record(segments=[{"content": "x"}]),
         "segment kind must be text or formula, got None"),
        (_segment(content=5), "segment content must be a string"),
        (_segment(kind="text", fid="f1"), "fid is only valid on formula segments"),
        (_segment(fid=""), "fid must be a non-empty string"),
        (_segment(fid=3), "fid must be a non-empty string"),
        (make_record(segments=[{"kind": "formula", "content": "<mi>x</mi>", "fid": "f1"}] * 2),
         "duplicate formula id 'f1'"),
        (_segment(content="<mi>E"),
         "in document 'doc1': malformed formula markup: mismatched tag: line 1, column 16"),
        (make_record(gold=[]), "gold must be an object"),
        (make_record(gold={"zz": {}, "aa": {}}), "unknown gold keys: ['aa', 'zz']"),
        (make_record(gold={"identifier_names": [], "entity_targets": []}),
         "gold entity_targets must be an object"),
        (make_record(gold={"identifier_names": {"f1": "energy"}}),
         "identifier names must be an object"),
        (make_record(gold={"entity_relevance": {"x y": 0.7}}),
         "entity relevance must be 0, 0.5 or 1, got 0.7"),
        (make_record(gold={"entity_relevance": {"x y": True}}),
         "entity relevance must be 0, 0.5 or 1, got True"),
        (make_record(gold={"entity_targets": {"x y": "T"}}), "entity target must be an object"),
        (make_record(gold={"entity_targets": {"x y": {"url": "u", "b": 1}}}),
         "unknown entity target keys: ['b', 'url']"),
        (make_record(gold={"concept_relevance": {"f1": ["x"]}}),
         "concept scores must be an object"),
        (make_record(gold={"concept_relevance": {"f1": {"x": 3}}}),
         "concept score must be 0, 1 or 2, got 3"),
        (make_record(id="astro\tph-000"), "id 'astro\\tph-000' holds a tab or line break"),
        (_segment(fid="f\r1"), "fid 'f\\r1' holds a tab or line break"),
        (make_record(segments=[{"kind": "formula", "content": "<mi>x</mi>", "fid": "seg1"},
                               {"kind": "formula", "content": "<mi>y</mi>"}]),
         "duplicate formula id 'seg1'"),
        (_segment(content="<mi>ab&#10;c</mi>"),
         "in document 'doc1': identifier 'ab\\nc' holds a tab or line break"),
        (make_record(gold={"identifier_names": {"f1": {"E": "energy\n"}}}),
         "identifier name 'energy\\n' holds a tab or line break"),
        (make_record(gold={"entity_relevance": {"wave\tfunction": 1}}),
         "judged n-gram 'wave\\tfunction' holds a tab or line break"),
        (make_record(gold={"entity_relevance": {"Common0 Common1": 1, "common0 common1": 0}}),
         "gold entity_relevance keys 'Common0 Common1' and 'common0 common1' name one n-gram "
         "'common0 common1'"),
        (make_record(gold={"entity_targets": {"wave_function": {}, "Wave function": {}}}),
         "gold entity_targets keys 'wave_function' and 'Wave function' name one n-gram "
         "'wave function'"),
        (make_record(gold={"concept_relevance": {"f1": {"energy level": 2, "Energy-level": 0}}}),
         "gold concept_relevance phrases of 'f1': 'energy level' and 'Energy-level' name one "
         "n-gram 'energy level'"),
    ])
    def test_message_and_line(self, record, message):
        text = json.dumps(make_record(id="doc0")) + "\n\n" + json.dumps(record) + "\n"
        with pytest.raises(ParseError) as err:
            parse_corpus_text(text)
        assert err.value.line == 3
        assert str(err.value) == f"line 3: {message}"


class TestDocumentAccessors:
    def test_token_layout_positions(self):
        doc = record_to_document(make_record(segments=[
            {"kind": "text", "content": "alpha beta"},
            {"kind": "formula", "content": "<mi>x</mi>", "fid": "f1"},
            {"kind": "text", "content": "gamma"},
            {"kind": "formula", "content": "<mi>y</mi>", "fid": "f2"},
        ]))
        tokens, positions = doc.token_layout()
        assert tokens == ["alpha", "beta", "gamma"]
        assert positions == [("f1", 2), ("f2", 3)]

    def test_positional_fid_fallback(self):
        doc = record_to_document(make_record(segments=[
            {"kind": "text", "content": "alpha"},
            {"kind": "formula", "content": "<mi>x</mi>"},
        ]))
        assert doc.formula_ids() == ["seg1"]

    def test_identifier_occurrences_reference_known_formulas(self):
        for doc in demo_corpus():
            fids = set(doc.formula_ids())
            for occurrence in document_identifiers(doc):
                assert occurrence.formula_id in fids
                assert occurrence.doc_id == doc.doc_id

    def test_gold_names_attached(self):
        record = make_record(gold={"identifier_names": {"f1": {"E": "energy"}}})
        occurrences = document_identifiers(record_to_document(record))
        by_symbol = {o.symbol: o.name for o in occurrences}
        assert by_symbol["E"] == "energy"
        assert by_symbol["m"] is None

    def test_primary_label(self):
        doc = record_to_document(make_record(arxiv=["hep-th", "math-ph"]))
        assert primary_label(doc, "arxiv") == "hep-th"
        assert primary_label(record_to_document(make_record(arxiv=[])), "arxiv") is None


class TestSyntheticGeneration:
    def test_deterministic(self):
        config = SynthConfig(classes=("a", "b", "c"), docs_per_class=10, seed=7)
        assert generate_synthetic_corpus(config) == generate_synthetic_corpus(config)

    def test_shared_symbol_in_all_classes_names_class_pure(self):
        config = SynthConfig(classes=("a", "b"), docs_per_class=4, seed=3,
                             shared_symbols=("t",), symbols_per_formula=1)
        docs = generate_synthetic_corpus(config)
        names_by_class = {}
        for doc in docs:
            for occurrence in document_identifiers(doc):
                assert occurrence.symbol == "t"
                names_by_class.setdefault(doc.arxiv_categories[0], set()).add(occurrence.name)
        assert set(names_by_class) == {"a", "b"}
        assert names_by_class["a"].isdisjoint(names_by_class["b"])

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(SynthConfig(classes=(), docs_per_class=2))
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(SynthConfig(classes=("only",), docs_per_class=2))

    def test_demo_corpus_shape(self):
        docs = demo_corpus()
        assert len(docs) == len(DEMO_CONFIG.classes) * DEMO_CONFIG.docs_per_class
        with_entity_gold = [d for d in docs if d.gold and d.gold.entity_relevance]
        with_concept_gold = [d for d in docs if d.gold and d.gold.concept_relevance]
        assert len(with_entity_gold) == len(DEMO_CONFIG.classes)
        assert len(with_concept_gold) == len(DEMO_CONFIG.classes)

    def test_demo_corpus_valid_records(self):
        # every demo document survives the strict parser
        for doc in demo_corpus():
            assert record_to_document(document_to_record(doc)) == doc


@st.composite
def segment_lists(draw):
    """Interleaved text and formula segments; formulas may be malformed."""
    segments = []
    for index, kind in enumerate(draw(st.lists(st.sampled_from([TEXT, FORMULA]), max_size=6))):
        if kind == TEXT:
            content = draw(st.text(alphabet="ab Z9_.-\u212a\u00e9\u00a0\u03a3", max_size=12))
            segments.append({"kind": TEXT, "content": content})
        else:
            segment = {"kind": FORMULA, "content": draw(formula_markup())}
            if draw(st.booleans()):
                segment["fid"] = f"f{index}"
            segments.append(segment)
    return segments


class TestOncePerDocument:
    """One parse per formula and one layout per document, equal to the
    references that parse and tokenize again on every call."""

    @given(segment_lists())
    @settings(max_examples=300, deadline=None)
    def test_load_equals_references(self, segments):
        names = {f"f{i}": {"x": "position", "T": "temperature"} for i in range(6)}
        record = make_record(segments=segments, gold={"identifier_names": names})
        expected_error = None
        for segment in segments:
            if segment["kind"] == FORMULA:
                try:
                    parse_formula(segment["content"])
                except ParseError as exc:
                    expected_error = f"line 7: in document 'doc1': {exc}"
                    break
        if expected_error is not None:
            with pytest.raises(ParseError) as raised:
                record_to_document(record, 7)
            assert str(raised.value) == expected_error
            assert raised.value.line == 7
            return
        doc = record_to_document(record, 7)
        expected = oracles.token_layout(doc)
        assert doc.token_layout() == expected
        assert doc.token_layout() == expected
        assert doc.text_tokens() == expected[0]
        assert document_identifiers(doc) == oracles.document_identifiers(doc)

    def test_returned_lists_are_fresh(self):
        doc = record_to_document(make_record())
        doc.text_tokens().append("extra")
        tokens, positions = doc.token_layout()
        tokens.clear()
        positions.clear()
        assert doc.token_layout() == (["energy", "balance", "of"], [("f1", 3)])

    def test_segment_changes_reach_the_layout(self):
        doc = record_to_document(make_record())
        assert doc.text_tokens() == ["energy", "balance", "of"]
        doc.segments[0] = Segment(TEXT, "mass of")
        assert doc.token_layout() == (["mass", "of"], [("f1", 2)])
        doc.segments.append(Segment(TEXT, "light"))
        assert doc.text_tokens() == ["mass", "of", "light"]
        doc.segments = [Segment(FORMULA, "<mi>c</mi>", "f2")]
        assert doc.token_layout() == ([], [("f2", 0)])
        assert [o.symbol for o in document_identifiers(doc)] == ["c"]

    def test_demo_segment_replacement_leaves_no_stale_layout(self, monkeypatch):
        # demo_corpus replaces a text segment of documents it has already
        # built; lay every document out as soon as it is built, so that the
        # replacement meets a cached layout.
        generate = synth.generate_synthetic_corpus
        before = {}

        def laid_out(config):
            documents = generate(config)
            for doc in documents:
                before[doc.doc_id] = doc.token_layout()
            return documents

        monkeypatch.setattr(synth, "generate_synthetic_corpus", laid_out)
        docs = synth.demo_corpus()
        for doc in docs:
            assert doc.token_layout() == oracles.token_layout(doc)
        changed = [doc for doc in docs if doc.token_layout() != before[doc.doc_id]]
        assert len(changed) == len(DEMO_CONFIG.classes)

    def test_formula_segments_parse_when_made(self):
        assert Segment(FORMULA, "<mi>E</mi><msup><mi>c</mi><mn>2</mn></msup>").identifiers == (
            "E", "c")
        assert Segment(TEXT, "<mi>E</mi>").identifiers == ()
        with pytest.raises(ParseError, match="malformed formula markup"):
            Segment(FORMULA, "<mi>E</mi><mo>=")


class TestLineSeparators:
    """Records are separated by "\\n" only, so a text may hold other line breaks."""

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_saved_corpus_reloads(self, tmp_path, separator):
        doc = record_to_document(make_record(segments=[
            {"kind": "text", "content": f"wave{separator}function"},
            {"kind": "formula", "content": "<mi>E</mi>", "fid": "f1"}]))
        path = tmp_path / "corpus.jsonl"
        save_corpus([doc], path)
        assert separator in path.read_text(encoding="utf-8")  # written unescaped
        assert load_corpus(path) == [doc]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_parse_error_line_numbers(self, tmp_path, newline):
        record = json.dumps(make_record())
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(newline.join([record, "", "{not json}", ""]).encode("utf-8"))
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert err.value.line == 3

    def test_line_numbers_count_only_newlines(self):
        first = json.dumps(make_record(segments=[
            {"kind": "text", "content": "wave\u2028function\u0085end"}]), ensure_ascii=False)
        with pytest.raises(ParseError) as err:
            parse_corpus_text(first + "\n{not json}\n")
        assert err.value.line == 2


class TestNotUtf8:
    """Bytes that are not UTF-8 are a ParseError naming the file, line and byte offset."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_corpus(self, tmp_path, newline):
        good = json.dumps(make_record()).encode("utf-8")
        bad = json.dumps(make_record(id="doc3")).encode("utf-8").replace(b"energy", b"en\xffergy")
        data = newline.encode("ascii").join([good, b"", bad, b""])
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert err.value.line == 3
        offset = data.index(0xFF)
        assert str(err.value) == f"line 3: {path}: not valid UTF-8: byte 0xff at offset {offset}"

    def test_truncated_sequence_at_the_end(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(make_record()).encode("utf-8") + b"\n\xe2\x82")
        with pytest.raises(ParseError, match=r"^line 2: .*byte 0xe2 at offset"):
            load_corpus(path)

    def test_tsv_fields(self, tmp_path):
        path = tmp_path / "gazetteer.tsv"
        data = b"wave\tQ1\nfunction\tQ2\n\nwa\xc3ve\tQ3\n"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            list(tsv_fields(path, 2))
        assert err.value.line == 4
        assert str(err.value) == (f"line 4: {path}: not valid UTF-8: byte 0xc3 "
                                  f"at offset {data.index(0xC3)}")


# Markups a load sees again and again: Greek, scripted, multi-letter and
# malformed ones, next to generated ones.
_FIXED_MARKUPS = st.sampled_from([
    "<mi>\u03b1</mi><mo>+</mo><mi>\u0392</mi>", "<msub><mi>t</mi><mi>k</mi></msub>",
    "<msup><mi>E</mi><mn>2</mn></msup><mi>Re</mi>", "<mi>x</mi>", "<mi>x</mi><mo>=",
    "</mrow>"])


@st.composite
def repeating_corpora(draw):
    """Corpus lines whose formulas draw on a few markups, so markups repeat."""
    pool = draw(st.lists(st.one_of(_FIXED_MARKUPS, formula_markup()), min_size=1, max_size=4))
    lines = []
    for index in range(draw(st.integers(1, 6))):
        segments = [{"kind": FORMULA, "content": markup}
                    for markup in draw(st.lists(st.sampled_from(pool), max_size=4))]
        segments.insert(0, {"kind": TEXT, "content": "the wave"})
        lines.append(json.dumps(make_record(id=f"d{index + 1}", segments=segments)))
    return lines


class TestOneParsePerMarkup:
    """A corpus load parses each distinct formula markup once."""

    @staticmethod
    def counted_load(text):
        """``parse_corpus_text(text)`` and the markups ``extract_identifiers`` got."""
        with mock.patch.object(corpus, "extract_identifiers",
                               wraps=corpus.extract_identifiers) as spy:
            docs = parse_corpus_text(text)
        return docs, [call.args[0] for call in spy.call_args_list]

    @given(repeating_corpora())
    @settings(max_examples=200, deadline=None)
    def test_load_equals_reference_parses(self, lines):
        text = "\n".join(lines) + "\n"
        expected_error = None
        for line_no, line in enumerate(lines, start=1):
            for segment in json.loads(line)["segments"][1:]:
                try:
                    oracles.extract_identifiers(segment["content"])
                except ParseError as exc:
                    expected_error = f"line {line_no}: in document 'd{line_no}': {exc}"
                    break
            if expected_error is not None:
                break
        if expected_error is not None:
            with pytest.raises(ParseError) as raised:
                parse_corpus_text(text)
            assert str(raised.value) == expected_error
            return
        docs, seen = self.counted_load(text)
        markups = [s.content for doc in docs for s in doc.segments if s.kind == FORMULA]
        assert sorted(seen) == sorted(set(markups))
        for doc in docs:
            for segment in doc.segments:
                expected = oracles.extract_identifiers(segment.content) if (
                    segment.kind == FORMULA) else []
                assert segment.identifiers == tuple(expected)
        assert self.counted_load(text)[1] == seen  # a second load parses again

    def test_first_malformed_line_raises_the_unshared_error(self):
        bad = "<mi>x</mi><mo>="
        lines = [make_record(id=f"d{n}") for n in range(1, 9)]
        for n in (3, 7):
            lines[n - 1]["segments"].append({"kind": FORMULA, "content": bad})
        with pytest.raises(ParseError) as unshared:
            Segment(FORMULA, bad)
        with pytest.raises(ParseError) as raised:
            parse_corpus_text("".join(json.dumps(r) + "\n" for r in lines))
        assert raised.value.line == 3
        assert str(raised.value) == f"line 3: in document 'd3': {unshared.value}"

    def test_segments_made_directly_still_parse(self):
        with mock.patch.object(corpus, "extract_identifiers",
                               wraps=corpus.extract_identifiers) as spy:
            Segment(FORMULA, "<mi>x</mi>")
            Segment(FORMULA, "<mi>x</mi>")
        assert spy.call_count == 2


class TestOneConstructionPath:
    """Segments built in code and segments loaded from a file pass the same checks."""

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                         lambda doc: pickle.loads(pickle.dumps(doc))])
    def test_demo_document_copies(self, copy_of):
        doc = demo_corpus()[0]
        doc.token_layout()
        copied = copy_of(doc)
        assert copied == doc
        assert [copy_of(s) for s in doc.segments] == doc.segments
        assert [s.identifiers for s in copied.segments] == [s.identifiers for s in doc.segments]
        assert any(s.identifiers for s in copied.segments)
        assert copied.token_layout() == doc.token_layout()

    @pytest.mark.parametrize("content, symbol", [("<mi>a\tb</mi>", "a\tb"),
                                                 ("<mi>a&#13;b</mi>", "a\rb"),
                                                 ("<mi>a\nb</mi>", "a\nb")])
    def test_code_built_identifier_with_a_break_is_rejected(self, content, symbol):
        with pytest.raises(ParseError) as raised:
            Segment(FORMULA, content)
        assert str(raised.value) == f"identifier {symbol!r} holds a tab or line break"

    def test_replace_parses_the_new_content(self):
        replaced = Segment(FORMULA, "<mi>x</mi>", "f1")._replace(content="<mi>y</mi>")
        assert replaced == Segment(FORMULA, "<mi>y</mi>", "f1")
        assert replaced.identifiers == ("y",)
        assert Segment(FORMULA, "<mi>x</mi>")._replace(kind=TEXT).identifiers == ()
        with pytest.raises(ValueError, match="identifiers"):
            Segment(FORMULA, "<mi>x</mi>")._replace(identifiers=("y",))

    def test_make_checks_its_fields_like_the_constructor(self):
        assert Segment._make((FORMULA, "<mi>x</mi>", "f1", ("stale",))) == Segment(
            FORMULA, "<mi>x</mi>", "f1")
        with pytest.raises(ParseError, match="holds a tab or line break"):
            Segment._make((FORMULA, "<mi>a\tb</mi>", None, ("a\tb",)))

    def test_record_path_keeps_its_message(self):
        record = make_record(id="d", segments=[{"kind": FORMULA, "content": "<mi>a\tb</mi>"}])
        with pytest.raises(ParseError) as raised:
            record_to_document(record, 1)
        assert str(raised.value) == (
            "line 1: in document 'd': identifier 'a\\tb' holds a tab or line break")


def test_summary_counts_every_identifier_occurrence():
    from stemexplain.corpus import corpus_summary

    docs = demo_corpus() + generate_synthetic_corpus(
        SynthConfig(classes=("a", "b"), docs_per_class=3, seed=2, formulas_per_doc=3))
    rows = dict(corpus_summary(docs))
    assert rows["identifier_occurrences"] == sum(len(document_identifiers(doc))
                                                 for doc in docs) > 0
