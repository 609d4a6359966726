"""Symbol-name augmentation, ablation streams, and their experiments."""

import gc
import weakref

import pytest

from stemexplain import augment as augment_mod
from stemexplain.augment import (ABLATION_MODES, MATH_MODE, TEXT_MINUS_MATH,
                                 TEXT_MODE, TEXT_PLUS_MATH, ConceptCategoryMap,
                                 SymbolNameSource, ablate, augment_identifiers,
                                 concept_coverage_violations, distinct_symbols,
                                 load_concept_map, load_symbol_source,
                                 run_ablation_experiment,
                                 run_augmentation_experiment, symbol_tokens)
from stemexplain.corpus import record_to_document
from stemexplain.errors import ParseError, ValidationError

MI = "<mi>{}</mi>"


def doc(doc_id="d1", text="energy of the field", formulas=("Em",), arxiv=("hep-th",)):
    segments = [{"kind": "text", "content": text}]
    for formula in formulas:
        markup = "<math>" + "".join(MI.format(ch) for ch in formula) + "</math>"
        segments.append({"kind": "formula", "content": markup})
    return record_to_document({"id": doc_id, "arxiv": list(arxiv), "msc": [],
                               "segments": segments})


class TestSymbolNameSource:
    def test_rankings_sorted_by_frequency_then_name(self):
        source = SymbolNameSource.from_counts("s", {
            "E": {"energy": 10.0, "error": 10.0, "expectation": 3.0},
        })
        assert source.top_names("E", 3) == ["energy", "error", "expectation"]
        assert source.top_names("E", 1) == ["energy"]

    def test_unknown_symbol_empty(self):
        source = SymbolNameSource.from_counts("s", {})
        assert source.top_names("Z", 5) == []

    def test_load_accumulates_repeated_pairs(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text("E\tenergy\t4\nE\tenergy\t3\nE\terror\t5\n", encoding="utf-8")
        source = load_symbol_source(str(path), "file")
        # 4 + 3 = 7 beats 5
        assert source.top_names("E", 2) == ["energy", "error"]

    def test_load_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text("E\tenergy\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_symbol_source(str(path), "file")

    def test_load_rejects_bad_frequency(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text("E\tenergy\tmany\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_symbol_source(str(path), "file")

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text("\nE\tenergy\t1\n\n", encoding="utf-8")
        assert load_symbol_source(str(path), "file").top_names("E", 1) == ["energy"]

    @pytest.mark.parametrize("frequency", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_load_rejects_non_finite_frequency(self, tmp_path, frequency):
        # A NaN frequency would leave the ranking in the order of the file.
        path = tmp_path / "names.tsv"
        path.write_text(f"x\tbar\t5\nx\tfoo\t{frequency}\nx\tbaz\t9\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^line 2: bad frequency '{frequency}'$"):
            load_symbol_source(str(path), "file")


# Lines the shared field reader must skip or count like iterating over the
# file does: CRLF and lone-CR endings, empty lines, and whitespace-only lines
# (some of which str.splitlines would treat as line breaks).
RAGGED_PREFIX = ("{good}\r\n" "\r\n" "\u3000\n" "{good}\r" "\x0c\n" "\t\x1c\x85 \r"
                 "\n" "{good}\n")


@pytest.mark.parametrize("load, good, bad", [
    pytest.param(lambda path: load_symbol_source(path, "file"), "E\tenergy\t1",
                 "broken\tline", id="source-field-count"),
    pytest.param(lambda path: load_symbol_source(path, "file"), "E\tenergy\t1",
                 "broken\tline\tmany", id="source-frequency"),
    pytest.param(load_concept_map, "wave function\tquant-ph", "broken line",
                 id="concept-map-field-count"),
])
def test_loader_line_numbers_match_file_iteration(tmp_path, load, good, bad):
    path = tmp_path / "ragged.tsv"
    path.write_bytes((RAGGED_PREFIX.format(good=good) + bad + "\r\n" + good + "\n")
                     .encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        expected = next(n for n, line in enumerate(handle, start=1) if line.startswith("broken"))
    assert expected >= 4
    with pytest.raises(ParseError) as excinfo:
        load(str(path))
    assert excinfo.value.line == expected


class TestConceptMap:
    def test_load_and_token_set(self, tmp_path):
        path = tmp_path / "concepts.tsv"
        path.write_text("wave function\tquant-ph\nmetric tensor\tgr-qc\n",
                        encoding="utf-8")
        cmap = load_concept_map(str(path))
        assert cmap.phrases() == ["metric tensor", "wave function"]
        assert cmap.token_set() == {"wave", "function", "metric", "tensor"}

    def test_load_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "concepts.tsv"
        path.write_text("lonely\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_concept_map(str(path))


class TestSymbolExtraction:
    def test_distinct_symbols_first_appearance_order(self):
        d = doc(formulas=("Em", "mE", "c"))
        assert distinct_symbols(d) == ["E", "m", "c"]

    def test_symbol_tokens_one_per_occurrence(self):
        d = doc(formulas=("Em", "mE"))
        assert symbol_tokens(d) == ["e", "m", "m", "e"]


class TestAugmentation:
    def test_appends_top_k_name_tokens(self):
        source = SymbolNameSource.from_counts("s", {
            "E": {"energy": 5.0, "electric field": 2.0},
            "m": {"mass": 9.0},
        })
        stream = augment_identifiers(doc(), source, top_k=2)
        assert stream.tokens == ("energy", "of", "the", "field",
                                 "energy", "electric", "field", "mass")

    def test_unknown_symbols_contribute_nothing(self):
        source = SymbolNameSource.from_counts("s", {})
        stream = augment_identifiers(doc(), source, top_k=3)
        assert stream.tokens == ("energy", "of", "the", "field")

    def test_top_k_below_one_rejected(self):
        source = SymbolNameSource.from_counts("s", {})
        with pytest.raises(ValidationError):
            augment_identifiers(doc(), source, top_k=0)


class TestAblate:
    def test_modes_partition_the_text(self):
        d = doc(text="wave function of the wave")
        math = frozenset({"wave", "function"})
        assert ablate(d, TEXT_MODE, math).tokens == ("wave", "function", "of", "the", "wave")
        assert ablate(d, MATH_MODE, math).tokens == ("wave", "function", "wave")
        assert ablate(d, TEXT_MINUS_MATH, math).tokens == ("of", "the")

    def test_text_plus_math_length_additive(self):
        d = doc(text="wave function of the wave")
        math = frozenset({"wave", "function"})
        combined = ablate(d, TEXT_PLUS_MATH, math).tokens
        assert len(combined) == len(ablate(d, TEXT_MODE, math).tokens) + \
            len(ablate(d, MATH_MODE, math).tokens)
        assert combined[:5] == ("wave", "function", "of", "the", "wave")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            ablate(doc(), "Sideways", frozenset())


def planted_corpus():
    """Two classes whose text is fully separated by one marker phrase each."""
    docs = []
    for cls, phrase in (("quant-ph", "wave function"), ("gr-qc", "metric tensor")):
        for j in range(10):
            text = f"the {phrase} appears in study number{j} again {phrase}"
            docs.append(doc(doc_id=f"{cls}-{j}", text=text, arxiv=(cls,)))
    return docs


def planted_map():
    return ConceptCategoryMap({"wave function": "quant-ph", "metric tensor": "gr-qc"})


class TestCoverage:
    def test_no_violations_when_phrases_present(self):
        assert concept_coverage_violations(planted_corpus(), planted_map()) == []

    def test_missing_phrase_reported_for_own_class_only(self):
        cmap = ConceptCategoryMap({"wave function": "quant-ph",
                                   "dark matter": "astro-ph"})
        docs = planted_corpus()
        assert concept_coverage_violations(docs, cmap) == [("dark matter", "astro-ph")]

    def test_multi_token_phrase_requires_adjacency(self):
        cmap = ConceptCategoryMap({"function wave": "quant-ph"})
        # both words occur but never in this order
        assert concept_coverage_violations(planted_corpus(), cmap) == \
            [("function wave", "quant-ph")]


class TestExperiments:
    def test_augmentation_report_shape_and_determinism(self):
        source = SymbolNameSource.from_counts("glossary", {
            "E": {"energy": 3.0}, "m": {"mass": 2.0},
        })
        docs = planted_corpus()
        report = run_augmentation_experiment(docs, [source], [1, 2], seed=5)
        again = run_augmentation_experiment(docs, [source], [1, 2], seed=5)
        assert report == again
        assert [(c.source, c.top_k) for c in report.cells] == \
            [("glossary", 1), ("glossary", 2)]
        assert report.n_train + report.n_test == len(docs)
        assert report.text_only == 1.0  # marker phrases make text separable

    def test_ablation_rows_ordered_and_costs_relative(self):
        report = run_ablation_experiment(planted_corpus(), planted_map(), seed=5)
        assert [row.mode for row in report.rows] == list(ABLATION_MODES)
        by_mode = {row.mode: row for row in report.rows}
        assert by_mode[TEXT_MODE].relative_cost == 1.0
        assert by_mode[MATH_MODE].relative_cost + \
            by_mode[TEXT_MINUS_MATH].relative_cost == pytest.approx(1.0)
        assert by_mode[TEXT_PLUS_MATH].relative_cost == pytest.approx(
            1.0 + by_mode[MATH_MODE].relative_cost)
        assert report.coverage_violations == ()

    def test_ablation_math_only_still_separates_planted_classes(self):
        report = run_ablation_experiment(planted_corpus(), planted_map(), seed=5)
        by_mode = {row.mode: row for row in report.rows}
        assert by_mode[MATH_MODE].accuracy == 1.0
        assert by_mode[TEXT_MINUS_MATH].accuracy < 1.0

    def test_unlabeled_corpus_rejected(self):
        bare = [record_to_document({"id": "x", "arxiv": [], "msc": [],
                                    "segments": [{"kind": "text", "content": "hi"}]})]
        with pytest.raises(ValidationError):
            run_augmentation_experiment(bare, [], [1])


class TestFitLifetimes:
    """Each experiment holds one fit's working set at a time: when a fit
    starts, no stream, vector or model of an earlier fit is alive."""

    @pytest.fixture
    def events(self, monkeypatch):
        """("fit", earlier objects alive) per fit, and each baseline stream
        build of the augmentation experiment, in call order."""
        events, earlier = [], []
        fit = augment_mod.fit_split_model

        def spy_fit(streams, *args, **kwargs):
            gc.collect()
            events.append(("fit", sum(ref() is not None for ref in earlier)))
            encoder, vectors, model = fit(streams, *args, **kwargs)
            earlier.extend(weakref.ref(item) for item in [*streams, *vectors, model])
            return encoder, vectors, model

        def logged(name):
            function = getattr(augment_mod, name)

            def spy(*args, **kwargs):
                events.append((name,))
                return function(*args, **kwargs)
            monkeypatch.setattr(augment_mod, name, spy)

        monkeypatch.setattr(augment_mod, "fit_split_model", spy_fit)
        logged("text_streams")
        logged("symbol_tokens")
        return events

    def test_ablation_modes_fit_one_at_a_time(self, events):
        run_ablation_experiment(planted_corpus(), planted_map(), seed=5)
        assert events == [("fit", 0)] * len(ABLATION_MODES)

    def test_augmentation_baselines_built_after_the_cells(self, events):
        source = SymbolNameSource.from_counts("glossary", {"E": {"energy": 3.0}})
        docs = planted_corpus()
        run_augmentation_experiment(docs, [source], [1, 2], seed=5)
        # two cell fits, then the text baseline's streams and fit, then the
        # symbol streams (one call per document) and the last two fits
        assert events == ([("fit", 0)] * 2 + [("text_streams",), ("fit", 0)]
                          + [("symbol_tokens",)] * len(docs) + [("fit", 0)] * 2)


class TestTokenizedOnce:
    """A source tokenizes its names when it is made; a document's symbols once each."""

    @staticmethod
    def count_calls(monkeypatch, module):
        calls, real = [], module.tokenize

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(module, "tokenize", spy)
        return calls

    def test_source_names_tokenized_when_made(self, monkeypatch):
        from stemexplain import sources

        calls = self.count_calls(monkeypatch, sources)
        source = SymbolNameSource.from_counts("s", {
            "E": {"energy level": 5.0, "error": 2.0}, "m": {"mass": 9.0}})
        assert sorted(calls) == ["energy level", "error", "mass"]
        assert source.name_tokens == {"E": (["energy", "level"], ["error"]), "m": (["mass"],)}
        d = doc(formulas=("Em", "mE"))
        for top_k in (1, 2, 3):
            augment_identifiers(d, source, top_k)
        assert len(calls) == 3
        assert augment_identifiers(d, source, 2).tokens[4:] == (
            "energy", "level", "error", "mass")

    def test_each_distinct_symbol_tokenized_once(self, monkeypatch):
        from stemexplain import augment

        calls = self.count_calls(monkeypatch, augment)
        assert symbol_tokens(doc(formulas=("Em", "mE", "E"))) == ["e", "m", "m", "e", "e"]
        assert sorted(calls) == ["E", "m"]
