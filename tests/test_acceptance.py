"""Acceptance checks for the toolkit, one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with
``pytest -s`` to see them) and enforces the stated runtime budget.
Expected values come from the independent oracles in ``oracles.py`` or
from hand-computed tallies over planted fixtures, never from the
implementation under test.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from stemexplain.augment import (ConceptCategoryMap, SymbolNameSource,
                                 run_ablation_experiment,
                                 run_augmentation_experiment)
from stemexplain.classify import (LabeledDataset, LogRegModel,
                                  loss_and_gradient, predict_categories,
                                  train_logreg, evaluate_accuracy)
from stemexplain.cli import main
from stemexplain.corpus import Document, GoldAnnotations, Segment, record_to_document
from stemexplain.encode import (SparseVector, TfIdfModel, TokenStream,
                                fit_tfidf, transform_all)
from stemexplain.explain import (LimeSettings, build_entropy_report,
                                 compute_rankings, lime_explain)
from stemexplain.linker import (DEFAULT_EVAL_MODES, LEMMATIZED, UNLEMMATIZED,
                                Gazetteer, evaluate_linking,
                                link_formula_concepts, link_text_entities,
                                merge_concept_links)
from stemexplain.stats import (CountDistribution, build_cooccurrence,
                               build_distribution_library, entropy_summary,
                               margin_uncertainty, marginalize_middle,
                               shannon_entropy)
from stemexplain.synth import SynthConfig, demo_corpus, generate_synthetic_corpus

from . import oracles


@contextmanager
def criterion(number, description, limit=None):
    """Time one criterion body and print its verdict line."""
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, (
            f"criterion {number} exceeded its {limit}s budget: {elapsed:.2f}s")
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Entropy and margin against the high-precision oracle


def test_criterion_01_entropy_margin_oracle():
    with criterion(1, "entropy/margin match the oracle; closed forms exact", 5.0):
        rng = random.Random(20260817)
        for _ in range(1000):
            n = rng.randint(1, 16)
            counts = {f"label{i}": rng.randint(1, 10 ** 6) for i in range(n)}
            dist = CountDistribution(counts)
            assert abs(shannon_entropy(dist) - oracles.entropy_bits(counts)) <= 1e-12
            assert abs(margin_uncertainty(dist) - oracles.margin(counts)) <= 1e-12
        for n in range(2, 17):
            uniform = CountDistribution({f"u{i}": 1 for i in range(n)})
            assert shannon_entropy(uniform) == math.log2(n)
            assert margin_uncertainty(uniform) == 0.0
        for count in (1, 3, 47, 10 ** 6):
            single = CountDistribution({"only": count})
            assert shannon_entropy(single) == 0.0
            assert margin_uncertainty(single) == 1.0


# ---------------------------------------------------------------------------
# 2. Marginalization identities over random synthetic corpora


def test_criterion_02_distribution_library_consistency():
    with criterion(2, "marginalization identities hold exactly on 200 corpora", 30.0):
        rng = random.Random(31)
        for trial in range(200):
            n_classes = rng.randint(2, 5)
            config = SynthConfig(
                classes=tuple(f"ax.c{trial}x{i}" for i in range(n_classes)),
                docs_per_class=rng.randint(2, 6),
                seed=rng.randint(0, 10 ** 6),
                tokens_per_doc=rng.randint(5, 30),
                class_vocab_size=rng.randint(2, 8),
                shared_vocab_size=rng.randint(3, 12),
                class_word_rate=rng.random(),
                shared_symbols=("t", "x", "m")[: rng.randint(1, 3)],
                class_symbol_count=rng.randint(0, 2),
                symbols_per_formula=rng.randint(1, 3),
                formulas_per_doc=rng.randint(0, 3),
                msc_fanout=rng.randint(1, 3),
                concept_phrases_per_class=rng.randint(0, 1),
                gold_names=rng.random() < 0.8,
            )
            docs = generate_synthetic_corpus(config)
            for axis in ("arxiv", "msc"):
                library = build_distribution_library(docs, axis)
                assert marginalize_middle(library.identifier_class_name) == library.identifier_name
                assert marginalize_middle(library.name_class_identifier) == library.name_identifier
            matrix = build_cooccurrence(docs)
            cell_total = sum(sum(row) for row in matrix.counts)
            expected = sum(len(d.arxiv_categories) * len(d.msc_codes)
                           for d in docs if d.arxiv_categories and d.msc_codes)
            assert cell_total == expected


# ---------------------------------------------------------------------------
# 3. Symbol-keyed entropy exceeds name-keyed entropy on the demo corpus


def test_criterion_03_symbol_vs_name_entropy_direction():
    with criterion(3, "demo corpus: symbol entropy beats name entropy by >= 1 bit", 10.0):
        library = build_distribution_library(demo_corpus(), "arxiv")
        symbol_mean = entropy_summary(library, "identifier").mean
        name_mean = entropy_summary(library, "name").mean
        assert symbol_mean - name_mean >= 1.0


# ---------------------------------------------------------------------------
# 4. TF-IDF against the brute-force oracle


def test_criterion_04_tfidf_oracle():
    with criterion(4, "tf-idf matches the brute-force oracle on 100 corpora", 30.0):
        rng = random.Random(47)
        for _ in range(100):
            pool = [f"w{i}" for i in range(rng.randint(2, 30))]
            n_docs = rng.randint(1, 12)
            token_lists = [[rng.choice(pool) for _ in range(rng.randint(0, 40))]
                           for _ in range(n_docs)]
            token_lists[0] = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
            streams = [TokenStream.of(f"d{i}", toks)
                       for i, toks in enumerate(token_lists)]
            model = fit_tfidf(streams)
            vocab, expected = oracles.tfidf_vectors(token_lists)
            assert list(model.vocabulary) == vocab
            index_to_token = {i: t for t, i in model.vocabulary.items()}
            for vector, weights in zip(transform_all(model, streams), expected):
                got = {index_to_token[i]: v
                       for i, v in zip(vector.indices, vector.values)}
                assert set(got) == set(weights)
                for token, weight in weights.items():
                    assert abs(got[token] - weight) <= 1e-9


# ---------------------------------------------------------------------------
# 5. Classifier gradient, separable training, category fan-out direction


def fanout_docs():
    """Each MSC code implies one arXiv class; each class spreads over 3 codes."""
    docs = []
    for ci, cls in enumerate(["c-a", "c-b", "c-c"]):
        for j in range(12):
            code = f"{20 + ci}A{j % 3 + 1:02d}"
            record = {"id": f"{cls}-{j}", "arxiv": [cls], "msc": [code],
                      "segments": [{"kind": "text", "content": "stub"}]}
            docs.append(record_to_document(record))
    return docs


def test_criterion_05_classifier_correctness():
    with criterion(5, "gradient exact, separable fit perfect, fan-out direction", 60.0):
        # (a) analytic gradient vs central finite differences, 5x4x3
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 4))
        y = np.array([0, 1, 2, 1, 0])
        weights = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        _, grad_w, grad_b = loss_and_gradient(weights, bias, x, y, l2=0.01)
        eps = 1e-6

        def loss_at(w, b):
            return loss_and_gradient(w, b, x, y, l2=0.01)[0]

        fd_w = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                up, down = weights.copy(), weights.copy()
                up[i, j] += eps
                down[i, j] -= eps
                fd_w[i, j] = (loss_at(up, bias) - loss_at(down, bias)) / (2 * eps)
        fd_b = np.zeros_like(bias)
        for i in range(bias.shape[0]):
            up, down = bias.copy(), bias.copy()
            up[i] += eps
            down[i] -= eps
            fd_b[i] = (loss_at(weights, up) - loss_at(weights, down)) / (2 * eps)
        rel_w = np.linalg.norm(fd_w - grad_w) / max(np.linalg.norm(fd_w),
                                                    np.linalg.norm(grad_w))
        rel_b = np.linalg.norm(fd_b - grad_b) / max(np.linalg.norm(fd_b),
                                                    np.linalg.norm(grad_b))
        assert rel_w <= 1e-5
        assert rel_b <= 1e-5

        # (b) linearly separable two-class fixture trains to accuracy 1
        vectors, labels = [], []
        for i in range(10):
            vectors.append(SparseVector.from_items([(0, 1.0), (2, 0.1 * i)]))
            labels.append("pos")
            vectors.append(SparseVector.from_items([(1, 1.0), (2, 0.1 * i)]))
            labels.append("neg")
        data = LabeledDataset(vectors, labels, dim=3)
        model = train_logreg(data)
        assert evaluate_accuracy(model, data) == 1.0

        # (c) predicting the coarse axis from the fine one is easier
        docs = fanout_docs()
        from_msc = predict_categories(docs, "arxiv-from-msc", seed=1)
        from_arxiv = predict_categories(docs, "msc-from-arxiv", seed=1)
        assert from_msc.accuracy - from_arxiv.accuracy >= 0.2


# ---------------------------------------------------------------------------
# 6. Augmentation and ablation directions on the planted fixture


PLANT_CLASSES = ["cls.a", "cls.b"]
PLANT_MARKERS = ["wave function", "metric tensor"]
PLANT_SYMBOLS = ["a", "b"]


def planted_fixture_docs():
    """Two classes whose text signal is a marker phrase most docs carry.

    Nine of twelve docs per class embed the class marker twice; the
    remaining three carry only shared filler, so the class symbol's
    candidate names are the only signal left for them.
    """
    filler = [f"filler{i:02d}" for i in range(24)]
    rng = random.Random(2026)
    docs = []
    for ci, cls in enumerate(PLANT_CLASSES):
        for j in range(12):
            words = [rng.choice(filler) for _ in range(20)]
            if j < 9:
                words += PLANT_MARKERS[ci].split() * 2
            segments = [Segment("text", " ".join(words)),
                        Segment("formula", f"<mi>{PLANT_SYMBOLS[ci]}</mi>", fid="f0")]
            docs.append(Document(f"{cls}-{j}", segments, [cls], []))
    return docs


def planted_symbol_source():
    """Top-3 names separate the classes; ranks 4-5 are the rival's names.

    At top_k=5 both symbols contribute the same five name tokens, so
    marker-less documents become indistinguishable.
    """
    counts = {
        "a": {"na1": 90.0, "na2": 80.0, "nshared": 70.0, "nb1": 20.0, "nb2": 10.0},
        "b": {"nb1": 90.0, "nb2": 80.0, "nshared": 70.0, "na1": 20.0, "na2": 10.0},
    }
    return SymbolNameSource.from_counts("fixture", counts)


def test_criterion_06_augmentation_ablation_directions():
    with criterion(6, "ablation gap >= 0.2 and top-3 names >= top-5 noisy names", 120.0):
        docs = planted_fixture_docs()
        concept_map = ConceptCategoryMap(
            {PLANT_MARKERS[i]: PLANT_CLASSES[i] for i in range(2)})
        ablation = run_ablation_experiment(docs, concept_map, seed=1)
        accuracy = {row.mode: row.accuracy for row in ablation.rows}
        assert accuracy["Text"] - accuracy["TextMinusMath"] >= 0.2
        assert ablation.coverage_violations == ()

        augmentation = run_augmentation_experiment(
            docs, [planted_symbol_source()], [3, 5], seed=1)
        cells = {cell.top_k: cell.accuracy for cell in augmentation.cells}
        assert cells[3] >= cells[5]


# ---------------------------------------------------------------------------
# 7. Entity-linking confusion tables on the 20-tuple fixture


LINKING_SENTENCE = ("we find that the required velocity dispersion is of order "
                    "unity for speed of sound modes in rotating vortex lattice "
                    "condensates")

# relevance 1 tuples and their expected targets
RELEVANT_TARGETS = {
    "velocity dispersion": {"title": "Velocity dispersion", "qid": "Q637450"},
    "dispersion is": {"title": "Dispersion relation", "qid": "Q590051"},
    "sound modes": {"title": "Sound mode", "qid": "Q9001"},
    "vortex lattice": {"title": "Vortex lattice", "qid": "Q2604544"},
}
HALF_TARGETS = {
    "required velocity": {"title": "Velocity", "qid": "Q11465"},
    "speed of": {"title": "Speed", "qid": "Q3711325"},
}

# hand-computed (tp, fp, fn, tn, excluded) per mode and variant
EXPECTED_TALLIES = {
    ("eval1", UNLEMMATIZED): (1, 1, 4, 13, 1),
    ("eval1", LEMMATIZED): (2, 2, 3, 12, 1),
    ("eval2", UNLEMMATIZED): (1, 1, 4, 13, 1),
    ("eval2", LEMMATIZED): (2, 2, 3, 12, 1),
    ("eval3", UNLEMMATIZED): (2, 1, 3, 13, 1),
    ("eval3", LEMMATIZED): (2, 1, 3, 13, 1),
    ("eval4", UNLEMMATIZED): (2, 0, 3, 14, 1),
    ("eval4", LEMMATIZED): (2, 0, 3, 14, 1),
    ("eval5", UNLEMMATIZED): (2, 0, 3, 14, 1),
    ("eval5", LEMMATIZED): (2, 0, 3, 14, 1),
    ("eval6", UNLEMMATIZED): (2, 0, 3, 14, 1),
    ("eval6", LEMMATIZED): (2, 0, 3, 14, 1),
}


def linking_fixture():
    tokens = LINKING_SENTENCE.split()
    bigrams = [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    assert len(bigrams) == 20
    relevance = {}
    for bigram in bigrams:
        if bigram in RELEVANT_TARGETS:
            relevance[bigram] = 1.0
        elif bigram in HALF_TARGETS:
            relevance[bigram] = 0.5
        else:
            relevance[bigram] = 0.0
    gold = GoldAnnotations(entity_relevance=relevance,
                           entity_targets={**RELEVANT_TARGETS, **HALF_TARGETS})
    doc = Document("el-fixture", [Segment("text", LINKING_SENTENCE)], [], [],
                   gold=gold)
    gazetteers = [
        Gazetteer.from_pairs("wikidump", [
            ("find that", "Find_that"),
            ("velocity dispersion", "Velocity_dispersion"),
            ("dispersion is", "Dispersion"),  # wrong page for the gold target
            ("sound mode", "Sound_mode"),
            ("lattice condensate", "Lattice_condensate"),
        ]),
        Gazetteer.from_pairs("item-name", [
            ("find that", "find that"),  # title-style entry without an item id
            ("velocity dispersion", "Q637450"),
            ("vortex lattice", "Q2604544"),
        ]),
        Gazetteer.from_pairs("sparql-export", [
            ("velocity dispersion", "Q637450"),
            ("vortex lattice", "Q2604544"),
        ]),
    ]
    links = []
    for gazetteer in gazetteers:
        links.extend(link_text_entities(doc, gazetteer, max_n=3, lemmatized=False))
        links.extend(link_text_entities(doc, gazetteer, max_n=3, lemmatized=True))
    return links, gold


def test_criterion_07_linking_harness_exactness():
    with criterion(7, "20-tuple fixture: confusion counts and P/R/F1 exact", 1.0):
        links, gold = linking_fixture()
        report = evaluate_linking(links, gold)
        assert report.n_tuples == 20
        for (mode, variant), (tp, fp, fn, tn, excluded) in EXPECTED_TALLIES.items():
            tally = report.counts[mode][variant]
            assert (tally.tp, tally.fp, tally.fn, tally.tn, tally.excluded) == \
                (tp, fp, fn, tn, excluded), (mode, variant)
            assert tally.evaluated() + tally.excluded == 20
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            assert tally.precision() == precision
            assert tally.recall() == recall
            assert tally.f1() == f1

        # zero-denominator convention: no links at all
        empty = evaluate_linking([], GoldAnnotations(
            entity_relevance={"missed thing": 1.0, "ignored thing": 0.0}))
        for mode in empty.counts:
            for variant in empty.counts[mode]:
                tally = empty.counts[mode][variant]
                assert tally.precision() == 0.0  # tp + fp == 0
                assert tally.f1() == 0.0


# ---------------------------------------------------------------------------
# 8. Formula-concept window ranks and boundaries


def formula_doc(before, after):
    segments = []
    if before:
        segments.append(Segment("text", before))
    segments.append(Segment("formula", "<mi>E</mi>", fid="f1"))
    if after:
        segments.append(Segment("text", after))
    return Document("mathel-fixture", segments, [], [])


def test_criterion_08_mathel_window_behavior():
    with criterion(8, "phrase 8 tokens after a formula ranks -8; window edges hold", 1.0):
        after = "t1 t2 t3 t4 t5 t6 t7 gross pitaevski equation trail1 trail2"
        doc = formula_doc("", after)
        doc.gold = GoldAnnotations(concept_relevance={
            "f1": {"Gross-Pitaevski equation": 2}})
        titles = Gazetteer.from_pairs("wikidump", [
            ("gross pitaevski equation", "Gross-Pitaevskii_equation")])
        items = Gazetteer.from_pairs("sparql-export", [
            ("gross pitaevski equation", "Q910667")])
        merged = merge_concept_links(
            link_formula_concepts(doc, titles, window=10, gold=doc.gold)
            + link_formula_concepts(doc, items, window=10, gold=doc.gold))
        assert len(merged) == 1
        link = merged[0]
        assert link.rank == -8
        assert link.score == 2
        assert link.target_title == "Gross-Pitaevskii_equation"
        assert link.target_item == "Q910667"

        # boundary: distance 10 is inside the window, 11 is outside
        marker = Gazetteer.from_pairs("wikidump", [("marker", "Marker_page")])
        pads = " ".join(f"pad{i}" for i in range(9))
        cases = [
            (formula_doc(f"marker {pads}", ""), 10),
            (formula_doc("", f"{pads} marker"), -10),
        ]
        for doc, rank in cases:
            found = link_formula_concepts(doc, marker, window=10)
            assert [l.rank for l in found] == [rank]
        wide = " ".join(f"pad{i}" for i in range(10))
        for doc in (formula_doc(f"marker {wide}", ""),
                    formula_doc("", f"{wide} marker")):
            assert link_formula_concepts(doc, marker, window=10) == []


# ---------------------------------------------------------------------------
# 9. LIME top feature on a hand-built linear model


def test_criterion_09_lime_top_feature():
    with criterion(9, "LIME's top feature is the largest coefficient, right sign", 30.0):
        encoder = TfIdfModel({"alpha": 0, "beta": 1, "gamma": 2},
                             [1.0, 1.0, 1.0], document_count=3)
        model = LogRegModel(classes=["neg", "pos"],
                            weights=np.array([[0.0, 0.0, 0.0],
                                              [4.0, -1.0, 0.5]]),
                            bias=np.zeros(2))
        tokens = ["alpha", "beta", "gamma"]
        for seed in range(50):
            toward = lime_explain(model, encoder, "doc", tokens, "pos",
                                  num_samples=256, seed=seed)
            token, weight = toward.features[0]
            assert token == "alpha"
            assert weight > 0
            against = lime_explain(model, encoder, "doc", tokens, "neg",
                                   num_samples=256, seed=seed)
            token, weight = against.features[0]
            assert token == "alpha"
            assert weight < 0


# ---------------------------------------------------------------------------
# 10. Entropy-report directions on the planted corpus


REPORT_CLASSES = ["cls.a", "cls.b", "cls.c", "cls.d"]


def entropy_report_fixture():
    """Every doc: one class marker plus all 30 shared words, math stream of 3.

    MFreq closed forms follow by counting: the global text top-20 is
    all shared words (class-even, 2 bits each) and each class's top-20
    strengths are uniform (log2 20); the math stream gives log2 3 per
    class and mean 2/3 bits over {h, k, concept*}.
    """
    shared = [f"shared{i:02d}" for i in range(30)]
    docs, labels, math_streams = [], [], {}
    for ci, cls in enumerate(REPORT_CLASSES):
        for j in range(12):
            doc_id = f"{cls}-{j}"
            tokens = [f"marker{cls[-1]}"] + shared
            docs.append(Document(doc_id, [Segment("text", " ".join(tokens))],
                                 [cls], []))
            labels.append(cls)
            math_streams[doc_id] = [f"concept{cls[-1]}", "h", "k"]
    return docs, labels, math_streams


def fit_text_and_math(docs, labels, math_streams):
    text_streams = [TokenStream.of(d.doc_id, d.text_tokens()) for d in docs]
    math_tok_streams = [TokenStream.of(d.doc_id, math_streams[d.doc_id])
                        for d in docs]
    models = []
    for streams in (text_streams, math_tok_streams):
        encoder = fit_tfidf(streams)
        vectors = transform_all(encoder, streams)
        model = train_logreg(LabeledDataset(vectors, labels,
                                            dim=len(encoder.vocabulary)))
        models.append((model, encoder))
    return models


def test_criterion_10_entropy_report_directions():
    with criterion(10, "MDisc <= MFreq (EntCls) and Math <= Text (ClsEnt)", 120.0):
        docs, labels, math_streams = entropy_report_fixture()
        (text_model, text_encoder), (math_model, math_encoder) = \
            fit_text_and_math(docs, labels, math_streams)
        rankings = compute_rankings(docs, text_model, text_encoder, math_model,
                                    math_encoder, math_streams, budget=5,
                                    seed=7, lime=LimeSettings(num_samples=300))
        report = build_entropy_report(rankings, top_m=20)
        assert report.value("MDiscTextEntCls") <= report.value("MFreqTextEntCls")
        assert report.value("MDiscMathEntCls") <= report.value("MFreqMathEntCls")
        assert report.value("MDiscMathClsEnt") <= report.value("MDiscTextClsEnt")
        assert report.value("MFreqMathClsEnt") <= report.value("MFreqTextClsEnt")
        # counting closed forms for the frequency mode
        assert abs(report.value("MFreqTextClsEnt") - 2.0) <= 1e-9
        assert abs(report.value("MFreqTextEntCls") - math.log2(20)) <= 1e-9
        assert abs(report.value("MFreqMathClsEnt") - 4 / 6) <= 1e-9
        assert abs(report.value("MFreqMathEntCls") - math.log2(3)) <= 1e-9


# ---------------------------------------------------------------------------
# 11. End-to-end determinism of the full pipeline


PIPELINE_STAGES = ("ingest", "stats", "correspond", "classify", "augment",
                   "ablate", "link", "mathel", "explain")


def run_pipeline(config_path, out_dir):
    for stage in PIPELINE_STAGES:
        assert main([stage, "-c", str(config_path), "--out-dir", str(out_dir)]) == 0
    assert main(["plotdata", "-c", str(config_path), "--out-dir", str(out_dir),
                 "--which", "symbol-name-distribution"]) == 0
    assert main(["plotdata", "-c", str(config_path), "--out-dir", str(out_dir),
                 "--which", "entropy-table"]) == 0
    assert main(["report", "-c", str(config_path), "--out-dir", str(out_dir)]) == 0


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "two same-seed pipeline runs are byte-identical"):
        fixtures = tmp_path / "fixtures"
        assert main(["synth", "--out-dir", str(fixtures), "--seed", "12"]) == 0
        config_path = fixtures / "demo_config.json"
        first = tmp_path / "run-a"
        second = tmp_path / "run-b"
        run_pipeline(config_path, first)
        run_pipeline(config_path, second)
        first_files = sorted(p.name for p in first.iterdir())
        second_files = sorted(p.name for p in second.iterdir())
        assert first_files == second_files
        assert len(first_files) > 20
        for name in first_files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
