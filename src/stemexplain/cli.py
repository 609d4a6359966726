"""Command-line pipeline over corpus files.

Each subcommand runs one stage, writes its tables into the output directory
and drops a stage manifest next to them.  ``report`` stitches the stage
tables into one markdown report plus an overall manifest.  All outputs are
plain TSV, JSON, JSONL, or markdown, and are byte-identical across runs with
the same config and input bytes, regardless of where the output directory
lives: manifests record content digests and relative names, never paths.

Exit codes: 0 success, 2 config error (bad JSON, unknown keys, missing
seed, mistyped or out-of-range settings), 3 input error (missing
or malformed input files, missing stage outputs), 4 runtime failure
(training or evaluation raised).  Failures print a single JSON record on
stderr: {"error": <class>, "message": <text>}.  A model fit that stops without
converging prints {"warning": "ConvergenceWarning", "stage", "iterations",
"final_loss", "message"} on stderr and the stage goes on.

Relative file paths inside a config file resolve against the config file's
directory; paths given on the command line resolve against the working
directory.

Each stage runs in its own process, so imports are part of every stage's
cost.  This module imports only corpus, encode and errors at its top; every
other module is imported inside the stages that use it.  The five stages that
fit models (correspond, classify, augment, ablate, explain) import classify,
augment and explain, and with them numpy; stats is imported by stats,
correspond and plotdata, linker by link and mathel, and synth by the synth
stage and for the ``@demo`` corpus.  So ingest, stats, link, mathel, plotdata
and report never load numpy, and ingest and report load neither stats nor
linker.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .corpus import (Document, GoldAnnotations, corpus_to_text,
                     document_identifiers, load_corpus, save_corpus)
from .encode import STOPWORDS, TokenStream, lemmatize_stream, remove_stopwords
from .errors import ConvergenceWarning, ParseError, ToolkitError, ValidationError

if TYPE_CHECKING:
    from .augment import ConceptCategoryMap, SymbolNameSource
    from .linker import Gazetteer

TOOL_NAME = "stemexplain"


class ConfigError(ToolkitError):
    """Raised for problems in the effective configuration."""


# Exhaustive key schema; unknown keys anywhere in a config file are rejected.
# gazetteers and sources map user-chosen tags to files and are replaced
# wholesale, as is the top_k list.
DEFAULT_CONFIG = {
    "corpus": "@demo",
    "out_dir": "out",
    "seed": None,
    "class_axis": "arxiv",
    "encode": {"remove_stopwords": True, "lemmatize": False},
    "split": {"test_fraction": 0.2},
    "logreg": {"l2": 1e-4, "max_iterations": 500, "tolerance": 1e-6},
    "lime": {"num_samples": 300, "kernel_width": None, "ridge": 1.0, "top_k": 10},
    "linker": {"gazetteers": {}, "max_n": 3, "window": 10},
    "augment": {"sources": {}, "top_k": [3, 5], "concept_map": None},
    "explain": {"budget": 5, "top_m": 20, "num_samples": 300,
                "source": None, "source_top_k": 3},
    "plot": {"which": "symbol-name-distribution", "symbol": None, "name": None},
}

_SECTIONS = ("encode", "split", "logreg", "lime", "linker", "augment",
             "explain", "plot")

# Stage tables stitched together by `report`, in presentation order.
REPORT_SECTIONS = (
    ("Corpus", "ingest_summary.tsv"),
    ("Distribution entropies", "entropy_summary.tsv"),
    ("Category co-occurrence", "cooccurrence.tsv"),
    ("Co-occurrence uncertainty", "uncertainty_summary.tsv"),
    ("Argmax vs classifier", "argmax_vs_classifier.tsv"),
    ("Category prediction", "category_accuracy.tsv"),
    ("Text classification", "classify.tsv"),
    ("Identifier augmentation", "augment.tsv"),
    ("Input ablation", "ablate.tsv"),
    ("Entity linking evaluation", "link_eval.tsv"),
    ("Formula concept coverage", "mathel_coverage.tsv"),
    ("Entity ranking entropies", "entropy_report.tsv"),
)


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path: Path) -> str:
    return _digest_bytes(path.read_bytes())


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_tsv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               ensure_ascii=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Configuration


def _merge_config(base: dict, override: dict, trail: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{trail}{key}"
        if key not in merged:
            raise ConfigError(f"unknown config key: {where}")
        if not trail and key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be an object")
            merged[key] = _merge_config(merged[key], value, where + ".")
        else:
            merged[key] = value
    return merged


def _anchor(path_value, base: Path):
    if not isinstance(path_value, str) or path_value == "@demo":
        return path_value
    candidate = Path(path_value)
    return path_value if candidate.is_absolute() else str(base / candidate)


def _check_paths(config: dict) -> None:
    """Type checks on the file settings, so that anchoring can rely on them."""
    if not isinstance(config["corpus"], str):
        raise ConfigError("corpus must be a string")
    for section, key in (("linker", "gazetteers"), ("augment", "sources")):
        paths = config[section][key]
        if not isinstance(paths, dict) or not all(isinstance(p, str) for p in paths.values()):
            raise ConfigError(f"{section}.{key} must be an object with string values")
    concept_map = config["augment"]["concept_map"]
    if concept_map is not None and not isinstance(concept_map, str):
        raise ConfigError("augment.concept_map must be null or a string")


def _anchor_paths(config: dict, base: Path) -> None:
    config["corpus"] = _anchor(config["corpus"], base)
    config["linker"]["gazetteers"] = {
        tag: _anchor(p, base) for tag, p in config["linker"]["gazetteers"].items()}
    config["augment"]["sources"] = {
        tag: _anchor(p, base) for tag, p in config["augment"]["sources"].items()}
    config["augment"]["concept_map"] = _anchor(config["augment"]["concept_map"], base)


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then the config file, then command-line overrides."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        source = Path(path)
        if not source.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(source.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        config = _merge_config(config, loaded)
        _check_paths(config)
        _anchor_paths(config, source.resolve().parent)
    for key, value in overrides.items():
        if value is None:
            continue
        slot = config
        parts = key.split(".")
        for part in parts[:-1]:
            slot = slot[part]
        slot[parts[-1]] = value
    if config["seed"] is None:
        raise ConfigError("seed is required (set it in the config file or pass --seed)")
    if not isinstance(config["seed"], int) or isinstance(config["seed"], bool):
        raise ConfigError("seed must be an integer")
    if config["class_axis"] not in ("arxiv", "msc"):
        raise ConfigError("class_axis must be 'arxiv' or 'msc'")
    _check_settings(config)
    return config


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# Settings that must be integers >= 1.
_COUNT_KEYS = (("logreg", "max_iterations"), ("linker", "max_n"), ("linker", "window"),
               ("lime", "num_samples"), ("explain", "budget"), ("explain", "top_m"),
               ("explain", "num_samples"), ("explain", "source_top_k"))


def _check_settings(config: dict) -> None:
    """Type and range checks on the numeric and boolean settings of the stages."""
    for key in ("remove_stopwords", "lemmatize"):
        if not isinstance(config["encode"][key], bool):
            raise ConfigError(f"encode.{key} must be true or false")
    fraction = config["split"]["test_fraction"]
    if not _is_number(fraction) or not 0 <= fraction < 1:
        raise ConfigError("split.test_fraction must lie in [0, 1)")
    logreg, lime = config["logreg"], config["lime"]
    for key in ("l2", "tolerance"):
        if not _is_number(logreg[key]) or logreg[key] < 0:
            raise ConfigError(f"logreg.{key} must be a number >= 0")
    for section, key in _COUNT_KEYS:
        if not _is_count(config[section][key]):
            raise ConfigError(f"{section}.{key} must be an integer >= 1")
    if lime["top_k"] is not None and not _is_count(lime["top_k"]):
        raise ConfigError("lime.top_k must be null or an integer >= 1")
    if not _is_number(lime["ridge"]) or lime["ridge"] < 0:
        raise ConfigError("lime.ridge must be a number >= 0")
    width = lime["kernel_width"]
    if width is not None and (not _is_number(width) or width <= 0):
        raise ConfigError("lime.kernel_width must be null or a number > 0")
    top_ks = config["augment"]["top_k"]
    if not isinstance(top_ks, list) or not top_ks or not all(map(_is_count, top_ks)):
        raise ConfigError("augment.top_k must be a non-empty list of integers >= 1")


def config_digest(config: dict, known: dict[str, str] | None = None) -> str:
    """Digest of the effective config with file paths replaced by content.

    Two runs pointed at byte-identical inputs hash the same even when
    the files live at different paths; out_dir never participates.
    ``known`` holds digests a stage already computed, keyed like a
    manifest's inputs ("corpus", "gazetteer:<tag>", "source:<tag>",
    "concept_map"); those files are not read again.
    """
    canon = copy.deepcopy(config)
    canon.pop("out_dir", None)
    known = known or {}

    def _content(role, path_value):
        if path_value is None or path_value == "@demo":
            return path_value
        digest = known.get(role)
        return _digest_file(Path(path_value)) if digest is None else digest

    canon["corpus"] = _content("corpus", canon["corpus"])
    canon["linker"]["gazetteers"] = {
        tag: _content(f"gazetteer:{tag}", p)
        for tag, p in canon["linker"]["gazetteers"].items()}
    canon["augment"]["sources"] = {
        tag: _content(f"source:{tag}", p) for tag, p in canon["augment"]["sources"].items()}
    canon["augment"]["concept_map"] = _content("concept_map", canon["augment"]["concept_map"])
    return _digest_bytes(json.dumps(canon, sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# Shared input loading


def _load_input(ref: str, what: str, load):
    """``load(path)`` and the file's digest; a missing file is an input error."""
    path = Path(ref)
    if not path.is_file():
        raise ParseError(f"{what} file not found: {ref}")
    return load(path), _digest_file(path)


def _resolve_corpus(config: dict) -> tuple[list[Document], str]:
    ref = config["corpus"]
    if ref == "@demo":
        from .synth import demo_corpus

        docs = demo_corpus()
        return docs, _digest_bytes(corpus_to_text(docs).encode("utf-8"))
    return _load_input(ref, "corpus", load_corpus)


def _encoded_stream(doc: Document, config: dict) -> TokenStream:
    stream = TokenStream.of(doc.doc_id, doc.text_tokens())
    if config["encode"]["remove_stopwords"]:
        stream = remove_stopwords(stream)
    if config["encode"]["lemmatize"]:
        stream = lemmatize_stream(stream)
    return stream


def _load_gazetteers(config: dict) -> tuple[dict[str, Gazetteer], dict[str, str]]:
    from .linker import load_gazetteer

    gazetteers, digests = {}, {}
    for tag, ref in sorted(config["linker"]["gazetteers"].items()):
        gazetteers[tag], digests[f"gazetteer:{tag}"] = _load_input(
            ref, "gazetteer", lambda path: load_gazetteer(path, tag))
    if not gazetteers:
        raise ConfigError("linker.gazetteers is empty; nothing to link against")
    return gazetteers, digests


def _load_source(config: dict, tag: str) -> tuple[SymbolNameSource, str]:
    from .augment import load_symbol_source

    ref = config["augment"]["sources"].get(tag)
    if ref is None:
        raise ConfigError(f"augment.sources has no entry {tag!r}")
    return _load_input(ref, "symbol source", lambda path: load_symbol_source(path, tag))


def _load_concept_map(config: dict) -> tuple[ConceptCategoryMap, str]:
    from .augment import load_concept_map

    ref = config["augment"]["concept_map"]
    if ref is None:
        raise ConfigError("augment.concept_map is required for this stage")
    return _load_input(ref, "concept map", load_concept_map)


def build_math_streams(docs: list[Document], source: SymbolNameSource, top_k: int,
                       concept_map: ConceptCategoryMap | None) -> dict[str, list[str]]:
    """``augment.build_math_streams``, imported only when a stage calls it."""
    from .augment import build_math_streams

    return build_math_streams(docs, source, top_k, concept_map)


def _write_manifest(stage: str, config: dict, out_dir: Path,
                    inputs: dict[str, str], outputs: list[str]) -> None:
    manifest = {
        "tool": TOOL_NAME,
        "version": __version__,
        "stage": stage,
        "seed": config["seed"],
        "config_digest": config_digest(config, inputs),
        "inputs": dict(sorted(inputs.items())),
        "outputs": {name: _digest_file(out_dir / name) for name in sorted(outputs)},
    }
    write_json(out_dir / f"{stage}_manifest.json", manifest)


# ---------------------------------------------------------------------------
# Stages


def stage_synth(config: dict, out_dir: Path) -> list[str]:
    """Write the demo corpus, its fixture files, and a ready config.

    A fixture generator rather than a pipeline stage, so it writes no
    manifest; the emitted config uses paths relative to the output
    directory and works from anywhere.
    """
    from . import synth as synth_mod

    docs = synth_mod.demo_corpus()
    save_corpus(docs, out_dir / "demo_corpus.jsonl")
    outputs = ["demo_corpus.jsonl"]
    sources = synth_mod.demo_symbol_sources()
    for source in sources:
        name = f"source_{source.name}.tsv"
        synth_mod.write_symbol_source(source, out_dir / name)
        outputs.append(name)
    synth_mod.write_concept_map(synth_mod.demo_concept_map(),
                                out_dir / "concept_map.tsv")
    outputs.append("concept_map.tsv")
    for tag, gazetteer in sorted(synth_mod.demo_gazetteers().items()):
        name = f"gazetteer_{tag}.tsv"
        synth_mod.write_gazetteer(gazetteer, out_dir / name)
        outputs.append(name)
    demo_config = copy.deepcopy(DEFAULT_CONFIG)
    demo_config["corpus"] = "demo_corpus.jsonl"
    demo_config["seed"] = synth_mod.DEMO_CONFIG.seed
    demo_config["linker"]["gazetteers"] = {
        tag: f"gazetteer_{tag}.tsv" for tag in sorted(synth_mod.demo_gazetteers())}
    demo_config["augment"]["sources"] = {
        source.name: f"source_{source.name}.tsv" for source in sources}
    demo_config["augment"]["concept_map"] = "concept_map.tsv"
    demo_config["explain"]["source"] = "arxiv"
    write_json(out_dir / "demo_config.json", demo_config)
    outputs.append("demo_config.json")
    return outputs


def stage_ingest(config: dict, out_dir: Path) -> list[str]:
    docs, corpus_digest = _resolve_corpus(config)
    arxiv = {label for doc in docs for label in doc.arxiv_categories}
    msc = {label for doc in docs for label in doc.msc_codes}
    n_text = sum(sum(1 for s in doc.segments if s.kind == "text") for doc in docs)
    n_formula = sum(len(doc.formula_segments()) for doc in docs)
    n_occurrences = sum(len(document_identifiers(doc)) for doc in docs)
    n_gold = sum(1 for doc in docs if doc.gold is not None and not doc.gold.is_empty())
    rows = [
        ("documents", len(docs)),
        ("arxiv_classes", len(arxiv)),
        ("msc_codes", len(msc)),
        ("text_segments", n_text),
        ("formula_segments", n_formula),
        ("identifier_occurrences", n_occurrences),
        ("documents_with_gold", n_gold),
    ]
    write_tsv(out_dir / "ingest_summary.tsv", ["metric", "value"], rows)
    _write_manifest("ingest", config, out_dir, {"corpus": corpus_digest},
                    ["ingest_summary.tsv"])
    return ["ingest_summary.tsv"]


def stage_stats(config: dict, out_dir: Path) -> list[str]:
    from .stats import build_distribution_library, entropy_summary

    docs, corpus_digest = _resolve_corpus(config)
    library = build_distribution_library(docs, class_axis=config["class_axis"])
    (out_dir / "library.jsonl").write_text(
        "".join(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
                for record in library.to_records()), encoding="utf-8")
    summary_rows, key_rows = [], []
    for keyed in ("identifier", "name"):
        summary = entropy_summary(library, keyed=keyed)
        summary_rows.append((keyed, summary.minimum, summary.mean, summary.maximum))
        for key, value in sorted(summary.per_key.items()):
            key_rows.append((keyed, key, value))
    write_tsv(out_dir / "entropy_summary.tsv",
              ["keyed_by", "min_entropy", "mean_entropy", "max_entropy"],
              summary_rows)
    write_tsv(out_dir / "key_entropies.tsv", ["keyed_by", "key", "entropy"], key_rows)
    outputs = ["library.jsonl", "entropy_summary.tsv", "key_entropies.tsv"]
    _write_manifest("stats", config, out_dir, {"corpus": corpus_digest}, outputs)
    return outputs


def stage_correspond(config: dict, out_dir: Path) -> list[str]:
    from .classify import classifier_label_map, predict_categories
    from .stats import (argmax_predict, build_cooccurrence, compare_predictions,
                        uncertainty_report)

    docs, corpus_digest = _resolve_corpus(config)
    matrix = build_cooccurrence(docs)
    header = ["arxiv\\msc"] + list(matrix.col_labels)
    rows = [(label,) + tuple(matrix.counts[i])
            for i, label in enumerate(matrix.row_labels)]
    write_tsv(out_dir / "cooccurrence.tsv", header, rows)

    uncertainty_rows, summary_rows = [], []
    for direction in ("rows", "columns"):
        report = uncertainty_report(matrix, direction)
        for label, entropy, margin in report.rows:
            uncertainty_rows.append((direction, label, entropy, margin))
        summary_rows.append((direction, report.entropy_mean, report.entropy_max,
                             report.margin_mean, report.margin_max))
    write_tsv(out_dir / "uncertainty.tsv",
              ["direction", "label", "entropy", "margin"], uncertainty_rows)
    write_tsv(out_dir / "uncertainty_summary.tsv",
              ["direction", "entropy_mean", "entropy_max", "margin_mean",
               "margin_max"], summary_rows)

    # Dual route: count-table argmax next to a trained classifier.
    agreement_rows = []
    for direction, axis in (("arxiv-from-msc", "columns"), ("msc-from-arxiv", "rows")):
        counting = argmax_predict(matrix, axis)
        learned = classifier_label_map(docs, direction, seed=config["seed"],
                                       **config["logreg"])
        matches, mismatches = compare_predictions(counting, learned)
        agreement_rows.append((direction, matches, mismatches))
    write_tsv(out_dir / "argmax_vs_classifier.tsv",
              ["direction", "matches", "mismatches"], agreement_rows)

    accuracy_rows = []
    for direction in ("arxiv-from-msc", "msc-from-arxiv"):
        for label_mode in ("single", "multi"):
            for granularity in ("fine", "coarse"):
                report = predict_categories(
                    docs, direction, label_mode=label_mode,
                    granularity=granularity, seed=config["seed"],
                    test_fraction=config["split"]["test_fraction"],
                    **config["logreg"])
                accuracy_rows.append((direction, label_mode, granularity,
                                      report.accuracy, report.train_accuracy,
                                      report.n_train, report.n_test,
                                      report.evaluated_on))
    write_tsv(out_dir / "category_accuracy.tsv",
              ["direction", "label_mode", "granularity", "accuracy",
               "train_accuracy", "n_train", "n_test", "evaluated_on"],
              accuracy_rows)
    outputs = ["cooccurrence.tsv", "uncertainty.tsv", "uncertainty_summary.tsv",
               "argmax_vs_classifier.tsv", "category_accuracy.tsv"]
    _write_manifest("correspond", config, out_dir, {"corpus": corpus_digest}, outputs)
    return outputs


def stage_classify(config: dict, out_dir: Path) -> list[str]:
    from .classify import (derive_seed, fit_split_model, held_out_accuracy, labeled_documents,
                           predict_labels, stratified_split, subset_accuracy)

    docs, corpus_digest = _resolve_corpus(config)
    kept, labels, skipped = labeled_documents(docs, config["class_axis"])
    streams = [_encoded_stream(doc, config) for doc in kept]
    train_idx, test_idx = stratified_split(labels, config["split"]["test_fraction"],
                                           derive_seed(config["seed"], "classify"))
    encoder, vectors, model = fit_split_model(streams, labels, train_idx, config["seed"],
                                              **config["logreg"])
    train_accuracy = subset_accuracy(model, vectors, labels, train_idx)
    accuracy, evaluated_on = held_out_accuracy(model, vectors, labels, train_idx, test_idx)
    rows = [
        ("accuracy", accuracy),
        ("train_accuracy", train_accuracy),
        ("evaluated_on", evaluated_on),
        ("n_train", len(train_idx)),
        ("n_test", len(test_idx)),
        ("n_skipped_unlabeled", skipped),
        ("classes", len(model.classes)),
        ("vocabulary", len(encoder.vocabulary)),
        ("solver", model.metadata["solver"]),
        ("iterations", model.metadata["iterations"]),
        ("final_loss", model.metadata["final_loss"]),
        ("grad_norm", model.metadata["grad_norm"]),
        ("converged", model.metadata["converged"]),
    ]
    write_tsv(out_dir / "classify.tsv", ["metric", "value"], rows)
    write_json(out_dir / "classify_model.json",
               {"tfidf": encoder.to_record(), "logreg": model.to_record()})
    predicted = predict_labels(model, [vectors[i] for i in test_idx])
    predictions = [(kept[i].doc_id, labels[i], guess)
                   for i, guess in zip(test_idx, predicted)]
    write_tsv(out_dir / "classify_predictions.tsv",
              ["doc", "label", "predicted"], predictions)
    outputs = ["classify.tsv", "classify_model.json", "classify_predictions.tsv"]
    _write_manifest("classify", config, out_dir, {"corpus": corpus_digest}, outputs)
    return outputs


def stage_augment(config: dict, out_dir: Path) -> list[str]:
    from . import augment as augment_mod

    docs, corpus_digest = _resolve_corpus(config)
    inputs = {"corpus": corpus_digest}
    sources = []
    for tag in sorted(config["augment"]["sources"]):
        source, digest = _load_source(config, tag)
        sources.append(source)
        inputs[f"source:{tag}"] = digest
    if not sources:
        raise ConfigError("augment.sources is empty")
    report = augment_mod.run_augmentation_experiment(
        docs, sources, config["augment"]["top_k"], seed=config["seed"],
        class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"], **config["logreg"])
    rows = [("baseline", "text_only", "", report.text_only),
            ("baseline", "symbols_only", "", report.symbols_only),
            ("baseline", "text_plus_symbols", "", report.text_plus_symbols)]
    for cell in report.cells:
        rows.append(("augmented", cell.source, cell.top_k, cell.accuracy))
    write_tsv(out_dir / "augment.tsv",
              ["row_kind", "source", "top_k", "accuracy"], rows)
    write_json(out_dir / "augment.json", {
        "class_axis": report.class_axis,
        "n_train": report.n_train,
        "n_test": report.n_test,
        "baselines": {"text_only": report.text_only,
                      "symbols_only": report.symbols_only,
                      "text_plus_symbols": report.text_plus_symbols},
        "cells": [{"source": c.source, "top_k": c.top_k, "accuracy": c.accuracy}
                  for c in report.cells],
        "full_scale_reference": report.reference,
    })
    outputs = ["augment.tsv", "augment.json"]
    _write_manifest("augment", config, out_dir, inputs, outputs)
    return outputs


def stage_ablate(config: dict, out_dir: Path) -> list[str]:
    from . import augment as augment_mod

    docs, corpus_digest = _resolve_corpus(config)
    concept_map, map_digest = _load_concept_map(config)
    report = augment_mod.run_ablation_experiment(
        docs, concept_map, seed=config["seed"], class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"], **config["logreg"])
    write_tsv(out_dir / "ablate.tsv", ["mode", "accuracy", "relative_cost"],
              [(row.mode, row.accuracy, row.relative_cost) for row in report.rows])
    write_tsv(out_dir / "ablate_coverage.tsv", ["phrase", "missing_class"],
              list(report.coverage_violations))
    write_json(out_dir / "ablate.json", {
        "class_axis": report.class_axis,
        "rows": [{"mode": r.mode, "accuracy": r.accuracy,
                  "relative_cost": r.relative_cost} for r in report.rows],
        "coverage_violations": [list(v) for v in report.coverage_violations],
        "n_train": report.n_train,
        "n_test": report.n_test,
        "full_scale_reference": report.reference,
    })
    inputs = {"corpus": corpus_digest, "concept_map": map_digest}
    outputs = ["ablate.tsv", "ablate_coverage.tsv", "ablate.json"]
    _write_manifest("ablate", config, out_dir, inputs, outputs)
    return outputs


def stage_link(config: dict, out_dir: Path) -> list[str]:
    """Link every document's text and score the gold-judged documents.

    Links whose surface a gold document leaves unjudged are counted per
    mode in the ``unjudged`` column instead of being evaluated.  Each
    document is tokenized once and each distinct token lemmatized once;
    every gazetteer and variant links over those tokens and lemmas.
    """
    from . import linker as linker_mod

    docs, corpus_digest = _resolve_corpus(config)
    gazetteers, digests = _load_gazetteers(config)
    max_n = config["linker"]["max_n"]
    modes = linker_mod.DEFAULT_EVAL_MODES
    mode_names = [mode.name for mode in modes]

    link_rows, tuple_rows = [], []
    marks: dict[tuple[str, str], list[str]] = {}
    unjudged: Counter = Counter()  # (source, lemmatized) -> links
    lemma_of: dict[str, str] = {}
    for doc in docs:
        tokens = doc.text_tokens()
        lemmas = linker_mod.lemma_forms(tokens, lemma_of)
        links = []
        for tag in sorted(gazetteers):
            for lemmatized in (False, True):
                links.extend(linker_mod.link_text_entities(
                    doc, gazetteers[tag], max_n=max_n, lemmatized=lemmatized,
                    tokens=tokens, lemmas=lemmas))
        links.sort(key=lambda l: (l.start, -l.length, l.source, l.lemmatized))
        for link in links:
            link_rows.append((link.doc_id, link.start, link.length, link.surface,
                              link.match_form, link.target_title or "",
                              link.target_item or "", link.source,
                              link.lemmatized))
        if doc.gold is None or not doc.gold.entity_relevance:
            continue
        normalized = {raw: linker_mod.normalize_surface(raw)
                      for raw in doc.gold.entity_relevance}
        judged_forms = set(normalized.values())
        # A link's surface is space-joined tokenizer output, hence already
        # in normalized form.
        judged = [l for l in links if l.surface in judged_forms]
        unjudged.update((l.source, l.lemmatized) for l in links
                        if l.surface not in judged_forms)
        evaluation = linker_mod.evaluate_linking(judged, doc.gold)
        for mode in mode_names:
            for variant in linker_mod.VARIANTS:
                marks.setdefault((mode, variant), []).extend(
                    evaluation.assignments[mode][variant].values())
        for raw in sorted(doc.gold.entity_relevance):
            row_marks = [evaluation.assignments[mode][variant][normalized[raw]]
                         for variant in linker_mod.VARIANTS for mode in mode_names]
            tuple_rows.append((doc.doc_id, raw, doc.gold.entity_relevance[raw])
                              + tuple(row_marks))
    write_tsv(out_dir / "links.tsv",
              ["doc", "start", "length", "surface", "match_form", "title",
               "item", "source", "lemmatized"], link_rows)
    eval_rows = []
    for variant in linker_mod.VARIANTS:
        for mode in modes:
            counts = linker_mod.ModeCounts.from_marks(marks.get((mode.name, variant), ()))
            eval_rows.append((mode.name, variant, counts.tp, counts.fp, counts.fn,
                              counts.tn, counts.excluded, counts.precision(),
                              counts.recall(), counts.f1(),
                              unjudged[mode.source, variant == linker_mod.LEMMATIZED]))
    write_tsv(out_dir / "link_eval.tsv",
              ["mode", "variant", "tp", "fp", "fn", "tn", "excluded",
               "precision", "recall", "f1", "unjudged"], eval_rows)
    mark_header = [f"{mode}_{variant}" for variant in linker_mod.VARIANTS
                   for mode in mode_names]
    write_tsv(out_dir / "link_tuples.tsv",
              ["doc", "ngram", "relevance"] + mark_header, tuple_rows)
    inputs = {"corpus": corpus_digest, **digests}
    outputs = ["links.tsv", "link_eval.tsv", "link_tuples.tsv"]
    _write_manifest("link", config, out_dir, inputs, outputs)
    return outputs


def stage_mathel(config: dict, out_dir: Path) -> list[str]:
    """Link the text around every formula and score the gold-judged ones.

    Each document is tokenized once; every gazetteer links over that
    token layout.
    """
    from . import linker as linker_mod

    docs, corpus_digest = _resolve_corpus(config)
    gazetteers, digests = _load_gazetteers(config)
    window = config["linker"]["window"]
    max_n = config["linker"]["max_n"]

    rows, all_links = [], []
    merged_relevance: dict[str, dict[str, int]] = {}
    for doc in docs:
        gold = doc.gold if doc.gold is not None and doc.gold.concept_relevance else None
        layout = doc.token_layout()
        per_gazetteer = [linker_mod.link_formula_concepts(
            doc, gazetteers[tag], window=window, max_n=max_n, gold=gold, layout=layout)
            for tag in sorted(gazetteers)]
        links = linker_mod.merge_concept_links(*per_gazetteer)
        links.sort(key=lambda l: (l.formula_id, l.rank is None,
                                  -(l.rank or 0), l.phrase, l.source))
        all_links.extend(links)
        for link in links:
            rows.append((link.doc_id, link.formula_id, link.phrase, link.length,
                         "" if link.score is None else link.score,
                         "" if link.rank is None else link.rank,
                         link.target_title or "", link.target_item or "",
                         link.source))
        if gold is not None:
            merged_relevance.update(gold.concept_relevance)
    write_tsv(out_dir / "mathel.tsv",
              ["doc", "formula", "phrase", "tokens", "score", "rank", "title",
               "item", "source"], rows)
    outputs = ["mathel.tsv"]
    if merged_relevance:
        # Formula ids are unique corpus-wide (document-scoped names), so the
        # per-document gold tables merge into one coverage evaluation.
        coverage = linker_mod.mathel_coverage_report(
            all_links, GoldAnnotations(concept_relevance=merged_relevance))
        write_tsv(out_dir / "mathel_coverage.tsv", ["metric", "value"], [
            ("gold_concepts", coverage.n_concepts),
            ("fraction_with_article", coverage.fraction_with_article),
            ("fraction_with_item", coverage.fraction_with_item),
            ("fraction_name_in_window", coverage.fraction_name_in_window),
            ("highly_relevant_found", coverage.highly_relevant_found),
        ])
        outputs.append("mathel_coverage.tsv")
    inputs = {"corpus": corpus_digest, **digests}
    _write_manifest("mathel", config, out_dir, inputs, outputs)
    return outputs


def stage_explain(config: dict, out_dir: Path) -> list[str]:
    """Surrogate explanations, entity rankings, and the entropy table.

    The text model here trains on stopword-filtered raw tokens (the
    same streams the ranker explains) rather than the encode settings,
    so surrogate features always line up with the model vocabulary.
    """
    from . import explain as explain_mod
    from .classify import derive_seed, fit_split_model, labeled_documents, stratified_split

    docs, corpus_digest = _resolve_corpus(config)
    inputs = {"corpus": corpus_digest}
    source_tag = config["explain"]["source"]
    if source_tag is None:
        raise ConfigError("explain.source must name one of augment.sources")
    source, digest = _load_source(config, source_tag)
    inputs[f"source:{source_tag}"] = digest
    concept_map = None
    if config["augment"]["concept_map"] is not None:
        concept_map, map_digest = _load_concept_map(config)
        inputs["concept_map"] = map_digest

    kept, labels, _ = labeled_documents(docs, config["class_axis"])
    math_streams = build_math_streams(kept, source,
                                      config["explain"]["source_top_k"], concept_map)
    text_streams = [TokenStream.of(d.doc_id,
                                   [t for t in d.text_tokens() if t not in STOPWORDS])
                    for d in kept]
    math_token_streams = [TokenStream.of(d.doc_id, math_streams[d.doc_id])
                          for d in kept]
    train_idx, _ = stratified_split(labels, config["split"]["test_fraction"],
                                    derive_seed(config["seed"], "classify"))
    text_encoder, _, text_model = fit_split_model(text_streams, labels, train_idx,
                                                  config["seed"], **config["logreg"])
    math_encoder, _, math_model = fit_split_model(math_token_streams, labels, train_idx,
                                                  config["seed"], **config["logreg"])

    # Every table document is explained once; the table keeps the first
    # lime.top_k features.  When the rankings sample with the same settings,
    # the documents the MDisc Text ranking samples are explained in full and
    # reused by it; the others keep only their table features.
    lime_cfg = config["lime"]
    table_lime = explain_mod.LimeSettings(lime_cfg["num_samples"],
                                          lime_cfg["kernel_width"], lime_cfg["ridge"])
    rank_lime = replace(table_lime, num_samples=config["explain"]["num_samples"])
    budget = config["explain"]["budget"]
    reusable = (explain_mod.mdisc_documents(kept, budget, config["seed"], config["class_axis"])
                if rank_lime == table_lime else set())
    explained: dict[str, explain_mod.Explanation] = {}
    for doc, label, stream in zip(kept, labels, text_streams):
        if not any(t in text_encoder.vocabulary for t in stream.tokens):
            continue  # nothing in vocabulary, nothing to explain
        explained[doc.doc_id] = explain_mod.lime_explain(
            text_model, text_encoder, doc.doc_id, list(stream.tokens), label,
            top_k=None if doc.doc_id in reusable else lime_cfg["top_k"],
            seed=derive_seed(config["seed"], "lime", doc.doc_id), **asdict(table_lime))
    explanation_rows = []
    for explanation in explained.values():
        for position, (token, weight) in enumerate(
                explanation.features[:lime_cfg["top_k"]], start=1):
            explanation_rows.append((explanation.doc_id, explanation.target_class,
                                     explanation.fidelity, position, token, weight))
    write_tsv(out_dir / "explanations.tsv",
              ["doc", "class", "fidelity", "position", "token", "weight"],
              explanation_rows)

    rankings = explain_mod.compute_rankings(
        kept, text_model, text_encoder, math_model, math_encoder, math_streams,
        budget=budget, seed=config["seed"], lime=rank_lime,
        class_axis=config["class_axis"],
        text_explanations={doc_id: explanation for doc_id, explanation in explained.items()
                           if doc_id in reusable})
    top_m = config["explain"]["top_m"]
    ranking_rows = []
    for mode in (explain_mod.MDISC, explain_mod.MFREQ):
        for kind in (explain_mod.TEXT_KIND, explain_mod.MATH_KIND):
            ranking = rankings[(mode, kind)]
            for label in sorted(ranking.per_class):
                for position, (entity, strength) in enumerate(
                        ranking.per_class[label][:top_m], start=1):
                    ranking_rows.append((mode, kind, label, position, entity,
                                         strength))
    write_tsv(out_dir / "rankings.tsv",
              ["mode", "kind", "class", "position", "entity", "strength"],
              ranking_rows)

    report = explain_mod.build_entropy_report(rankings, top_m=top_m)
    write_tsv(out_dir / "entropy_report.tsv", ["row", "entropy_bits"],
              list(report.rows))
    fidelities = [e.fidelity for e in explained.values()]
    write_json(out_dir / "explain.json", {
        "entropy_rows": {label: value for label, value in report.rows},
        "top_m": report.top_m,
        "budget": budget,
        "warnings": {f"{mode}_{kind}": list(rankings[(mode, kind)].warnings)
                     for mode, kind in rankings},
        "lime": {
            "documents_explained": len(explained),
            "documents_skipped": len(kept) - len(explained),
            "ranking_explanations_reused":
                rankings[(explain_mod.MDISC, explain_mod.TEXT_KIND)].reused,
            "fidelity_min": min(fidelities, default=None),
            "fidelity_mean": sum(fidelities) / len(fidelities) if fidelities else None,
        },
        "full_scale_reference": report.reference,
    })
    outputs = ["explanations.tsv", "rankings.tsv", "entropy_report.tsv",
               "explain.json"]
    _write_manifest("explain", config, out_dir, inputs, outputs)
    return outputs


def stage_plotdata(config: dict, out_dir: Path) -> list[str]:
    which = config["plot"]["which"]
    if which == "symbol-name-distribution":
        from .stats import build_distribution_library

        docs, corpus_digest = _resolve_corpus(config)
        library = build_distribution_library(docs, class_axis=config["class_axis"])
        if not library.identifier_class:
            raise ValidationError("corpus contains no identifiers to plot")
        symbol = config["plot"]["symbol"]
        if symbol is None:
            symbol = min(library.identifier_class,
                         key=lambda s: (-sum(library.identifier_class[s].values()), s))
        if symbol not in library.identifier_class:
            raise ValidationError(f"identifier {symbol!r} does not occur in the corpus")
        name = config["plot"]["name"]
        if name is None:
            by_name = library.identifier_name.get(symbol)
            if not by_name:
                raise ValidationError(f"identifier {symbol!r} has no gold names")
            name = min(by_name, key=lambda n: (-by_name[n], n))
        if name not in library.name_class:
            raise ValidationError(f"name {name!r} does not occur in the corpus")
        rows = []
        for series, table in ((f"identifier:{symbol}", library.identifier_class[symbol]),
                              (f"name:{name}", library.name_class[name])):
            total = sum(table.values())
            for label in sorted(table):
                rows.append((series, label, table[label] / total))
        write_tsv(out_dir / "plot_symbol_name.tsv",
                  ["series", "class", "fraction"], rows)
        outputs = ["plot_symbol_name.tsv"]
        _write_manifest("plotdata", config, out_dir, {"corpus": corpus_digest}, outputs)
        return outputs
    if which == "entropy-table":
        source = out_dir / "entropy_report.tsv"
        if not source.is_file():
            raise ParseError("entropy_report.tsv not found; run the explain stage first")
        lines = source.read_text(encoding="utf-8").splitlines()[1:]
        parsed = [(line.split("\t")[0], float(line.split("\t")[1])) for line in lines]
        total = sum(value for _, value in parsed)
        if total <= 0:
            raise ValidationError("entropy table sums to zero; nothing to normalize")
        rows = [(label, value, value / total) for label, value in parsed]
        write_tsv(out_dir / "plot_entropy_table.tsv",
                  ["row", "entropy_bits", "normalized"], rows)
        outputs = ["plot_entropy_table.tsv"]
        _write_manifest("plotdata", config, out_dir,
                        {"entropy_report.tsv": _digest_file(source)}, outputs)
        return outputs
    raise ConfigError(f"plot.which must be 'symbol-name-distribution' or "
                      f"'entropy-table', got {which!r}")


def stage_report(config: dict, out_dir: Path) -> list[str]:
    missing = [name for _, name in REPORT_SECTIONS if not (out_dir / name).is_file()]
    if missing:
        raise ParseError("missing stage outputs: " + ", ".join(missing)
                         + " (run the corresponding stages first)")
    digest = config_digest(config)
    lines = [f"# {TOOL_NAME} pipeline report", "",
             f"- seed: {config['seed']}",
             f"- config digest: `{digest}`", ""]
    for title, name in REPORT_SECTIONS:
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append((out_dir / name).read_text(encoding="utf-8").rstrip("\n"))
        lines.append("```")
        lines.append("")
    (out_dir / "report.md").write_text("\n".join(lines), encoding="utf-8")

    files = sorted(p.name for p in out_dir.iterdir()
                   if p.is_file() and p.name != "manifest.json")
    manifest = {
        "tool": TOOL_NAME,
        "version": __version__,
        "stage": "report",
        "seed": config["seed"],
        "config_digest": digest,
        "files": {name: _digest_file(out_dir / name) for name in files},
    }
    write_json(out_dir / "manifest.json", manifest)
    return ["report.md", "manifest.json"]


STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "stats": stage_stats,
    "correspond": stage_correspond,
    "classify": stage_classify,
    "augment": stage_augment,
    "ablate": stage_ablate,
    "link": stage_link,
    "mathel": stage_mathel,
    "explain": stage_explain,
    "plotdata": stage_plotdata,
    "report": stage_report,
}

_STAGE_HELP = {
    "synth": "write the demo corpus and its fixture files",
    "ingest": "validate the corpus and summarize its contents",
    "stats": "identifier/name/class distributions and their entropies",
    "correspond": "arXiv/MSC co-occurrence, uncertainty, and cross prediction",
    "classify": "train and score the text classifier",
    "augment": "identifier-name augmentation experiment",
    "ablate": "text/math input ablation experiment",
    "link": "gazetteer entity linking and its evaluation",
    "mathel": "formula-concept linking and coverage",
    "explain": "surrogate explanations, entity rankings, entropy table",
    "plotdata": "plot-ready tables derived from stage outputs",
    "report": "assemble stage tables into report.md and manifest.json",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", metavar="FILE",
                        help="JSON config file (flags override its values)")
    common.add_argument("--corpus", metavar="FILE",
                        help="corpus JSONL file, or @demo for the built-in corpus")
    common.add_argument("--out-dir", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, metavar="N", help="master random seed")
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Desk-scale pipeline for classifying STEM documents and "
                    "explaining the classifiers through their identifiers, "
                    "names, and linked entities.")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("print-config", parents=[common],
                          help="print the effective configuration and exit")
    for name in STAGES:
        stage_parser = subparsers.add_parser(name, parents=[common],
                                             help=_STAGE_HELP[name])
        if name == "plotdata":
            stage_parser.add_argument(
                "--which", choices=("symbol-name-distribution", "entropy-table"),
                help="which plot table to produce")
            stage_parser.add_argument("--symbol", help="identifier symbol to plot")
            stage_parser.add_argument("--name", help="identifier name to plot")
    return parser


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
    return code


@contextmanager
def _convergence_warnings(stage: str):
    """Print one JSON line on stderr per fit that stopped unconverged.

    Other warnings pass through unchanged.
    """
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            yield
    finally:
        for item in caught:
            if isinstance(item.message, ConvergenceWarning):
                record = {"warning": "ConvergenceWarning", "stage": stage,
                          "iterations": item.message.iterations,
                          "final_loss": item.message.final_loss,
                          "message": str(item.message)}
                print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
            else:
                warnings.showwarning(item.message, item.category, item.filename,
                                     item.lineno, item.file, item.line)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"corpus": args.corpus, "out_dir": args.out_dir, "seed": args.seed}
    if args.command == "plotdata":
        overrides["plot.which"] = args.which
        overrides["plot.symbol"] = args.symbol
        overrides["plot.name"] = args.name
    try:
        config = load_config(args.config, overrides)
        if args.command == "print-config":
            print(json.dumps(config, sort_keys=True, indent=2, ensure_ascii=False))
            return 0
        out_dir = Path(config["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        with _convergence_warnings(args.command):
            outputs = STAGES[args.command](config, out_dir)
        print(f"{args.command}: wrote {', '.join(outputs)}")
        return 0
    except ConfigError as exc:
        return _fail(exc, 2)
    except (ParseError, OSError) as exc:
        return _fail(exc, 3)
    except ToolkitError as exc:
        return _fail(exc, 4)


if __name__ == "__main__":
    raise SystemExit(main())
