"""Command-line pipeline over corpus files.

Each subcommand runs one stage: it resolves its inputs, makes one library
call and writes its tables into the output directory, then a stage
manifest.  ``report`` stitches the stage tables into one markdown report plus
an overall manifest.  All outputs are plain TSV, JSON, JSONL, or markdown,
and are byte-identical across runs with the same config and input bytes,
regardless of where the output directory lives: manifests record content
digests and relative names, never paths.

Every file goes through one ``StageWriter``: it is written to
``.<name>.partial`` next to its target and moved over it with
``os.replace``.  A stage removes its old manifest before its first write and
writes the new one last, so a manifest on disk always matches its files.  A
stage killed mid-write can leave a ``.partial`` file, which a rerun replaces.

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

Each stage runs in its own process, so this module imports only corpus,
encode and errors at its top; every other module (numpy with classify,
augment and explain) is imported inside the stages that use it.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .corpus import Document, corpus_summary, corpus_to_text, load_corpus, save_corpus
from .encode import TokenStream, lemmatize_stream, remove_stopwords
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


def _map_files(config: dict, fn) -> None:
    """Replace each file setting by ``fn(role, value)``, roles named as in manifests."""
    config["corpus"] = fn("corpus", config["corpus"])
    for section, key, role in (("linker", "gazetteers", "gazetteer"),
                               ("augment", "sources", "source")):
        config[section][key] = {tag: fn(f"{role}:{tag}", value)
                                for tag, value in config[section][key].items()}
    config["augment"]["concept_map"] = fn("concept_map", config["augment"]["concept_map"])


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
        base = source.resolve().parent
        _map_files(config, lambda role, value: _anchor(value, base))
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
    ``known`` holds digests a stage already computed, keyed by role
    ("corpus", "gazetteer:<tag>", "source:<tag>", "concept_map"); those
    files are not read again.
    """
    canon = copy.deepcopy(config)
    canon.pop("out_dir", None)
    known = known or {}

    def _content(role, path_value):
        if path_value is None or path_value == "@demo":
            return path_value
        digest = known.get(role)
        return _digest_file(Path(path_value)) if digest is None else digest

    _map_files(canon, _content)
    return _digest_bytes(json.dumps(canon, sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# Stage inputs and outputs


def _load_input(out: StageWriter, role: str, ref: str, what: str, load):
    """``load(path)``, its digest recorded as input ``role``; a missing file is an input error."""
    path = Path(ref)
    if not path.is_file():
        raise ParseError(f"{what} file not found: {ref}")
    out.inputs[role] = _digest_file(path)
    return load(path)


def _resolve_corpus(config: dict, out: StageWriter) -> list[Document]:
    ref = config["corpus"]
    if ref == "@demo":
        from .synth import demo_corpus

        docs = demo_corpus()
        out.inputs["corpus"] = _digest_bytes(corpus_to_text(docs).encode("utf-8"))
        return docs
    return _load_input(out, "corpus", ref, "corpus", load_corpus)


def _encoded_streams(docs: list[Document], config: dict) -> list[TokenStream]:
    streams = [TokenStream.of(doc.doc_id, doc.text_tokens()) for doc in docs]
    if config["encode"]["remove_stopwords"]:
        streams = [remove_stopwords(stream) for stream in streams]
    if config["encode"]["lemmatize"]:
        streams = [lemmatize_stream(stream) for stream in streams]
    return streams


def _load_gazetteers(config: dict, out: StageWriter) -> dict[str, Gazetteer]:
    from .linker import load_gazetteer

    gazetteers = {tag: _load_input(out, f"gazetteer:{tag}", ref, "gazetteer",
                                   lambda path: load_gazetteer(path, tag))
                  for tag, ref in sorted(config["linker"]["gazetteers"].items())}
    if not gazetteers:
        raise ConfigError("linker.gazetteers is empty; nothing to link against")
    return gazetteers


def _load_source(config: dict, tag: str, out: StageWriter) -> SymbolNameSource:
    from .augment import load_symbol_source

    ref = config["augment"]["sources"].get(tag)
    if ref is None:
        raise ConfigError(f"augment.sources has no entry {tag!r}")
    return _load_input(out, f"source:{tag}", ref, "symbol source",
                       lambda path: load_symbol_source(path, tag))


def _load_concept_map(config: dict, out: StageWriter) -> ConceptCategoryMap:
    from .augment import load_concept_map

    ref = config["augment"]["concept_map"]
    if ref is None:
        raise ConfigError("augment.concept_map is required for this stage")
    return _load_input(out, "concept_map", ref, "concept map", load_concept_map)


def build_math_streams(*args) -> dict[str, list[str]]:
    """``augment.build_math_streams``; no stage calls it, bench/tracing.py spans this name."""
    from .augment import build_math_streams

    return build_math_streams(*args)


class StageWriter:
    """One stage run's inputs (role -> digest) and the files it writes into ``out_dir``.

    Each file is written to ``.<name>.partial`` and renamed over its
    target.  The stage's manifest is removed before the first file and
    written last, so a manifest on disk always matches its files.
    """

    def __init__(self, out_dir: Path, manifest: str | None):
        self.out_dir = out_dir
        self.manifest = manifest
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def file(self, name: str, write) -> None:
        """``write(path)`` writes the file; the path it gets is the temp file."""
        if not self.outputs and self.manifest is not None:
            (self.out_dir / self.manifest).unlink(missing_ok=True)
        partial = self.out_dir / f".{name}.partial"
        try:
            write(partial)
            os.replace(partial, self.out_dir / name)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        self.outputs.append(name)

    def tsv(self, name: str, header, rows) -> None:
        self.file(name, lambda path: write_tsv(path, header, rows))

    def json(self, name: str, payload) -> None:
        self.file(name, lambda path: write_json(path, payload))


def _write_manifest(out: StageWriter, stage: str, config: dict) -> None:
    manifest = {
        "tool": TOOL_NAME,
        "version": __version__,
        "stage": stage,
        "seed": config["seed"],
        "config_digest": config_digest(config, out.inputs),
        "inputs": dict(sorted(out.inputs.items())),
        "outputs": {name: _digest_file(out.out_dir / name) for name in sorted(out.outputs)},
    }
    out.json(out.manifest, manifest)


# ---------------------------------------------------------------------------
# Stages

STAGES: dict[str, Callable[[dict, Path], list[str]]] = {}
"""Stage name -> ``run(config, out_dir)``, which returns the files it wrote."""


def _stage(manifest: bool = True):
    """Register ``stage_<name>(config, out: StageWriter)``; help is its docstring's first line.

    With ``manifest``, ``<name>_manifest.json`` is written after its files.
    """
    def register(body):
        name = body.__name__.removeprefix("stage_")

        @functools.wraps(body)
        def run(config: dict, out_dir: Path) -> list[str]:
            out = StageWriter(out_dir, f"{name}_manifest.json" if manifest else None)
            body(config, out)
            if manifest:
                _write_manifest(out, name, config)
            return out.outputs

        STAGES[name] = run
        return run
    return register


@_stage(manifest=False)
def stage_synth(config: dict, out: StageWriter) -> None:
    """write the demo corpus and its fixture files

    A fixture generator rather than a pipeline stage, so it writes no
    manifest; the emitted config uses paths relative to the output
    directory and works from anywhere.
    """
    from . import synth as synth_mod

    docs = synth_mod.demo_corpus()
    out.file("demo_corpus.jsonl", lambda path: save_corpus(docs, path))
    sources = synth_mod.demo_symbol_sources()
    for source in sources:
        out.file(f"source_{source.name}.tsv",
                 lambda path: synth_mod.write_symbol_source(source, path))
    out.file("concept_map.tsv",
             lambda path: synth_mod.write_concept_map(synth_mod.demo_concept_map(), path))
    gazetteers = synth_mod.demo_gazetteers()
    for tag, gazetteer in sorted(gazetteers.items()):
        out.file(f"gazetteer_{tag}.tsv", lambda path: synth_mod.write_gazetteer(gazetteer, path))
    demo_config = copy.deepcopy(DEFAULT_CONFIG)
    demo_config["corpus"] = "demo_corpus.jsonl"
    demo_config["seed"] = synth_mod.DEMO_CONFIG.seed
    demo_config["linker"]["gazetteers"] = {
        tag: f"gazetteer_{tag}.tsv" for tag in sorted(gazetteers)}
    demo_config["augment"]["sources"] = {
        source.name: f"source_{source.name}.tsv" for source in sources}
    demo_config["augment"]["concept_map"] = "concept_map.tsv"
    demo_config["explain"]["source"] = "arxiv"
    out.json("demo_config.json", demo_config)


@_stage()
def stage_ingest(config: dict, out: StageWriter) -> None:
    """validate the corpus and summarize its contents"""
    out.tsv("ingest_summary.tsv", ["metric", "value"],
            corpus_summary(_resolve_corpus(config, out)))


@_stage()
def stage_stats(config: dict, out: StageWriter) -> None:
    """identifier/name/class distributions and their entropies"""
    from .stats import build_distribution_library, entropy_summary

    docs = _resolve_corpus(config, out)
    library = build_distribution_library(docs, class_axis=config["class_axis"])
    text = "".join(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
                   for record in library.to_records())
    out.file("library.jsonl", lambda path: path.write_text(text, encoding="utf-8"))
    summary_rows, key_rows = [], []
    for keyed in ("identifier", "name"):
        summary = entropy_summary(library, keyed=keyed)
        summary_rows.append((keyed, summary.minimum, summary.mean, summary.maximum))
        for key, value in sorted(summary.per_key.items()):
            key_rows.append((keyed, key, value))
    out.tsv("entropy_summary.tsv",
            ["keyed_by", "min_entropy", "mean_entropy", "max_entropy"], summary_rows)
    out.tsv("key_entropies.tsv", ["keyed_by", "key", "entropy"], key_rows)


@_stage()
def stage_correspond(config: dict, out: StageWriter) -> None:
    """arXiv/MSC co-occurrence, uncertainty, and cross prediction"""
    from .classify import classifier_label_map, predict_categories
    from .stats import (argmax_predict, build_cooccurrence, compare_predictions,
                        uncertainty_report)

    docs = _resolve_corpus(config, out)
    matrix = build_cooccurrence(docs)
    out.tsv("cooccurrence.tsv", ["arxiv\\msc"] + list(matrix.col_labels),
            [(label,) + tuple(matrix.counts[i]) for i, label in enumerate(matrix.row_labels)])

    uncertainty_rows, summary_rows = [], []
    for direction in ("rows", "columns"):
        report = uncertainty_report(matrix, direction)
        for label, entropy, margin in report.rows:
            uncertainty_rows.append((direction, label, entropy, margin))
        summary_rows.append((direction, report.entropy_mean, report.entropy_max,
                             report.margin_mean, report.margin_max))
    out.tsv("uncertainty.tsv", ["direction", "label", "entropy", "margin"], uncertainty_rows)
    out.tsv("uncertainty_summary.tsv",
            ["direction", "entropy_mean", "entropy_max", "margin_mean", "margin_max"],
            summary_rows)

    # Dual route: count-table argmax next to a trained classifier.
    agreement_rows = []
    for direction, axis in (("arxiv-from-msc", "columns"), ("msc-from-arxiv", "rows")):
        counting = argmax_predict(matrix, axis)
        learned = classifier_label_map(docs, direction, seed=config["seed"],
                                       **config["logreg"])
        matches, mismatches = compare_predictions(counting, learned)
        agreement_rows.append((direction, matches, mismatches))
    out.tsv("argmax_vs_classifier.tsv", ["direction", "matches", "mismatches"],
            agreement_rows)

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
    out.tsv("category_accuracy.tsv",
            ["direction", "label_mode", "granularity", "accuracy", "train_accuracy",
             "n_train", "n_test", "evaluated_on"], accuracy_rows)


@_stage()
def stage_classify(config: dict, out: StageWriter) -> None:
    """train and score the text classifier"""
    from .classify import (derive_seed, fit_split_model, held_out_accuracy, labeled_documents,
                           predict_labels, stratified_split, subset_accuracy)

    docs = _resolve_corpus(config, out)
    kept, labels, skipped = labeled_documents(docs, config["class_axis"])
    streams = _encoded_streams(kept, config)
    train_idx, test_idx = stratified_split(labels, config["split"]["test_fraction"],
                                           derive_seed(config["seed"], "classify"))
    encoder, vectors, model = fit_split_model(streams, labels, train_idx, config["seed"],
                                              **config["logreg"])
    train_accuracy = subset_accuracy(model, vectors, labels, train_idx)
    accuracy, evaluated_on = held_out_accuracy(model, vectors, labels, train_idx, test_idx)
    out.tsv("classify.tsv", ["metric", "value"], [
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
    ])
    out.json("classify_model.json", {"tfidf": encoder.to_record(), "logreg": model.to_record()})
    predicted = predict_labels(model, [vectors[i] for i in test_idx])
    out.tsv("classify_predictions.tsv", ["doc", "label", "predicted"],
            [(kept[i].doc_id, labels[i], guess) for i, guess in zip(test_idx, predicted)])


@_stage()
def stage_augment(config: dict, out: StageWriter) -> None:
    """identifier-name augmentation experiment"""
    from . import augment as augment_mod

    docs = _resolve_corpus(config, out)
    sources = [_load_source(config, tag, out) for tag in sorted(config["augment"]["sources"])]
    if not sources:
        raise ConfigError("augment.sources is empty")
    report = augment_mod.run_augmentation_experiment(
        docs, sources, config["augment"]["top_k"], seed=config["seed"],
        class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"], **config["logreg"])
    rows = [("baseline", "text_only", "", report.text_only),
            ("baseline", "symbols_only", "", report.symbols_only),
            ("baseline", "text_plus_symbols", "", report.text_plus_symbols)]
    rows += [("augmented", cell.source, cell.top_k, cell.accuracy) for cell in report.cells]
    out.tsv("augment.tsv", ["row_kind", "source", "top_k", "accuracy"], rows)
    out.json("augment.json", {
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


@_stage()
def stage_ablate(config: dict, out: StageWriter) -> None:
    """text/math input ablation experiment"""
    from . import augment as augment_mod

    docs = _resolve_corpus(config, out)
    concept_map = _load_concept_map(config, out)
    report = augment_mod.run_ablation_experiment(
        docs, concept_map, seed=config["seed"], class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"], **config["logreg"])
    out.tsv("ablate.tsv", ["mode", "accuracy", "relative_cost"],
            [(row.mode, row.accuracy, row.relative_cost) for row in report.rows])
    out.tsv("ablate_coverage.tsv", ["phrase", "missing_class"],
            list(report.coverage_violations))
    out.json("ablate.json", {
        "class_axis": report.class_axis,
        "rows": [{"mode": r.mode, "accuracy": r.accuracy,
                  "relative_cost": r.relative_cost} for r in report.rows],
        "coverage_violations": [list(v) for v in report.coverage_violations],
        "n_train": report.n_train,
        "n_test": report.n_test,
        "full_scale_reference": report.reference,
    })


@_stage()
def stage_link(config: dict, out: StageWriter) -> None:
    """gazetteer entity linking and its evaluation"""
    from . import linker as linker_mod

    docs = _resolve_corpus(config, out)
    gazetteers = _load_gazetteers(config, out)
    links, evaluation, tuples = linker_mod.link_corpus(docs, gazetteers,
                                                       max_n=config["linker"]["max_n"])
    out.tsv("links.tsv", linker_mod.LINK_COLUMNS, links)
    out.tsv("link_eval.tsv", linker_mod.LINK_EVAL_COLUMNS, evaluation)
    out.tsv("link_tuples.tsv", linker_mod.LINK_TUPLE_COLUMNS, tuples)


@_stage()
def stage_mathel(config: dict, out: StageWriter) -> None:
    """formula-concept linking and coverage"""
    from . import linker as linker_mod

    docs = _resolve_corpus(config, out)
    gazetteers = _load_gazetteers(config, out)
    rows, coverage = linker_mod.link_corpus_concepts(
        docs, gazetteers, window=config["linker"]["window"], max_n=config["linker"]["max_n"])
    out.tsv("mathel.tsv", linker_mod.MATHEL_COLUMNS, rows)
    if coverage is not None:
        out.tsv("mathel_coverage.tsv", ["metric", "value"], [
            ("gold_concepts", coverage.n_concepts),
            ("fraction_with_article", coverage.fraction_with_article),
            ("fraction_with_item", coverage.fraction_with_item),
            ("fraction_name_in_window", coverage.fraction_name_in_window),
            ("highly_relevant_found", coverage.highly_relevant_found),
        ])


@_stage()
def stage_explain(config: dict, out: StageWriter) -> None:
    """surrogate explanations, entity rankings, entropy table"""
    from . import explain as explain_mod

    docs = _resolve_corpus(config, out)
    source_tag = config["explain"]["source"]
    if source_tag is None:
        raise ConfigError("explain.source must name one of augment.sources")
    source = _load_source(config, source_tag, out)
    concept_map = (None if config["augment"]["concept_map"] is None
                   else _load_concept_map(config, out))
    lime, settings = config["lime"], config["explain"]
    report = explain_mod.run_explain(
        docs, source, concept_map, seed=config["seed"], class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"],
        lime=explain_mod.LimeSettings(lime["num_samples"], lime["kernel_width"], lime["ridge"]),
        top_k=lime["top_k"], rank_samples=settings["num_samples"], budget=settings["budget"],
        top_m=settings["top_m"], source_top_k=settings["source_top_k"], **config["logreg"])
    out.tsv("explanations.tsv", ["doc", "class", "fidelity", "position", "token", "weight"],
            report.explanation_rows)
    out.tsv("rankings.tsv", ["mode", "kind", "class", "position", "entity", "strength"],
            report.ranking_rows)
    out.tsv("entropy_report.tsv", ["row", "entropy_bits"], report.entropy.rows)
    out.json("explain.json", {
        "entropy_rows": dict(report.entropy.rows),
        "top_m": report.entropy.top_m,
        "budget": settings["budget"],
        "warnings": report.warnings,
        "lime": report.lime,
        "full_scale_reference": report.entropy.reference,
    })


@_stage()
def stage_plotdata(config: dict, out: StageWriter) -> None:
    """plot-ready tables derived from stage outputs"""
    which = config["plot"]["which"]
    if which == "symbol-name-distribution":
        from .stats import CountDistribution, build_distribution_library

        docs = _resolve_corpus(config, out)
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
        out.tsv("plot_symbol_name.tsv", ["series", "class", "fraction"], [
            (series, label, fraction)
            for series, table in ((f"identifier:{symbol}", library.identifier_class[symbol]),
                                  (f"name:{name}", library.name_class[name]))
            for label, fraction in sorted(CountDistribution(table).normalized().items())])
    elif which == "entropy-table":
        source = out.out_dir / "entropy_report.tsv"
        if not source.is_file():
            raise ParseError("entropy_report.tsv not found; run the explain stage first")
        parsed = []
        for line_no, line in enumerate(source.read_text(encoding="utf-8").splitlines()[1:],
                                       start=2):
            label, _, value = line.partition("\t")
            try:
                entropy = float(value)
            except ValueError:
                entropy = math.nan
            if not math.isfinite(entropy):
                raise ParseError(f"entropy_report.tsv: expected a row name, a tab and a "
                                 f"finite entropy, got {line!r}", line_no)
            parsed.append((label, entropy))
        total = sum(value for _, value in parsed)
        if total <= 0:
            raise ValidationError("entropy table sums to zero; nothing to normalize")
        out.tsv("plot_entropy_table.tsv", ["row", "entropy_bits", "normalized"],
                [(label, value, value / total) for label, value in parsed])
        out.inputs["entropy_report.tsv"] = _digest_file(source)
    else:
        raise ConfigError(f"plot.which must be 'symbol-name-distribution' or "
                          f"'entropy-table', got {which!r}")


@_stage(manifest=False)
def stage_report(config: dict, out: StageWriter) -> None:
    """assemble stage tables into report.md and manifest.json

    ``manifest.json`` lists every other file but temp files with its digest;
    like a stage manifest, it is removed before the first write and written last.
    """
    out_dir = out.out_dir
    missing = [name for _, name in REPORT_SECTIONS if not (out_dir / name).is_file()]
    if missing:
        raise ParseError("missing stage outputs: " + ", ".join(missing)
                         + " (run the corresponding stages first)")
    digest = config_digest(config)
    lines = [f"# {TOOL_NAME} pipeline report", "",
             f"- seed: {config['seed']}",
             f"- config digest: `{digest}`", ""]
    for title, name in REPORT_SECTIONS:
        text = (out_dir / name).read_text(encoding="utf-8").rstrip("\n")
        lines += [f"## {title}", "", "```", text, "```", ""]
    (out_dir / "manifest.json").unlink(missing_ok=True)
    out.file("report.md", lambda path: path.write_text("\n".join(lines), encoding="utf-8"))
    files = sorted(p.name for p in out_dir.iterdir()
                   if p.is_file() and not p.name.endswith(".partial"))
    out.json("manifest.json", {
        "tool": TOOL_NAME,
        "version": __version__,
        "stage": "report",
        "seed": config["seed"],
        "config_digest": digest,
        "files": {name: _digest_file(out_dir / name) for name in files},
    })


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
                                             help=STAGES[name].__doc__.splitlines()[0])
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
    overrides = {"corpus": args.corpus, "out_dir": args.out_dir, "seed": args.seed,
                 **{f"plot.{key}": getattr(args, key, None) for key in ("which", "symbol", "name")}}
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
