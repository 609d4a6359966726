"""Traced in-process walk: spans around the calls into each layer.

The walk runs every stage in this process through ``cli.STAGES``.  While a
``Tracer`` is installed, the public functions of each layer module are
replaced by wrappers that record a span (name, start, end, parent, walk id),
in every module that holds a reference to them, so re-imported names such as
``augment.train_logreg`` are traced too.  The two hottest leaf functions,
``tokenize`` and ``lemmatize``, are only counted: a span per call would cost
more than the call.  Spans stay in memory; ``write_spans`` stores them once,
outside any output directory.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import time
from collections import Counter
from pathlib import Path

from walk import STAGE_RUNS, check_stage

# Layer module -> functions wrapped in a span.  "Class.method" wraps a method.
SPANNED = {
    "corpus": ("load_corpus", "Document.text_tokens", "Document.token_layout",
               "document_identifiers"),
    "formulas": ("extract_identifiers",),
    "encode": ("fit_tfidf", "transform", "transform_all"),
    "stats": ("build_distribution_library", "entropy_summary", "build_cooccurrence",
              "uncertainty_report"),
    "classify": ("train_logreg", "predict_proba", "evaluate_accuracy",
                 "predict_categories", "classifier_label_map"),
    "augment": ("load_symbol_source", "load_concept_map", "distinct_symbols",
                "symbol_tokens", "augment_identifiers", "ablate",
                "run_augmentation_experiment", "concept_coverage_violations",
                "run_ablation_experiment"),
    "linker": ("load_gazetteer", "link_text_entities", "evaluate_linking",
               "link_formula_concepts", "merge_concept_links", "mathel_coverage_report"),
    "explain": ("lime_explain", "rank_entities", "compute_rankings",
                "build_entropy_report"),
    "cli": ("load_config", "write_tsv", "write_json", "_write_manifest",
            "build_math_streams"),
}
COUNTED = {"encode": ("tokenize", "lemmatize")}

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, WALK, STAGE = range(6)


def _observe_fit(tracer, args, kwargs, model):
    data = args[0] if args else kwargs["data"]
    tracer.bump("classify.iterations", model.metadata["iterations"])
    tracer.bump("classify.converged", int(bool(model.metadata["converged"])))
    tracer.peak("classify.design_bytes", len(data.vectors) * data.dim * 8)


def _observe_write(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.bump("cli.write_bytes", Path(path).stat().st_size)


# Counters read from return values and arguments, keyed by span name.
OBSERVERS = {
    "classify.train_logreg": _observe_fit,
    "encode.fit_tfidf": lambda t, a, k, model: t.peak("encode.vocab_terms",
                                                      len(model.vocabulary)),
    "linker.link_text_entities": lambda t, a, k, links: t.bump("linker.links", len(links)),
    "explain.lime_explain": lambda t, a, k, exp: t.bump("explain.lime_samples",
                                                        exp.num_samples),
    "augment.run_augmentation_experiment": lambda t, a, k, rep: t.bump("augment.cells",
                                                                      len(rep.cells)),
    "cli.write_tsv": _observe_write,
    "cli.write_json": _observe_write,
}


class Tracer:
    """Spans and counters of traced walks, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (walk, name) -> value
        self.walk = 0
        self.stage = ""
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1],
                           self.walk, self.stage])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[self.walk, name] += amount

    def peak(self, name: str, value: int) -> None:
        key = (self.walk, name)
        self.counts[key] = max(self.counts[key], value)

    def _spanned(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.bump(name + ".raised")
                raise
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.walk, key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        import stemexplain

        modules = [importlib.import_module(f"stemexplain.{info.name}")
                   for info in pkgutil.iter_modules(stemexplain.__path__)
                   if info.name != "__main__"]
        for kinds, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in kinds.items():
                home = importlib.import_module(f"stemexplain.{layer}")
                for name in names:
                    self._patch(modules, home, name, make, f"{layer}.{name}")
        return self

    def _patch(self, modules, home, name: str, make, span_name: str) -> None:
        """Replace ``home.name`` by its wrapper wherever a module refers to it."""
        if "." in name:
            class_name, method = name.split(".")
            owner = getattr(home, class_name)
            original = owner.__dict__[method]
            self._patched.append((owner, method, original))
            setattr(owner, method, make(span_name, original))
            return
        original = getattr(home, name)
        wrapper = make(span_name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def write_spans(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "walk", "stage")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def inprocess_walk(workload, out_dir: Path, tracer: Tracer | None = None):
    """All stages in this process; returns ((stage, seconds) pairs, problems per stage).

    Mirrors ``cli.main``: load the config with the same overrides, then call
    the stage.  A stage that raises is a failed stage and the walk goes on.
    """
    from stemexplain import cli

    out_dir.mkdir(parents=True)
    seconds, outcomes = [], []
    for stage, extra in STAGE_RUNS:
        overrides = {"out_dir": str(out_dir)}
        if extra:
            overrides["plot.which"] = extra[1]
        if tracer is not None:
            tracer.stage = stage
            index = tracer.open(f"stage.{stage}")
        start = time.perf_counter()
        try:
            cli.STAGES[stage](cli.load_config(str(workload.config), overrides), out_dir)
            problems = []
        except Exception as exc:  # a failing stage is recorded, the walk goes on
            problems = [f"{stage} raised {type(exc).__name__}: {exc}"]
        seconds.append((stage, time.perf_counter() - start))
        if tracer is not None:
            tracer.close(index)
            tracer.stage = ""
        if not problems:
            problems = check_stage(stage, out_dir, workload)
        outcomes.append((stage, problems))
    return seconds, outcomes


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one walk

SELF_TIMES = {
    "corpus.load_s": ("corpus.load_corpus",),
    "corpus.text_tokens_s": ("corpus.Document.text_tokens",),
    "formulas.extract_s": ("formulas.extract_identifiers",),
    "encode.fit_tfidf_s": ("encode.fit_tfidf",),
    "encode.transform_s": ("encode.transform", "encode.transform_all"),
    "stats.library_s": ("stats.build_distribution_library",),
    "stats.cooccurrence_s": ("stats.build_cooccurrence",),
    "classify.fit_total_s": ("classify.train_logreg",),
    "classify.predict_s": ("classify.predict_proba",),
    "augment.self_s": tuple(f"augment.{name}" for name in SPANNED["augment"]),
    "linker.formula_link_s": ("linker.link_formula_concepts",),
    "linker.eval_s": ("linker.evaluate_linking", "linker.mathel_coverage_report"),
    "explain.rank_self_s": ("explain.rank_entities", "explain.compute_rankings",
                            "explain.build_entropy_report"),
    "cli.config_s": ("cli.load_config",),
    "cli.write_s": ("cli.write_tsv", "cli.write_json"),
    "cli.manifest_s": ("cli._write_manifest",),
}
CALL_COUNTS = {
    "corpus.text_tokens_calls": "corpus.Document.text_tokens",
    "formulas.extract_calls": "formulas.extract_identifiers",
    "classify.fits": "classify.train_logreg",
    "classify.predictions": "classify.predict_proba",
    "explain.lime_calls": "explain.lime_explain",
}
# Counters kept by wrappers and observers (deterministic, compared exactly).
COUNTERS = {
    "encode.tokenize_calls": "encode.tokenize.calls",
    "encode.lemmatize_calls": "encode.lemmatize.calls",
    "encode.vocab_terms": "encode.vocab_terms",
    "classify.iterations": "classify.iterations",
    "classify.design_bytes": "classify.design_bytes",
    "augment.cells": "augment.cells",
    "linker.links": "linker.links",
    "explain.lime_samples": "explain.lime_samples",
    "explain.lime_skipped": "explain.lime_explain.raised",
    "cli.write_bytes": "cli.write_bytes",
}
# Share of a stage's wall time spent inside one layer function.
SHARES = {
    "share.augment_in_fits": ("augment", "classify.train_logreg"),
    "share.link_in_text_link": ("link", "linker.link_text_entities"),
    "share.explain_in_lime": ("explain", "explain.lime_explain"),
}


def high_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with rank 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def span_times(tracer: Tracer, walk: int):
    """Self time per span name, and each name's span durations, for one walk.

    A span's self time is its duration minus the durations of its direct
    children; the children of one span never overlap.
    """
    indices = [i for i, s in enumerate(tracer.spans) if s[WALK] == walk]
    child_time = Counter()
    for i in indices:
        span = tracer.spans[i]
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time = Counter()
    durations: dict[str, list[float]] = {}
    for i in indices:
        span = tracer.spans[i]
        duration = span[END] - span[START]
        self_time[span[NAME]] += duration - child_time[i]
        durations.setdefault(span[NAME], []).append(duration)
    return self_time, durations


def walk_metrics(tracer: Tracer, walk: int, ngrams_examined: int) -> dict[str, float]:
    """Per-layer numbers of one traced walk."""
    self_time, durations = span_times(tracer, walk)
    spans = [s for s in tracer.spans if s[WALK] == walk]
    out = {metric: sum(self_time[name] for name in names)
           for metric, names in SELF_TIMES.items()}
    for metric, name in CALL_COUNTS.items():
        out[metric] = len(durations.get(name, ()))
    for metric, key in COUNTERS.items():
        out[metric] = tracer.counts[walk, key]
    fits = durations.get("classify.train_logreg", [])
    out["classify.fit_s.p50"] = statistics.median(fits)
    out["classify.fit_s.high"], out["classify.fit_s.high_pct"] = high_percentile(fits)
    out["classify.converged_ratio"] = tracer.counts[walk, "classify.converged"] / len(fits)
    lime = durations.get("explain.lime_explain", [])
    out["explain.lime_s.p50"] = statistics.median(lime)
    out["explain.lime_s.high"], out["explain.lime_s.high_pct"] = high_percentile(lime)
    out["linker.text_link_s"] = statistics.median(durations["linker.link_text_entities"])
    out["linker.ngrams_examined"] = ngrams_examined
    out["linker.hit_ratio"] = out["linker.links"] / ngrams_examined
    for metric, (stage, name) in SHARES.items():
        stage_time = sum(s[END] - s[START] for s in spans if s[NAME] == f"stage.{stage}")
        # Spans of one function do not nest in each other here, so their
        # durations add up without double counting.
        inner = sum(s[END] - s[START] for s in spans
                    if s[NAME] == name and s[STAGE] == stage)
        out[metric] = inner / stage_time
    return out


DETERMINISTIC = tuple(CALL_COUNTS) + tuple(COUNTERS) + (
    "classify.converged_ratio", "linker.ngrams_examined", "linker.hit_ratio")
