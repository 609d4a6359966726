"""Local surrogate explanations and entity-level explanation rankings.

``lime_explain`` perturbs a document by dropping random subsets of its
distinct in-vocabulary tokens, queries the classifier on each masked
variant, and fits a weighted ridge surrogate whose sample weights decay
with cosine distance from the original vector through the kernel
exp(-d^2 / width^2).  The surrogate coefficients are the token
weights of the explanation.  ``LimeSettings`` holds the sample count,
kernel width and ridge that every caller passes the same way, and
``LimeBuffers`` the two work arrays that successive calls reuse.

``rank_entities`` aggregates either document frequencies (MFreq) or
mean absolute surrogate weights (MDisc) into per-class entity rankings,
and ``class_entity_entropy`` condenses a ranking into a single entropy
in one of two directions: ClsEnt averages the class-distribution
entropy of the top entities, EntCls averages the entropy of each
class's top entity strengths.

``run_explain`` is the explain stage's computation: it fits a text and a
math model, explains the text model on every document, ranks entities
four ways and returns the rows of the stage's tables.  All of its LIME
calls share one ``LimeBuffers``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import (LogRegModel, derive_seed, fit_split_model, labeled_documents, softmax,
                       stratified_split)
from .corpus import Document, primary_label
from .encode import STOPWORDS, TfIdfModel, TokenStream
from .entropy import CountDistribution, shannon_entropy
from .errors import DomainError, ValidationError
from .sources import ConceptCategoryMap, SymbolNameSource, build_math_streams

MFREQ = "MFreq"
MDISC = "MDisc"
TEXT_KIND = "Text"
MATH_KIND = "Math"
CLS_ENT = "ClsEnt"
ENT_CLS = "EntCls"

# Full-scale reference entropies for the eight-row report, metadata only.
FULL_SCALE_REFERENCE = {
    "MDiscTextClsEnt": 4.22, "MDiscTextEntCls": 0.54,
    "MFreqTextClsEnt": 7.71, "MFreqTextEntCls": 0.72,
    "MDiscMathClsEnt": 4.16, "MDiscMathEntCls": 0.33,
    "MFreqMathClsEnt": 7.22, "MFreqMathEntCls": 0.74,
}


@dataclass(frozen=True)
class LimeSettings:
    """Sampling and surrogate settings of a LIME explanation.

    ``kernel_width`` None means 0.75 * sqrt(F) for F distinct tokens.
    Two explanations of the same tokens, target, model and seed are
    equal when their settings are.
    """

    num_samples: int = 1000
    kernel_width: float | None = None
    ridge: float = 1.0


@dataclass(frozen=True)
class Explanation:
    doc_id: str
    target_class: str
    features: tuple[tuple[str, float], ...]  # (token, weight), |weight| descending
    intercept: float
    fidelity: float
    num_samples: int
    kernel_width: float
    seed: int


# Rows of the mask matrix drawn per generator call.
_MASK_ROWS = 256


class LimeBuffers:
    """Two flat float64 work arrays that successive ``lime_explain`` calls reuse.

    A call of S samples over F features uses S * (F + 1) elements of
    each; the pair is replaced by a larger one only when a call needs
    more, and ``release`` drops it.  A holder serves one call at a
    time: two calls running at once must not share one.
    """

    def __init__(self) -> None:
        self.release()

    def take(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``size`` elements of each array, growing the pair if needed."""
        if self.first.size < size:
            self.release()  # free the old pair first
            self.first, self.second = np.empty(size), np.empty(size)
        return self.first[:size], self.second[:size]

    def release(self) -> None:
        """Drop the pair; the next ``take`` allocates a new one."""
        self.first = self.second = np.empty(0)


def draw_masks(seed: int, masks: np.ndarray) -> None:
    """Fill ``masks`` (S, F) with ``default_rng(seed).integers(0, 2, size=(S, F))``.

    ``integers(0, 2)`` takes each value from the top bit of one 32-bit
    draw, and PCG64 serves each 64-bit word as two 32-bit draws, low half
    first.  So the values are bit 31 of the generator's raw words read as
    little-endian uint32 pairs, which are drawn and shifted in row blocks
    straight into ``masks``, a view that may be strided.
    """
    generator = np.random.default_rng(seed).bit_generator
    for start in range(0, len(masks), _MASK_ROWS):
        block = masks[start:start + _MASK_ROWS]
        words = generator.random_raw((block.size + 1) // 2).astype("<u8", copy=False)
        np.right_shift(words.view("<u4")[:block.size].reshape(block.shape), 31, out=block)


def lime_explain(model: LogRegModel, encoder: TfIdfModel, doc_id: str,
                 tokens: list[str], target_class: str, num_samples: int = 1000,
                 kernel_width: float | None = None, ridge: float = 1.0,
                 top_k: int | None = 10, seed: int = 0, *,
                 buffers: LimeBuffers | None = None) -> Explanation:
    """Explain the target-class probability for one token sequence.

    Interpretable features are the distinct in-vocabulary tokens in
    first-appearance order; masking a token removes all of its
    occurrences.  The default kernel width is 0.75 * sqrt(F) for F
    distinct tokens.  Identical seeds yield identical explanations.
    ``buffers`` holds the work arrays; None means a fresh holder for
    this call alone.
    """
    if num_samples < 1:
        raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
    if target_class not in model.classes:
        raise ValidationError(f"unknown target class {target_class!r}")
    features: list[str] = []
    counts: dict[str, int] = {}
    for token in tokens:
        if token in encoder.vocabulary:
            if token not in counts:
                features.append(token)
            counts[token] = counts.get(token, 0) + 1
    if not features:
        raise ValidationError("document has no in-vocabulary tokens to explain")
    n_features = len(features)
    if kernel_width is None:
        kernel_width = 0.75 * math.sqrt(n_features)

    indices = np.array([encoder.vocabulary[t] for t in features])
    base = np.array([counts[t] * encoder.idf[encoder.vocabulary[t]] for t in features])
    class_index = model.classes.index(target_class)
    sub_weights = model.weights[:, indices]  # (C, F)

    # The design matrix is an intercept column, then the 0/1 masks, drawn
    # into the first array and read back through a view.  The second array
    # holds, in turn, masks * base**2 (its row sums give the norms), the
    # normalized masked vectors and the weighted design, each contiguous
    # in the shape a separate array would have, so every product sees the
    # operands and layout that separate arrays give.
    width = n_features + 1
    first, second = (LimeBuffers() if buffers is None else buffers).take(num_samples * width)
    design = first.reshape(num_samples, width)
    design[:, 0] = 1.0
    masks = design[:, 1:]
    draw_masks(seed, masks)

    # Masks are 0 or 1, so masks * base**2 equals (masks * base)**2.
    squares = base ** 2
    work = second[:num_samples * n_features].reshape(num_samples, n_features)
    norms = np.sqrt(np.multiply(masks, squares, out=work).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    np.divide(np.multiply(masks, base, out=work), safe[:, None], out=work)
    # The (S, C) scores become probabilities in place; y stays a view of
    # one column.
    probs = work @ sub_weights.T
    probs += model.bias
    y = softmax(probs, out=probs)[:, class_index]
    # Masked vectors are sub-vectors of the original, so cosine
    # similarity reduces to norm(masked) / norm(original).
    original_norm = float(np.sqrt(squares.sum()))
    distances = 1.0 - norms / original_norm
    sample_weights = np.exp(-(distances ** 2) / (kernel_width ** 2))

    weighted = np.multiply(design, sample_weights[:, None],
                           out=second.reshape(num_samples, width))
    gram = weighted.T @ design
    gram.reshape(-1)[width + 1::width + 1] += ridge  # the intercept is not shrunk
    try:
        coef = np.linalg.solve(gram, weighted.T @ y)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"LIME surrogate of document {doc_id!r} is singular ({num_samples} "
                          f"samples, {n_features} features, ridge {ridge}): {exc}") from exc
    intercept = float(coef[0])
    token_weights = coef[1:]

    predicted = design @ coef
    residual = float((sample_weights * (y - predicted) ** 2).sum())
    mean_y = float((sample_weights * y).sum() / sample_weights.sum())
    total = float((sample_weights * (y - mean_y) ** 2).sum())
    fidelity = 1.0 if total == 0.0 else 1.0 - residual / total

    ranked = sorted(zip(features, token_weights), key=lambda kv: (-abs(kv[1]), kv[0]))
    if top_k is not None:
        ranked = ranked[:top_k]
    return Explanation(doc_id, target_class, tuple((t, float(w)) for t, w in ranked),
                       intercept, fidelity, num_samples, kernel_width, seed)


# ---------------------------------------------------------------------------
# Entity rankings


@dataclass(frozen=True, eq=False)
class TokenMagnitudes:
    """What an MDisc ranking reads of an explanation: how it was made, and
    its tokens and absolute weights in rank order (``magnitudes``, float64)."""

    target_class: str
    seed: int
    num_samples: int
    tokens: tuple[str, ...]
    magnitudes: np.ndarray

    @classmethod
    def of(cls, explanation: Explanation) -> TokenMagnitudes:
        return cls(explanation.target_class, explanation.seed, explanation.num_samples,
                   tuple(token for token, _ in explanation.features),
                   np.abs(np.array([weight for _, weight in explanation.features])))


@dataclass(frozen=True)
class EntityRanking:
    """Per-class ranked (entity, strength) lists."""

    mode: str
    kind: str
    per_class: dict[str, tuple[tuple[str, float], ...]]
    warnings: tuple[str, ...] = ()
    reused: int = 0  # MDisc explanations taken from ``explained``, not recomputed


def _entity_stream(doc: Document, kind: str,
                   math_streams: dict[str, list[str]] | None) -> list[str]:
    """A document's entities of one kind: its non-stopword text tokens or its math stream.

    The math stream is returned itself, not a copy; callers only read it.
    """
    if kind == TEXT_KIND:
        return [t for t in doc.text_tokens() if t not in STOPWORDS]
    if kind == MATH_KIND:
        if math_streams is None or doc.doc_id not in math_streams:
            raise ValidationError(f"no math token stream for document {doc.doc_id!r}")
        return math_streams[doc.doc_id]
    raise ValidationError(f"unknown feature kind {kind!r}")


def _documents_by_class(documents: list[Document],
                        class_axis: str) -> dict[str, list[Document]]:
    """Documents per primary label, labels and documents in id order."""
    by_class: dict[str, list[Document]] = {}
    for doc in documents:
        label = primary_label(doc, class_axis)
        if label is not None:
            by_class.setdefault(label, []).append(doc)
    if not by_class:
        raise ValidationError(f"no document carries a label on axis {class_axis!r}")
    return {label: sorted(by_class[label], key=lambda d: d.doc_id)
            for label in sorted(by_class)}


def _mdisc_sample(docs: list[Document], label: str, budget: int, seed: int) -> list[Document]:
    """Up to ``budget`` of a class's documents (seeded), in id order."""
    rng = random.Random(derive_seed(seed, "mdisc", label))
    chosen = docs if len(docs) <= budget else rng.sample(docs, budget)
    return sorted(chosen, key=lambda d: d.doc_id)


def mdisc_documents(documents: list[Document], budget: int = 5, seed: int = 0,
                    class_axis: str = "arxiv") -> set[str]:
    """Ids of the documents an MDisc ranking over ``documents`` may explain."""
    return {doc.doc_id for label, docs in _documents_by_class(documents, class_axis).items()
            for doc in _mdisc_sample(docs, label, budget, seed)}


def rank_entities(documents: list[Document], model: LogRegModel, encoder: TfIdfModel,
                  mode: str, kind: str, budget: int = 5, seed: int = 0,
                  math_streams: dict[str, list[str]] | None = None,
                  class_axis: str = "arxiv", lime: LimeSettings = LimeSettings(),
                  explained: Mapping[str, TokenMagnitudes] | None = None, *,
                  buffers: LimeBuffers | None = None) -> EntityRanking:
    """Rank entities per class by frequency (MFreq) or surrogate weight (MDisc).

    MFreq strength is the number of the class's documents containing
    the entity.  MDisc samples up to ``budget`` documents per class
    (seeded), explains each toward its class with ``lime`` and the seed
    ``derive_seed(seed, "lime", doc_id)``, and averages absolute token
    weights.  ``explained`` maps document ids to the ``TokenMagnitudes`` of
    such explanations (``top_k=None``, same stream and model) that a
    caller already has; they are used instead of explaining the document
    again.  Classes without usable documents are omitted and reported in
    the warnings.
    ``buffers`` is handed to every ``lime_explain`` call.
    """
    if mode not in (MFREQ, MDISC):
        raise ValidationError(f"unknown ranking mode {mode!r}")
    per_class = {}
    warnings = []
    reused = 0
    for label, docs in _documents_by_class(documents, class_axis).items():
        strengths: dict[str, float] = {}
        if mode == MFREQ:
            for doc in docs:
                for entity in set(_entity_stream(doc, kind, math_streams)):
                    strengths[entity] = strengths.get(entity, 0.0) + 1.0
        else:
            if label not in model.classes:
                warnings.append(f"class {label!r} unknown to the classifier; omitted")
                continue
            n_explained = 0
            sums: dict[str, float] = {}
            for doc in _mdisc_sample(docs, label, budget, seed):
                stream = _entity_stream(doc, kind, math_streams)
                if not any(t in encoder.vocabulary for t in stream):
                    warnings.append(f"document {doc.doc_id!r} has no in-vocabulary tokens; skipped")
                    continue
                doc_seed = derive_seed(seed, "lime", doc.doc_id)
                weights = explained.get(doc.doc_id) if explained else None
                if weights is None:
                    weights = TokenMagnitudes.of(lime_explain(
                        model, encoder, doc.doc_id, stream, label,
                        num_samples=lime.num_samples, kernel_width=lime.kernel_width,
                        ridge=lime.ridge, top_k=None, seed=doc_seed, buffers=buffers))
                elif ((weights.target_class, weights.seed, weights.num_samples)
                      != (label, doc_seed, lime.num_samples)):
                    raise ValidationError(f"explanation of document {doc.doc_id!r} was not "
                                          f"made toward {label!r} with these settings")
                else:
                    reused += 1
                n_explained += 1
                for token, magnitude in zip(weights.tokens, weights.magnitudes.tolist()):
                    sums[token] = sums.get(token, 0.0) + magnitude
            if n_explained == 0:
                warnings.append(f"class {label!r} has no explainable documents; omitted")
                continue
            strengths = {t: s / n_explained for t, s in sums.items()}
        if not strengths:
            warnings.append(f"class {label!r} has no entities; omitted")
            continue
        ordered = sorted(strengths.items(), key=lambda kv: (-kv[1], kv[0]))
        per_class[label] = tuple(ordered)
    return EntityRanking(mode, kind, per_class, tuple(warnings), reused)


def class_entity_entropy(ranking: EntityRanking, direction: str, top_m: int = 20) -> float:
    """Condense a ranking into one entropy, in bits.

    ClsEnt: mean over the global top-m entities (by total strength) of
    the entropy of their per-class strength distribution; an entity
    present in a single class contributes 0.  EntCls: mean over classes
    of the entropy of the class's top-m entity strengths.
    """
    if not ranking.per_class:
        raise DomainError("entropy undefined for an empty ranking")
    if direction == CLS_ENT:
        totals: dict[str, float] = {}
        for entities in ranking.per_class.values():
            for entity, strength in entities:
                if strength > 0:
                    totals[entity] = totals.get(entity, 0.0) + strength
        if not totals:
            raise DomainError("no entity has positive strength")
        top = sorted(totals, key=lambda e: (-totals[e], e))[:top_m]
        spread: dict[str, dict[str, float]] = {entity: {} for entity in top}
        for label, entities in ranking.per_class.items():
            for entity, strength in entities:
                if strength > 0 and entity in spread:
                    spread[entity][label] = strength
        values = [shannon_entropy(CountDistribution(spread[e])) for e in top]
        return sum(values) / len(values)
    if direction == ENT_CLS:
        values = []
        for label in sorted(ranking.per_class):
            top = [(e, s) for e, s in ranking.per_class[label][:top_m] if s > 0]
            if not top:
                continue
            values.append(shannon_entropy(CountDistribution(dict(top))))
        if not values:
            raise DomainError("no class has positive entity strengths")
        return sum(values) / len(values)
    raise ValidationError(f"direction must be '{CLS_ENT}' or '{ENT_CLS}', got {direction!r}")


REPORT_ROWS = (
    (MDISC, TEXT_KIND, CLS_ENT), (MDISC, TEXT_KIND, ENT_CLS),
    (MFREQ, TEXT_KIND, CLS_ENT), (MFREQ, TEXT_KIND, ENT_CLS),
    (MDISC, MATH_KIND, CLS_ENT), (MDISC, MATH_KIND, ENT_CLS),
    (MFREQ, MATH_KIND, CLS_ENT), (MFREQ, MATH_KIND, ENT_CLS),
)


@dataclass(frozen=True)
class EntropyReport:
    rows: tuple[tuple[str, float], ...]  # (row label, entropy)
    top_m: int
    reference: dict = field(default_factory=lambda: dict(FULL_SCALE_REFERENCE))

    def value(self, label: str) -> float:
        for row_label, value in self.rows:
            if row_label == label:
                return value
        raise KeyError(label)


def compute_rankings(documents: list[Document],
                     text_model: LogRegModel, text_encoder: TfIdfModel,
                     math_model: LogRegModel, math_encoder: TfIdfModel,
                     math_streams: dict[str, list[str]], budget: int = 5,
                     seed: int = 0, lime: LimeSettings = LimeSettings(),
                     class_axis: str = "arxiv",
                     text_explanations: Mapping[str, TokenMagnitudes] | None = None, *,
                     buffers: LimeBuffers | None = None,
                     ) -> dict[tuple[str, str], EntityRanking]:
    """All four rankings, keyed and ordered MDisc Text, MDisc Math, MFreq Text, MFreq Math.

    ``text_explanations`` (see ``rank_entities``' ``explained``) feed
    the MDisc Text ranking only.  ``buffers`` serves every LIME call and
    is released once the MDisc rankings, which make them all, are done.
    """
    rankings = {}
    for mode in (MDISC, MFREQ):
        if mode == MFREQ and buffers is not None:
            buffers.release()
        for kind in (TEXT_KIND, MATH_KIND):
            model = text_model if kind == TEXT_KIND else math_model
            encoder = text_encoder if kind == TEXT_KIND else math_encoder
            rankings[(mode, kind)] = rank_entities(
                documents, model, encoder, mode, kind, budget=budget, seed=seed,
                math_streams=math_streams, class_axis=class_axis, lime=lime,
                explained=text_explanations if kind == TEXT_KIND else None, buffers=buffers)
    return rankings


def build_entropy_report(rankings: dict[tuple[str, str], EntityRanking],
                         top_m: int = 20) -> EntropyReport:
    """The eight-row entropy table over MDisc/MFreq x Text/Math x direction."""
    rows = []
    for mode, kind, direction in REPORT_ROWS:
        value = class_entity_entropy(rankings[(mode, kind)], direction, top_m)
        rows.append((f"{mode}{kind}{direction}", value))
    return EntropyReport(tuple(rows), top_m)


@dataclass(frozen=True)
class ExplainReport:
    """The tables of ``run_explain``; ``lime`` counts documents and fidelities."""

    explanation_rows: list[tuple]  # (doc, class, fidelity, position, token, weight)
    ranking_rows: list[tuple]  # (mode, kind, class, position, entity, strength)
    entropy: EntropyReport
    warnings: dict[str, list[str]]  # "<mode>_<kind>" -> the ranking's warnings
    lime: dict


def run_explain(documents: list[Document], source: SymbolNameSource,
                concept_map: ConceptCategoryMap | None, seed: int = 0,
                class_axis: str = "arxiv", test_fraction: float = 0.2,
                lime: LimeSettings = LimeSettings(), top_k: int | None = 10,
                rank_samples: int = 1000, budget: int = 5, top_m: int = 20,
                source_top_k: int = 3, **train_kwargs) -> ExplainReport:
    """Fit a text and a math model on the ``classify`` split, explain and rank them.

    The text model sees the stopword-filtered tokens the ranker explains.
    Each document with an in-vocabulary token is explained once with
    ``lime`` (the table keeps ``top_k`` features).  With ``rank_samples``
    equal to ``lime``'s, MDisc Text reuses the explanations of its sample,
    of which the run keeps the ``TokenMagnitudes`` only.  Every LIME call of
    the run, table and rankings, shares one buffer pair, released before
    the MFreq rankings.
    """
    kept, labels, _ = labeled_documents(documents, class_axis)
    math_streams = build_math_streams(kept, source, source_top_k, concept_map)
    text_streams = [TokenStream.of(d.doc_id, _entity_stream(d, TEXT_KIND, None)) for d in kept]
    math_token_streams = [TokenStream.of(d.doc_id, _entity_stream(d, MATH_KIND, math_streams))
                          for d in kept]
    train_idx, _ = stratified_split(labels, test_fraction, derive_seed(seed, "classify"))
    text_encoder, _, text_model = fit_split_model(text_streams, labels, train_idx, seed,
                                                  **train_kwargs)
    math_encoder, _, math_model = fit_split_model(math_token_streams, labels, train_idx, seed,
                                                  **train_kwargs)

    rank_lime = replace(lime, num_samples=rank_samples)
    reusable = mdisc_documents(kept, budget, seed, class_axis) if rank_lime == lime else set()
    explanation_rows = []
    fidelities = []
    sample_weights: dict[str, TokenMagnitudes] = {}
    buffers = LimeBuffers()
    for doc, label, stream in zip(kept, labels, text_streams):
        if not any(t in text_encoder.vocabulary for t in stream.tokens):
            continue  # nothing in vocabulary, nothing to explain
        explanation = lime_explain(
            text_model, text_encoder, doc.doc_id, list(stream.tokens), label,
            num_samples=lime.num_samples, kernel_width=lime.kernel_width, ridge=lime.ridge,
            top_k=None if doc.doc_id in reusable else top_k,
            seed=derive_seed(seed, "lime", doc.doc_id), buffers=buffers)
        explanation_rows.extend(
            (doc.doc_id, label, explanation.fidelity, position, token, weight)
            for position, (token, weight) in enumerate(explanation.features[:top_k], start=1))
        fidelities.append(explanation.fidelity)
        if doc.doc_id in reusable:
            sample_weights[doc.doc_id] = TokenMagnitudes.of(explanation)

    rankings = compute_rankings(
        kept, text_model, text_encoder, math_model, math_encoder, math_streams,
        budget=budget, seed=seed, lime=rank_lime, class_axis=class_axis,
        text_explanations=sample_weights, buffers=buffers)
    ranking_rows = [(mode, kind, label, position, entity, strength)
                    for (mode, kind), ranking in rankings.items()
                    for label in sorted(ranking.per_class)
                    for position, (entity, strength)
                    in enumerate(ranking.per_class[label][:top_m], start=1)]
    return ExplainReport(
        explanation_rows, ranking_rows, build_entropy_report(rankings, top_m=top_m),
        {f"{mode}_{kind}": list(ranking.warnings) for (mode, kind), ranking in rankings.items()},
        {"documents_explained": len(fidelities),
         "documents_skipped": len(kept) - len(fidelities),
         "ranking_explanations_reused": rankings[(MDISC, TEXT_KIND)].reused,
         "fidelity_min": min(fidelities, default=None),
         "fidelity_mean": sum(fidelities) / len(fidelities) if fidelities else None})
