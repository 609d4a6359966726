"""Local surrogate explanations and entity-level explanation rankings.

``lime_explain`` perturbs a document by dropping random subsets of its
distinct in-vocabulary tokens, queries the classifier on each masked
variant, and fits a weighted ridge surrogate whose sample weights decay
with cosine distance from the original vector through the kernel
exp(-d^2 / width^2).  The surrogate coefficients are the token
weights of the explanation.  ``LimeSettings`` holds the sample count,
kernel width and ridge, and ``LimeBuffers`` the two work arrays that
successive calls reuse.

``explain_inputs`` turns the labeled documents into what the rest reads:
their ids and primary labels, and the kinds table ``streams``, each kind's
entities by document id; every kind in it is fitted, ranked and reported,
in table order.  ``plan_lime`` lists the LIME calls of a run, those of
the explanations table and of the MDisc rankings, and ``run_plan`` makes
them.  ``rank_entities`` aggregates document frequencies (MFreq) or mean
absolute surrogate weights (MDisc) into per-class entity rankings, and
``class_entity_entropy`` condenses a ranking into one entropy: ClsEnt
averages the class-distribution entropy of the top entities, EntCls the
entropy of each class's top entity strengths; ``reduce_ranking`` keeps
the part of a ranking that its rows and both entropies read.
``run_explain`` is the explain stage's computation on those inputs.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .classify import LogRegModel, derive_seed, fit_split_model, softmax, stratified_split
from .corpus import Document, labeled_documents
from .encode import TfIdfModel, TokenStream, text_streams
from .entropy import CountDistribution, shannon_entropy
from .errors import DomainError, ValidationError
from .sources import ConceptCategoryMap, SymbolNameSource, build_math_streams

MFREQ = "MFreq"
MDISC = "MDisc"
TEXT_KIND = "Text"
MATH_KIND = "Math"
CLS_ENT = "ClsEnt"
ENT_CLS = "EntCls"

# Full-scale reference entropies of the Text and Math rows; stage metadata only.
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
    try:  # a power, not width * width: the two round apart for some widths
        squared_width = float(kernel_width ** 2)
    except OverflowError:  # no double holds the square: every weight is exp(-0) = 1
        squared_width = math.inf
    with np.errstate(all="ignore"):  # a tiny width underflows every weight to 0
        sample_weights = np.exp(-(distances ** 2) / squared_width)
    if not sample_weights.sum() > 0:
        raise DomainError(f"every LIME sample weight of document {doc_id!r} is 0: "
                          f"lime.kernel_width {kernel_width} is too small")

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
# Entity rankings and the plan of their LIME calls


class TokenMagnitudes(NamedTuple):
    """What an MDisc ranking reads of an explanation: its tokens and their
    absolute weights in rank order (``magnitudes``, float64)."""

    tokens: tuple[str, ...]
    magnitudes: np.ndarray


@dataclass(frozen=True)
class EntityRanking:
    """Per-class ranked (entity, strength) lists."""

    mode: str
    kind: str
    per_class: dict[str, tuple[tuple[str, float], ...]]
    warnings: tuple[str, ...] = ()


@dataclass(slots=True)
class LimeRequest:
    """One ``lime_explain`` call, of ``tokens`` toward ``target`` with ``lime``
    and the seed ``derive_seed(seed, "lime", doc_id)``, and what its consumers
    keep: the table's rows, the ``TokenMagnitudes`` MDisc sums, or both."""

    kind: str
    doc_id: str
    tokens: Sequence[str]
    target: str
    lime: LimeSettings
    table: bool = False
    magnitudes: bool = False


class LimePlan(NamedTuple):
    """Every LIME call of a run, in call order, and per kind the MDisc
    sample (explained document ids per class) and its warnings."""

    requests: tuple[LimeRequest, ...]
    samples: dict[str, tuple[dict[str, list[str]], tuple[str, ...]]]


class ExplainInputs(NamedTuple):
    """What ``run_explain`` reads of the labeled documents: their ids and
    primary labels in corpus order, and the table of kinds (``streams``):
    per kind each document's entities by id.  Its key order is the order of
    the fits, rankings and entropy rows."""

    doc_ids: list[str]
    labels: list[str]
    streams: dict[str, Mapping[str, Sequence[str]]]


def _labeled_inputs(kept: list[Document], labels: list[str],
                    math_streams: Mapping[str, Sequence[str]]) -> ExplainInputs:
    """The one builder of the kinds table: Text, each document's
    ``text_streams`` with their defaults, then Math."""
    return ExplainInputs([doc.doc_id for doc in kept], labels, {
        TEXT_KIND: {stream.doc_id: stream.tokens for stream in text_streams(kept)},
        MATH_KIND: math_streams})


def explain_inputs(documents: list[Document], source: SymbolNameSource,
                   concept_map: ConceptCategoryMap | None, class_axis: str = "arxiv",
                   source_top_k: int = 3) -> ExplainInputs:
    """The documents labeled on ``class_axis`` as ``run_explain`` reads them;
    the Math entities are their ``build_math_streams``.  Nothing returned
    refers to a ``Document``."""
    kept, labels, _ = labeled_documents(documents, class_axis)
    return _labeled_inputs(kept, labels, build_math_streams(kept, source, source_top_k,
                                                            concept_map))


def _ids_by_class(doc_ids: Sequence[str], labels: Sequence[str]) -> dict[str, list[str]]:
    """Document ids per label, labels and ids sorted."""
    by_class: dict[str, list[str]] = {}
    for doc_id, label in zip(doc_ids, labels):
        by_class.setdefault(label, []).append(doc_id)
    return {label: sorted(by_class[label]) for label in sorted(by_class)}


def _entities(streams: Mapping[str, Sequence[str]] | None, kind: str,
              doc_id: str) -> Sequence[str]:
    if streams is None or doc_id not in streams:
        raise ValidationError(f"no {kind.lower()} token stream for document {doc_id!r}")
    return streams[doc_id]


def plan_lime(doc_ids: Sequence[str], labels: Sequence[str],
              fitted: Mapping[str, tuple[LogRegModel, TfIdfModel]],
              streams: Mapping[str, Mapping[str, Sequence[str]]], budget: int = 5,
              seed: int = 0, lime: LimeSettings = LimeSettings(),
              table: LimeSettings | None = None) -> LimePlan:
    """The LIME calls of the table (with ``table`` settings), then of each
    kind's MDisc ranking, which samples up to ``budget`` documents per class
    (seeded).  ``doc_ids`` and ``labels`` are the documents and their
    primary labels, in the table's order.  ``fitted`` and ``streams`` map a
    kind to its (model, encoder) and to each document's entities by id;
    documents without an in-vocabulary one are skipped.  Requests of equal
    (kind, document, class, settings) merge."""
    requests: dict[tuple, LimeRequest] = {}

    def ask(kind: str, doc_id: str, label: str, settings: LimeSettings) -> LimeRequest | None:
        tokens = _entities(streams[kind], kind, doc_id)
        if not any(t in fitted[kind][1].vocabulary for t in tokens):
            return None
        return requests.setdefault((kind, doc_id, label, settings),
                                   LimeRequest(kind, doc_id, tokens, label, settings))

    for doc_id, label in zip(doc_ids, labels) if table else ():
        if request := ask(TEXT_KIND, doc_id, label, table):
            request.table = True
    sampled = {label: ids if len(ids) <= budget
               else random.Random(derive_seed(seed, "mdisc", label)).sample(ids, budget)
               for label, ids in _ids_by_class(doc_ids, labels).items()}
    samples = {}
    for kind, (model, _) in fitted.items():
        chosen, warnings = {}, []
        for label, ids in sampled.items():
            if label not in model.classes:
                warnings.append(f"class {label!r} unknown to the classifier; omitted")
                continue
            for doc_id in sorted(ids):
                if (request := ask(kind, doc_id, label, lime)) is None:
                    warnings.append(f"document {doc_id!r} has no in-vocabulary tokens; skipped")
                    continue
                request.magnitudes = True
                chosen.setdefault(label, []).append(doc_id)
            if label not in chosen:
                warnings.append(f"class {label!r} has no explainable documents; omitted")
        samples[kind] = (chosen, tuple(warnings))
    return LimePlan(tuple(requests.values()), samples)


def run_plan(plan: LimePlan, fitted: Mapping[str, tuple[LogRegModel, TfIdfModel]],
             seed: int = 0, top_k: int | None = 10,
             ) -> tuple[list[tuple], list[float], dict[tuple[str, str], TokenMagnitudes]]:
    """Make the plan's calls in order through one ``LimeBuffers``, dropped
    after the last.  Returns the table's rows (doc, class, fidelity, position,
    token, weight), made as each call returns, its fidelities, and the MDisc
    ``TokenMagnitudes`` by (kind, document id)."""
    rows, fidelities, magnitudes = [], [], {}
    buffers = LimeBuffers()
    for request in plan.requests:
        model, encoder = fitted[request.kind]
        explanation = lime_explain(
            model, encoder, request.doc_id, request.tokens, request.target,
            **asdict(request.lime), top_k=None if request.magnitudes else top_k,
            seed=derive_seed(seed, "lime", request.doc_id), buffers=buffers)
        if request.table:
            rows.extend((request.doc_id, request.target, explanation.fidelity, position, token,
                         weight) for position, (token, weight)
                        in enumerate(explanation.features[:top_k], start=1))
            fidelities.append(explanation.fidelity)
        if request.magnitudes:
            features = explanation.features
            magnitudes[request.kind, request.doc_id] = TokenMagnitudes(
                tuple(t for t, _ in features), np.abs(np.array([w for _, w in features])))
    return rows, fidelities, magnitudes


def rank_entities(doc_ids: Sequence[str], labels: Sequence[str], mode: str, kind: str,
                  streams: Mapping[str, Sequence[str]] | None = None,
                  plan: LimePlan | None = None,
                  magnitudes: Mapping[tuple[str, str], TokenMagnitudes] | None = None,
                  ) -> EntityRanking:
    """Rank entities per class by frequency (MFreq) or surrogate weight (MDisc):
    the number of the class's documents (``doc_ids`` with their primary
    ``labels``) whose ``streams`` entry (by id) holds the entity, or its
    mean ``magnitudes`` over the ``plan``'s sample of the class.  Any kind
    that the plan (MDisc) or ``streams`` (MFreq) holds is ranked.  Classes
    without entities are omitted and warned about."""
    if mode not in (MFREQ, MDISC):
        raise ValidationError(f"unknown ranking mode {mode!r}")
    found: dict[str, dict[str, float]] = {}
    if mode == MDISC:
        if plan is None or kind not in plan.samples:
            raise ValidationError(f"no LIME plan holds an MDisc sample of kind {kind!r}")
        sample, warnings = plan.samples[kind]
        for label, ids in sample.items():
            sums: dict[str, float] = {}
            for tokens, weights in (magnitudes[kind, doc_id] for doc_id in ids):
                for token, magnitude in zip(tokens, weights.tolist()):
                    sums[token] = sums.get(token, 0.0) + magnitude
            found[label] = {t: s / len(ids) for t, s in sums.items()}
    else:
        warnings = ()
        for label, ids in _ids_by_class(doc_ids, labels).items():
            counts = found[label] = {}
            for doc_id in ids:
                for entity in set(_entities(streams, kind, doc_id)):
                    counts[entity] = counts.get(entity, 0.0) + 1.0
    per_class, warnings = {}, list(warnings)
    for label, strengths in found.items():
        if not strengths:
            warnings.append(f"class {label!r} has no entities; omitted")
            continue
        per_class[label] = tuple(sorted(strengths.items(), key=lambda kv: (-kv[1], kv[0])))
    return EntityRanking(mode, kind, per_class, tuple(warnings))


def _ranked_entities(per_class: Mapping[str, Sequence[tuple[str, float]]]) -> list[str]:
    """The entities with positive strength, by total positive strength over
    the classes (descending), ties by name: ClsEnt reads the first top-m."""
    totals: dict[str, float] = {}
    for entities in per_class.values():
        for entity, strength in entities:
            if strength > 0:
                totals[entity] = totals.get(entity, 0.0) + strength
    return sorted(totals, key=lambda e: (-totals[e], e))


def reduce_ranking(ranking: EntityRanking, top_m: int) -> EntityRanking:
    """The part of ``ranking`` that its ``top_m`` rows and both entropies read:
    each class's first ``top_m`` entries and every entry of the global top
    ``top_m`` entities, in ranking order.  Every class stays, so rows,
    entropies and their errors equal the full ranking's."""
    if top_m < 1:  # a slice to a non-positive bound is no prefix
        return ranking
    top = set(_ranked_entities(ranking.per_class)[:top_m])
    return replace(ranking, per_class={
        label: entities[:top_m] + tuple(entry for entry in entities[top_m:] if entry[0] in top)
        for label, entities in ranking.per_class.items()})


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
        ranked = _ranked_entities(ranking.per_class)
        if not ranked:
            raise DomainError("no entity has positive strength")
        top = ranked[:top_m]
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


@dataclass(frozen=True)
class EntropyReport:
    rows: tuple[tuple[str, float], ...]  # (row label, entropy)
    top_m: int

    def value(self, label: str) -> float:
        return dict(self.rows)[label]


def compute_rankings(documents: list[Document],
                     text_model: LogRegModel, text_encoder: TfIdfModel,
                     math_model: LogRegModel, math_encoder: TfIdfModel,
                     math_streams: dict[str, list[str]], budget: int = 5,
                     seed: int = 0, lime: LimeSettings = LimeSettings(),
                     class_axis: str = "arxiv") -> dict[tuple[str, str], EntityRanking]:
    """All four rankings of the documents labeled on ``class_axis``, keyed
    and ordered MDisc Text, MDisc Math, MFreq Text, MFreq Math: the two
    (model, encoder) pairs go to the kinds table's two kinds in order."""
    doc_ids, labels, streams = _labeled_inputs(*labeled_documents(documents, class_axis)[:2],
                                               math_streams)
    fitted = dict(zip(streams, ((text_model, text_encoder), (math_model, math_encoder))))
    plan = plan_lime(doc_ids, labels, fitted, streams, budget, seed, lime)
    magnitudes = run_plan(plan, fitted, seed)[2]
    return {(mode, kind): rank_entities(doc_ids, labels, mode, kind, streams[kind], plan,
                                        magnitudes)
            for mode in (MDISC, MFREQ) for kind in streams}


def build_entropy_report(rankings: dict[tuple[str, str], EntityRanking],
                         top_m: int = 20) -> EntropyReport:
    """Four rows per kind of ``rankings``, kinds in first-seen order: MDisc
    then MFreq, each ClsEnt then EntCls.  Text and Math give eight rows."""
    kinds = dict.fromkeys(kind for _, kind in rankings)
    return EntropyReport(tuple(
        (f"{mode}{kind}{direction}", class_entity_entropy(rankings[mode, kind], direction, top_m))
        for kind in kinds for mode in (MDISC, MFREQ) for direction in (CLS_ENT, ENT_CLS)), top_m)


@dataclass(frozen=True)
class ExplainReport:
    """The tables of ``run_explain``; ``lime`` counts documents and fidelities."""

    explanation_rows: list[tuple]  # (doc, class, fidelity, position, token, weight)
    ranking_rows: list[tuple]  # (mode, kind, class, position, entity, strength)
    entropy: EntropyReport
    warnings: dict[str, list[str]]  # "<mode>_<kind>" -> the ranking's warnings
    lime: dict


def run_explain(inputs: ExplainInputs, seed: int = 0, test_fraction: float = 0.2,
                lime: LimeSettings = LimeSettings(), top_k: int | None = 10,
                rank_samples: int = 1000, budget: int = 5, top_m: int = 20,
                **train_kwargs) -> ExplainReport:
    """Fit a model per kind of ``inputs.streams`` on the ``classify`` split,
    explain and rank them.

    ``inputs`` (``explain_inputs``) is all that is read of the corpus.
    Each model is fitted on its kind's entities.  One plan holds every
    LIME call: the table's, with ``lime`` (it keeps ``top_k`` rows), and
    the MDisc rankings', with ``rank_samples`` samples; with ``lime``'s
    count the two share calls.
    """
    doc_ids, labels, streams = inputs
    train_idx, _ = stratified_split(labels, test_fraction, derive_seed(seed, "classify"))

    def fit(kind: str) -> tuple[LogRegModel, TfIdfModel]:
        encoder, _, model = fit_split_model(
            [TokenStream.of(doc_id, streams[kind][doc_id]) for doc_id in doc_ids], labels,
            train_idx, **train_kwargs)
        return model, encoder  # the encoded streams are not kept

    fitted = {kind: fit(kind) for kind in streams}

    def ranked(mode: str, kind: str, **read) -> EntityRanking:
        """Cut to what its rows and entropies read as soon as it is made."""
        return reduce_ranking(rank_entities(doc_ids, labels, mode, kind, **read), top_m)

    # The MFreq rankings come before the LIME calls, so that no full ranking
    # is held beside the LIME work or after it.
    mfreq = {(MFREQ, kind): ranked(MFREQ, kind, streams=streams[kind]) for kind in streams}
    plan = plan_lime(doc_ids, labels, fitted, streams, budget, seed,
                     replace(lime, num_samples=rank_samples), table=lime)
    explanation_rows, fidelities, magnitudes = run_plan(plan, fitted, seed, top_k)
    reused = sum(r.table and r.magnitudes for r in plan.requests)
    rankings = {**{(MDISC, kind): ranked(MDISC, kind, plan=plan, magnitudes=magnitudes)
                   for kind in streams}, **mfreq}
    ranking_rows = [(mode, kind, label, position, entity, strength)
                    for (mode, kind), ranking in rankings.items()
                    for label in sorted(ranking.per_class)
                    for position, (entity, strength)
                    in enumerate(ranking.per_class[label][:top_m], start=1)]
    return ExplainReport(
        explanation_rows, ranking_rows, build_entropy_report(rankings, top_m=top_m),
        {f"{mode}_{kind}": list(ranking.warnings) for (mode, kind), ranking in rankings.items()},
        {"documents_explained": len(fidelities),
         "documents_skipped": len(doc_ids) - len(fidelities),
         "ranking_explanations_reused": reused,
         "fidelity_min": min(fidelities, default=None),
         "fidelity_mean": sum(fidelities) / len(fidelities) if fidelities else None})
