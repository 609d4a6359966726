"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on a different code path than the
library: mpmath arbitrary precision instead of numpy floats, plain dicts
instead of sparse vectors, math.log instead of vectorized idf.  Expected
values asserted elsewhere were frozen from these oracles, not from the
implementation under test.  The two linkers are the per-n-gram loops the
library used before both linkers shared one gazetteer matcher, over
``generate_ngrams``; ``load_gazetteer`` is the line-by-line loader the
library used before its entries became named tuples, and
``build_math_streams`` and ``concept_coverage_violations`` compare token
slices of every concept phrase at every position (``_phrase_in_tokens``)
where the library now uses a first-token phrase index.
``evaluate_linking`` is the scorer the library used before it indexed a
gold document's links once: it filters and regroups the links for every
(mode, variant) and scans every link of the mode for each relevance-1/2
tuple (``_half_covered``).
``tokenize`` is the Unicode-pattern tokenizer for all text,
``token_layout`` tokenizes a document's segments on every call,
``extract_identifiers`` walks the formula tree recursively and
``document_identifiers`` parses every formula again (the library parses
each formula once, when its segment is made, and keeps the layout per
document).  ``check_tokens`` checks a token stream token by token.
``gradient_descent`` is the fixed-step solver the library used before
L-BFGS, and ``expand_multilabel`` counts the (document, label) instances
of the multi-label category prediction.  ``category_prediction_streams``
and ``label_map_streams`` are the two loops that built the one-token label
streams of ``predict_categories`` and ``classifier_label_map`` before one
helper built both, and ``primary_labeled`` reads each document's first
label straight off its label lists.  ``encoded_streams`` is the
``classify`` stage's stopword and lemma loop and ``entity_stream`` the
rankings' per-document stopword filter, from before ``encode.text_streams``
held that rule for both.  ``lime_explain`` builds its
sample matrix by casting the mask draw and stacking an intercept column,
where the library draws the masks into one preallocated design matrix.
``explain_loops`` is ``run_explain`` as two loops, from before one plan
held every LIME call of a run: the table loop, which asked
``mdisc_documents`` which explanations to keep whole, and the MDisc
ranking (``rank_mdisc``), which reused those and explained the rest.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np

from stemexplain.augment import _name_tokens
from stemexplain.classify import (LogRegModel, derive_seed, fit_split_model, labeled_documents,
                                  loss_and_gradient, softmax, stratified_split, truncate_label)
from stemexplain.corpus import TEXT, IdentifierOccurrence, axis_labels, primary_label
from stemexplain.encode import STOPWORDS, TokenStream, lemmatize, text_streams
from stemexplain.errors import ParseError, ToolkitError, ValidationError
from stemexplain.explain import Explanation, LimeSettings
from stemexplain.formulas import _SCRIPT_TAGS, _classify, _local_tag, parse_formula
from stemexplain.linker import (DEFAULT_EVAL_MODES, LEMMATIZED, VARIANTS, EntityLink,
                                FormulaConceptLink, GazetteerEntry, LinkEvalReport, ModeCounts,
                                _field_value, _target_matches)

mpmath.mp.dps = 40


def entropy_bits(counts: dict[str, float]) -> float:
    """Shannon entropy in bits at 40 significant digits."""
    total = mpmath.mpf(0)
    for value in counts.values():
        total += mpmath.mpf(value)
    acc = mpmath.mpf(0)
    for value in counts.values():
        if value == 0:
            continue
        p = mpmath.mpf(value) / total
        acc -= p * mpmath.log(p, 2)
    return float(acc)


def margin(counts: dict[str, float]) -> float:
    """Difference between the two largest probabilities."""
    total = mpmath.mpf(0)
    for value in counts.values():
        total += mpmath.mpf(value)
    ordered = sorted((mpmath.mpf(v) for v in counts.values()), reverse=True)
    top = ordered[0]
    second = ordered[1] if len(ordered) > 1 else mpmath.mpf(0)
    return float((top - second) / total)


def tfidf_vectors(token_lists: list[list[str]]) -> tuple[list[str], list[dict[str, float]]]:
    """Brute-force tf-idf: counts, smoothed idf, L2 normalization.

    Vocabulary collects tokens in first-seen order across documents.
    Returns (vocabulary, one {token: weight} dict per document).
    """
    vocabulary: list[str] = []
    seen = set()
    for tokens in token_lists:
        for token in tokens:
            if token not in seen:
                seen.add(token)
                vocabulary.append(token)
    n = len(token_lists)
    df = {token: sum(1 for tokens in token_lists if token in tokens)
          for token in vocabulary}
    idf = {token: math.log((1 + n) / (1 + df[token])) + 1 for token in vocabulary}
    vectors = []
    for tokens in token_lists:
        weights: dict[str, float] = {}
        for token in tokens:
            if token in seen:
                weights[token] = weights.get(token, 0.0) + idf[token]
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            weights = {t: w / norm for t, w in weights.items()}
        vectors.append(weights)
    return vocabulary, vectors


def argmax_predictions(weights, bias, classes, vectors) -> list[str]:
    """Per-row linear scores in plain floats; ties go to the first class.

    ``vectors`` are (indices, values) pairs.  The reference for batch
    scoring: the class with the highest score has the highest softmax
    probability.
    """
    predictions = []
    for indices, values in vectors:
        best, best_score = 0, None
        for c in range(len(classes)):
            score = float(bias[c])
            for index, value in zip(indices, values):
                score += float(weights[c][index]) * value
            if best_score is None or score > best_score:
                best, best_score = c, score
        predictions.append(classes[best])
    return predictions


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SPACE_RE = re.compile(r"\s")


def tokenize(text):
    """Lowercase, then every run of Unicode letters and digits."""
    return _TOKEN_RE.findall(text.lower())


def check_tokens(doc_id, tokens):
    """Raise ValidationError at the first empty token or token with whitespace."""
    for tok in tokens:
        if not tok or _SPACE_RE.search(tok):
            raise ValidationError(f"bad token {tok!r} in stream for {doc_id!r}")


def token_layout(doc):
    """Text tokens and formula positions, tokenized afresh from the segments."""
    tokens = []
    positions = []
    for index, segment in enumerate(doc.segments):
        if segment.kind == TEXT:
            tokens.extend(tokenize(segment.content))
        else:
            positions.append((segment.fid or f"seg{index}", len(tokens)))
    return tokens, positions


def _walk(element, out):
    tag = _local_tag(element.tag)
    if tag in _SCRIPT_TAGS:
        children = list(element)
        if children:
            _walk(children[0], out)
        return
    if tag == "mi":
        symbol = _classify(element.text or "")
        if symbol is not None:
            out.append(symbol)
        return
    for child in element:
        _walk(child, out)


def extract_identifiers(markup):
    """Identifier symbols of the markup, by a recursive walk of its tree."""
    out = []
    for child in parse_formula(markup):
        _walk(child, out)
    return out


def document_identifiers(doc):
    """Identifier occurrences, parsing every formula of the document again."""
    names = doc.gold.identifier_names if doc.gold else {}
    out = []
    for fid, segment in doc.formula_segments():
        formula_names = names.get(fid, {})
        for symbol in extract_identifiers(segment.content):
            out.append(IdentifierOccurrence(doc.doc_id, fid, symbol, formula_names.get(symbol)))
    return out


def normalize_surface(surface):
    """Underscores to spaces, tokenized, space-joined."""
    return " ".join(tokenize(surface.replace("_", " ")))


@dataclass
class LoadedGazetteer:
    source: str
    entries: dict = field(default_factory=dict)
    duplicates_dropped: int = 0


_QID_RE = re.compile(r"^Q[0-9]+$")


def load_gazetteer(path, source):
    """A ``surface_form<TAB>target`` file read line by line; the first entry wins."""
    gazetteer = LoadedGazetteer(source)
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected 2 tab-separated fields, got {len(parts)}", line_no)
            surface, target = parts
            key = normalize_surface(surface)
            if not key:
                raise ParseError(f"surface form {surface!r} normalizes to nothing", line_no)
            if key in gazetteer.entries:
                gazetteer.duplicates_dropped += 1
            elif _QID_RE.match(target):
                gazetteer.entries[key] = GazetteerEntry(item_id=target)
            else:
                gazetteer.entries[key] = GazetteerEntry(title=target)
    return gazetteer


def generate_ngrams(tokens, max_n):
    """All (start, gram) pairs for n in 1..max_n, overlapping included."""
    if max_n < 1:
        raise ValidationError(f"max_n must be >= 1, got {max_n}")
    out = []
    for n in range(1, max_n + 1):
        for start in range(len(tokens) - n + 1):
            out.append((start, tuple(tokens[start:start + n])))
    return out


def link_text_entities(doc, gazetteer, max_n=3, lemmatized=False, stopwords=None):
    """Exact-match n-gram linking, lemmatizing every token of every n-gram."""
    words = STOPWORDS if stopwords is None else stopwords
    tokens = doc.text_tokens()
    links = []
    for start, gram in generate_ngrams(tokens, max_n):
        if all(t in words for t in gram):
            continue
        form_tokens = [lemmatize(t) for t in gram] if lemmatized else list(gram)
        form = " ".join(form_tokens)
        entry = gazetteer.entries.get(form)
        if entry is None:
            continue
        links.append(EntityLink(doc.doc_id, start, len(gram), " ".join(gram), form,
                                entry.title, entry.item_id, gazetteer.source, lemmatized))
    return links


def link_formula_concepts(doc, gazetteer, window=10, max_n=3, gold=None, stopwords=None):
    """Gazetteer phrases within +-window tokens of each formula, with signed ranks."""
    words = STOPWORDS if stopwords is None else stopwords
    tokens, positions = doc.token_layout()
    gold_scores = {}
    if gold:
        gold_scores = {fid: {normalize_surface(p): s for p, s in phrases.items()}
                       for fid, phrases in gold.concept_relevance.items()}
    links = []
    for fid, position in positions:
        before = tokens[max(0, position - window):position]
        after = tokens[position:position + window]
        sides = (
            (before, lambda start: len(before) - start),
            (after, lambda start: -(start + 1)),
        )
        for side_tokens, rank_of in sides:
            for start, gram in generate_ngrams(side_tokens, max_n):
                if all(t in words for t in gram):
                    continue
                form = " ".join(gram)
                entry = gazetteer.entries.get(form)
                if entry is None:
                    continue
                rank = rank_of(start)
                score = gold_scores.get(fid, {}).get(form) if gold else None
                if score == 0:
                    rank = None
                links.append(FormulaConceptLink(doc.doc_id, fid, form, len(gram), score=score,
                                                rank=rank, target_title=entry.title,
                                                target_item=entry.item_id,
                                                source=gazetteer.source))
    return links


def evaluate_linking(links, gold, modes=DEFAULT_EVAL_MODES):
    """One confusion table per (mode, variant), each from its own filtered links."""
    tuples = {normalize_surface(k): rel for k, rel in gold.entity_relevance.items()}
    targets = {normalize_surface(k): v for k, v in gold.entity_targets.items()}
    for link in links:
        if normalize_surface(link.surface) not in tuples:
            raise ValidationError(f"no gold relevance for linked n-gram {link.surface!r}")

    counts = {mode.name: {} for mode in modes}
    assignments = {mode.name: {v: {} for v in VARIANTS} for mode in modes}
    for mode in modes:
        for variant in VARIANTS:
            flag = variant == LEMMATIZED
            mode_links = [l for l in links if l.source == mode.source and l.lemmatized == flag]
            by_surface = {}
            for link in mode_links:
                by_surface.setdefault(normalize_surface(link.surface), []).append(link)
            marks = assignments[mode.name][variant]
            for ngram, relevance in tuples.items():
                linked = [l for l in by_surface.get(ngram, ())
                          if _field_value(l, mode.field) is not None]
                if relevance == 1.0:
                    gold_target = targets.get(ngram, {})
                    correct = any(_target_matches(_field_value(l, mode.field), mode.field,
                                                  gold_target) for l in linked)
                    mark = "TP" if correct else "FN"
                elif relevance == 0.0:
                    mark = "FP" if linked else "TN"
                else:
                    covered = _half_covered(ngram, mode_links, mode.field)
                    mark = "EXCL" if covered else "FN"
                marks[ngram] = mark
            counts[mode.name][variant] = ModeCounts.from_marks(marks.values())
    return LinkEvalReport(counts, assignments, len(tuples))


def _half_covered(ngram, mode_links, field_name):
    """True when some link of the mode covers a non-stopword token of the tuple."""
    tuple_tokens = {t for t in ngram.split(" ") if t not in STOPWORDS}
    for link in mode_links:
        if _field_value(link, field_name) is None:
            continue
        link_tokens = set(normalize_surface(link.surface).split(" "))
        if tuple_tokens & link_tokens:
            return True
    return False


def _phrase_in_tokens(phrase_tokens, tokens):
    n = len(phrase_tokens)
    if n == 0 or n > len(tokens):
        return False
    return any(tokens[i:i + n] == phrase_tokens for i in range(len(tokens) - n + 1))


def build_math_streams(docs, source, top_k, concept_map):
    """Symbol-name tokens plus the tokens of every concept phrase in the text."""
    streams = {}
    for doc in docs:
        tokens = _name_tokens(doc, source, top_k)
        if concept_map is not None:
            text = doc.text_tokens()
            for phrase in concept_map.phrases():
                parts = tokenize(phrase)
                if _phrase_in_tokens(parts, text):
                    tokens.extend(parts)
        streams[doc.doc_id] = tokens
    return streams


def concept_coverage_violations(documents, concept_map, class_axis="arxiv"):
    """(phrase, class) pairs whose phrase no document of its class contains."""
    docs, labels, _ = labeled_documents(documents, class_axis)
    tokens_by_class = {}
    for doc, label in zip(docs, labels):
        tokens_by_class.setdefault(label, []).append(doc.text_tokens())
    violations = []
    for phrase in concept_map.phrases():
        label = concept_map.phrase_to_class[phrase]
        if not any(_phrase_in_tokens(tokenize(phrase), tokens)
                   for tokens in tokens_by_class.get(label, [])):
            violations.append((phrase, label))
    return violations


class TrainingError(ToolkitError):
    """The loss of ``gradient_descent`` stopped being finite."""


def gradient_descent(data, step=0.5, max_iterations=500, tolerance=1e-6, l2=1e-4):
    """Fixed-step full-batch gradient descent from zero weights.

    Minimizes the same objective as ``classify.train_logreg`` and stops
    on the same rule: the loss changes by less than ``tolerance``, or
    ``max_iterations`` evaluations.  Raises TrainingError when the loss
    stops being finite.  The metadata's loss and gradient norm are those
    of the last evaluation, which precedes the last step when the
    iteration cap is hit.
    """
    classes = data.classes()
    index_of = {label: i for i, label in enumerate(classes)}
    x = np.zeros((len(data.vectors), data.dim), dtype=float)
    for row, vector in enumerate(data.vectors):
        x[row, list(vector.indices)] = vector.values
    y = np.array([index_of[label] for label in data.labels], dtype=int)
    weights = np.zeros((len(classes), data.dim), dtype=float)
    bias = np.zeros(len(classes), dtype=float)
    previous = math.inf
    loss = previous
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        loss, grad_w, grad_b = loss_and_gradient(weights, bias, x, y, l2)
        if not math.isfinite(loss):
            raise TrainingError(f"loss diverged at iteration {iterations}")
        if abs(previous - loss) < tolerance:
            converged = True
            break
        weights -= step * grad_w
        bias -= step * grad_b
        previous = loss
    grad_norm = math.sqrt(float((grad_w ** 2).sum() + (grad_b ** 2).sum()))
    return LogRegModel(classes, weights, bias,
                       {"solver": "gd", "iterations": iterations, "final_loss": loss,
                        "grad_norm": grad_norm, "converged": converged})


def expand_multilabel(documents, axis):
    """(doc_id, label) pairs, one per label on the axis, and the number of
    documents without a label on it."""
    pairs = []
    skipped = 0
    for doc in documents:
        labels = axis_labels(doc, axis)
        if not labels:
            skipped += 1
            continue
        pairs.extend((doc.doc_id, label) for label in labels)
    return pairs, skipped


def category_prediction_streams(documents, source_axis, target_axis, label_mode="single",
                                granularity="fine"):
    """The documents ``predict_categories`` classifies, as it walked them
    before one helper built the streams of both category experiments:
    their truncated source labels as streams, their target labels (only the
    first for ``label_mode`` "single") and the number skipped."""
    doc_streams = []
    doc_targets = []
    skipped = 0
    for doc in documents:
        source = [truncate_label(c, source_axis, granularity) for c in axis_labels(doc, source_axis)]
        target = [truncate_label(c, target_axis, granularity) for c in axis_labels(doc, target_axis)]
        if not source or not target:
            skipped += 1
            continue
        doc_streams.append(TokenStream.of(doc.doc_id, source))
        doc_targets.append(target[:1] if label_mode == "single" else target)
    if not doc_streams:
        raise ValidationError("no document carries labels on both axes")
    return doc_streams, doc_targets, skipped


def label_map_streams(documents, source_axis, target_axis):
    """The training streams, primary target labels and probe labels of
    ``classifier_label_map``, as its own loop built them."""
    streams = []
    labels = []
    source_labels = set()
    for doc in documents:
        source = axis_labels(doc, source_axis)
        target = primary_label(doc, target_axis)
        if not source or target is None:
            continue
        source_labels.update(source)
        streams.append(TokenStream.of(doc.doc_id, source))
        labels.append(target)
    if not streams:
        raise ValidationError("no document carries labels on both axes")
    return streams, labels, source_labels


def primary_labeled(documents, axis):
    """(document, first label) of every document labeled on the axis, read
    off the document's label lists, and the number of the others."""
    labels_of = {"arxiv": lambda d: d.arxiv_categories, "msc": lambda d: d.msc_codes}[axis]
    kept = [(doc, labels_of(doc)[0]) for doc in documents if labels_of(doc)]
    if not kept:
        raise ValidationError(f"no document carries a label on axis {axis!r}")
    return kept, len(documents) - len(kept)


def encoded_streams(docs, remove_stopwords=True, lemmatized=False):
    """The ``classify`` stage's text streams as it built them before one
    helper held the rule: a stream of all text tokens, then a new stream
    without stopwords, then a new stream of lemmas."""
    streams = [TokenStream.of(doc.doc_id, doc.text_tokens()) for doc in docs]
    if remove_stopwords:
        streams = [TokenStream(s.doc_id, tuple(t for t in s.tokens if t not in STOPWORDS))
                   for s in streams]
    if lemmatized:
        streams = [TokenStream(s.doc_id, tuple(lemmatize(t) for t in s.tokens))
                   for s in streams]
    return streams


def entity_stream(doc, kind, math_streams):
    """A document's entities of one kind as the rankings read them before
    they took one stream map per kind: its non-stopword text tokens, filtered
    again on every call, or its math stream."""
    if kind == "Text":
        return [t for t in doc.text_tokens() if t not in STOPWORDS]
    if kind == "Math":
        if math_streams is None or doc.doc_id not in math_streams:
            raise ValidationError(f"no math token stream for document {doc.doc_id!r}")
        return math_streams[doc.doc_id]
    raise ValidationError(f"unknown feature kind {kind!r}")


def lime_explain(model, encoder, doc_id, tokens, target_class, num_samples=1000,
                 kernel_width=None, ridge=1.0, top_k=10, seed=0):
    """The LIME explanation as the library computed it before its masks were
    drawn straight into the design matrix: a float copy of the int64 draw,
    then an intercept column stacked in front of it."""
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

    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(num_samples, n_features)).astype(float)

    masked = masks * base  # unnormalized masked vectors, (S, F)
    norms = np.sqrt((masked ** 2).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    scores = (masked / safe[:, None]) @ sub_weights.T + model.bias
    probs = softmax(scores)
    y = probs[:, class_index]
    original_norm = float(np.sqrt((base ** 2).sum()))
    distances = 1.0 - norms / original_norm
    sample_weights = np.exp(-(distances ** 2) / (kernel_width ** 2))

    design = np.hstack([np.ones((num_samples, 1)), masks])
    penalty = ridge * np.eye(n_features + 1)
    penalty[0, 0] = 0.0  # intercept is not shrunk
    weighted = design * sample_weights[:, None]
    coef = np.linalg.solve(weighted.T @ design + penalty, weighted.T @ y)
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


def mdisc_documents(documents, budget, seed, class_axis="arxiv"):
    """Ids of the documents an MDisc ranking over ``documents`` may explain:
    up to ``budget`` per primary label (seeded), as the table loop asked."""
    by_class = {}
    for doc, label in zip(*labeled_documents(documents, class_axis)[:2]):
        by_class.setdefault(label, []).append(doc)
    chosen = set()
    for label in sorted(by_class):
        docs = sorted(by_class[label], key=lambda d: d.doc_id)
        rng = random.Random(derive_seed(seed, "mdisc", label))
        chosen.update(d.doc_id for d in (docs if len(docs) <= budget
                                          else rng.sample(docs, budget)))
    return chosen


def rank_mdisc(documents, model, encoder, streams, budget, seed, class_axis, lime, explained,
               calls):
    """An MDisc ranking's per-class strengths, warnings and reuse count, as
    ``rank_entities`` made them before one plan held every LIME call: it
    takes the ``explained`` explanations (by document id) that match its
    class and settings and explains the other sampled documents itself.
    ``calls`` gets every explanation it makes."""
    by_class = {}
    for doc, label in zip(*labeled_documents(documents, class_axis)[:2]):
        by_class.setdefault(label, []).append(doc)
    per_class, warnings, reused = {}, [], 0
    for label in sorted(by_class):
        if label not in model.classes:
            warnings.append(f"class {label!r} unknown to the classifier; omitted")
            continue
        docs = sorted(by_class[label], key=lambda d: d.doc_id)
        rng = random.Random(derive_seed(seed, "mdisc", label))
        sample = sorted(docs if len(docs) <= budget else rng.sample(docs, budget),
                        key=lambda d: d.doc_id)
        sums, n_explained = {}, 0
        for doc in sample:
            stream = streams[doc.doc_id]
            if not any(t in encoder.vocabulary for t in stream):
                warnings.append(f"document {doc.doc_id!r} has no in-vocabulary tokens; skipped")
                continue
            doc_seed = derive_seed(seed, "lime", doc.doc_id)
            explanation = explained.get(doc.doc_id)
            if explanation is None:
                explanation = lime_explain(model, encoder, doc.doc_id, list(stream), label,
                                           lime.num_samples, lime.kernel_width, lime.ridge,
                                           top_k=None, seed=doc_seed)
                calls.append(explanation)
            elif ((explanation.target_class, explanation.seed, explanation.num_samples)
                  != (label, doc_seed, lime.num_samples)):
                raise ValidationError(f"explanation of document {doc.doc_id!r} was not "
                                      f"made toward {label!r} with these settings")
            else:
                reused += 1
            n_explained += 1
            for token, weight in explanation.features:
                sums[token] = sums.get(token, 0.0) + abs(weight)
        if n_explained == 0:
            warnings.append(f"class {label!r} has no explainable documents; omitted")
            continue
        per_class[label] = tuple(sorted(((t, s / n_explained) for t, s in sums.items()),
                                        key=lambda kv: (-kv[1], kv[0])))
    return per_class, warnings, reused


def explain_loops(documents, source, concept_map, seed=0, class_axis="arxiv",
                  test_fraction=0.2, lime=None, top_k=10, rank_samples=1000, budget=5,
                  top_m=20, source_top_k=3):
    """``run_explain``'s rows, rankings, warnings and ``lime`` block from the
    two loops it ran before one plan held every LIME call, and its LIME
    calls.  The table loop explains each explainable document, the MDisc
    Text sample (``mdisc_documents``) with every feature when the ranking's
    settings equal the table's; ``rank_mdisc`` reuses those and explains
    the rest, then the MDisc Math sample."""
    lime = lime or LimeSettings()
    kept, labels, _ = labeled_documents(documents, class_axis)
    math_streams = build_math_streams(kept, source, source_top_k, concept_map)
    texts = text_streams(kept)
    train_idx, _ = stratified_split(labels, test_fraction, derive_seed(seed, "classify"))
    text_encoder, _, text_model = fit_split_model(texts, labels, train_idx)
    math_encoder, _, math_model = fit_split_model(
        [TokenStream.of(d.doc_id, math_streams[d.doc_id]) for d in kept], labels, train_idx)
    rank_lime = LimeSettings(rank_samples, lime.kernel_width, lime.ridge)
    reusable = mdisc_documents(kept, budget, seed, class_axis) if rank_lime == lime else set()
    rows, fidelities, explained, calls = [], [], {}, []
    for doc, label, stream in zip(kept, labels, texts):
        if not any(t in text_encoder.vocabulary for t in stream.tokens):
            continue
        explanation = lime_explain(text_model, text_encoder, doc.doc_id, list(stream.tokens),
                                   label, lime.num_samples, lime.kernel_width, lime.ridge,
                                   top_k=None if doc.doc_id in reusable else top_k,
                                   seed=derive_seed(seed, "lime", doc.doc_id))
        calls.append(explanation)
        rows.extend((doc.doc_id, label, explanation.fidelity, position, token, weight)
                    for position, (token, weight)
                    in enumerate(explanation.features[:top_k], start=1))
        fidelities.append(explanation.fidelity)
        if doc.doc_id in reusable:
            explained[doc.doc_id] = explanation
    text = {stream.doc_id: stream.tokens for stream in text_streams(kept)}
    rankings, warnings, reused = {}, {}, 0
    for kind, model, encoder, streams, given in (
            ("Text", text_model, text_encoder, text, explained),
            ("Math", math_model, math_encoder, math_streams, {})):
        per_class, warned, count = rank_mdisc(kept, model, encoder, streams, budget, seed,
                                              class_axis, rank_lime, given, calls)
        rankings["MDisc", kind], warnings[f"MDisc_{kind}"] = per_class, warned
        reused += count if kind == "Text" else 0
    for kind, streams in (("Text", text), ("Math", math_streams)):
        per_class, warned = {}, []
        for label in sorted(set(labels)):
            counts = {}
            for doc, doc_label in zip(kept, labels):
                if doc_label == label:
                    for entity in set(streams[doc.doc_id]):
                        counts[entity] = counts.get(entity, 0.0) + 1.0
            if not counts:
                warned.append(f"class {label!r} has no entities; omitted")
                continue
            per_class[label] = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
        rankings["MFreq", kind], warnings[f"MFreq_{kind}"] = per_class, warned
    ranking_rows = [(mode, kind, label, position, entity, strength)
                    for (mode, kind), per_class in rankings.items()
                    for label in sorted(per_class)
                    for position, (entity, strength)
                    in enumerate(per_class[label][:top_m], start=1)]
    block = {"documents_explained": len(fidelities),
             "documents_skipped": len(kept) - len(fidelities),
             "ranking_explanations_reused": reused,
             "fidelity_min": min(fidelities, default=None),
             "fidelity_mean": sum(fidelities) / len(fidelities) if fidelities else None}
    return rows, ranking_rows, warnings, block, len(calls)
