"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on a different code path than the
library: mpmath arbitrary precision instead of numpy floats, plain dicts
instead of sparse vectors, math.log instead of vectorized idf.  Expected
values asserted elsewhere were frozen from these oracles, not from the
implementation under test.  The two linkers are the per-n-gram loops the
library used before both linkers shared one gazetteer matcher.
"""

from __future__ import annotations

import math

import mpmath

from stemexplain.encode import STOPWORDS, lemmatize
from stemexplain.linker import EntityLink, FormulaConceptLink, generate_ngrams, normalize_surface

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
                links.append(FormulaConceptLink(doc.doc_id, fid, form, len(gram), rank,
                                                score, entry.title, entry.item_id,
                                                gazetteer.source))
    return links
