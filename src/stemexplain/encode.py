"""Text normalization and TF-IDF encoding.

The pipeline is deliberately small and fully deterministic: a
boundary-split tokenizer, a fixed shipped stopword list, a rule-based
plural lemmatizer with an exception table, a phrase matcher over token
lists (the gazetteer linkers and the concept-phrase checks share it),
and a TF-IDF model with

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

applied to raw term counts followed by L2 normalization.  Vocabulary
indices follow first-seen token order, and out-of-vocabulary tokens are
ignored at transform time.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter

from .errors import ValidationError
# tokenize has its own module, so that loading a corpus does not load this
# one; it is still part of this module's API.
from .tokenizer import tokenize  # noqa: F401

# Matches exactly the characters for which str.isspace() is true.
_SPACE_RE = re.compile(r"\s")


def _load_wordlist(name: str) -> list[str]:
    path = resources.files("stemexplain.data").joinpath(name)
    return path.read_text(encoding="utf-8").splitlines()


def load_stopwords() -> frozenset[str]:
    """The stopword set shipped with the package, one entry per line, UTF-8."""
    return frozenset(w.strip() for w in _load_wordlist("stopwords.txt") if w.strip())


def load_lemma_exceptions() -> dict[str, str]:
    """The shipped irregular-plural exception table (``form<TAB>lemma``)."""
    table = {}
    for line in _load_wordlist("lemma_exceptions.txt"):
        if not line.strip():
            continue
        form, _, lemma = line.partition("\t")
        table[form.strip()] = lemma.strip()
    return table


STOPWORDS = load_stopwords()
LEMMA_EXCEPTIONS = load_lemma_exceptions()


def lemmatize(token: str) -> str:
    """Reduce an English plural to its lemma.

    Rule order: exception table, -ies -> -y, sibilant -es stripping,
    plain -s stripping.  The guards (-ss, -us, -is, minimum lengths)
    keep lemmas such as "class" and "radius" whole.  A stripped stem
    goes through the rules again, so "atlases" and "atlas" both give
    "atla" and, with exception values that are lemmas themselves, the
    map is idempotent: lemmatize(lemmatize(w)) == lemmatize(w).
    """
    if token in LEMMA_EXCEPTIONS:
        return LEMMA_EXCEPTIONS[token]
    if token.endswith("ies") and len(token) >= 5:
        return lemmatize(token[:-3] + "y")
    if token.endswith("es") and len(token) >= 4 and token[:-2].endswith(("s", "x", "z", "ch", "sh")):
        return lemmatize(token[:-2])
    if token.endswith("s") and len(token) >= 4 and not token.endswith(("ss", "us", "is")):
        return lemmatize(token[:-1])
    return token


@dataclass(slots=True)
class PhraseIndex:
    """Where a key of a phrase set can start.

    ``first_tokens`` holds the first token of every key (a one-token key
    is stored as itself, not copied) and ``longest`` the token length of
    the longest key.  Keys are normalized: tokens joined by one space.
    """

    first_tokens: set[str] = field(default_factory=set)
    longest: int = 0

    def update(self, keys: Collection[str]) -> None:
        if not keys:
            return
        self.first_tokens.update([key.partition(" ")[0] for key in keys])
        self.longest = max(self.longest, max(key.count(" ") for key in keys) + 1)


def phrase_hits(tokens: list[str], forms: list[str], keys: Collection[str], index: PhraseIndex,
                max_n: int, stopwords: Collection[str]) -> list[tuple[int, int, str]]:
    """(start, length, form) for every n-gram of length <= max_n whose form is a key.

    ``forms[i]`` is the lookup form of ``tokens[i]``; an n-gram's form is
    its token forms space-joined.  ``index`` describes ``keys``.  N-grams
    whose tokens are all stopwords are skipped.  Hits are ordered by
    (length, start).
    """
    if max_n < 1:
        raise ValidationError(f"max_n must be >= 1, got {max_n}")
    top = min(max_n, index.longest)
    first_tokens = index.first_tokens
    n_tokens = len(tokens)
    hits = []
    for start, form in enumerate(forms):
        if form not in first_tokens:
            continue
        for length in range(1, min(top, n_tokens - start) + 1):
            if length > 1:
                form = form + " " + forms[start + length - 1]
            if form in keys and not all(t in stopwords for t in tokens[start:start + length]):
                hits.append((start, length, form))
    # Starts ascend within each length, so a stable sort on length suffices.
    hits.sort(key=itemgetter(1))
    return hits


@dataclass(frozen=True)
class TokenStream:
    """An ordered token sequence attributed to a document."""

    doc_id: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        # One membership test and one search over all tokens; the walk only
        # names the first bad token.
        tokens = self.tokens
        if "" in tokens or _SPACE_RE.search("".join(tokens)):
            for tok in tokens:
                if not tok or _SPACE_RE.search(tok):
                    raise ValidationError(f"bad token {tok!r} in stream for {self.doc_id!r}")

    @staticmethod
    def of(doc_id: str, tokens) -> "TokenStream":
        return TokenStream(doc_id, tuple(tokens))


def text_streams(documents: Iterable, remove_stopwords: bool = True,
                 lemmatized: bool = False) -> list[TokenStream]:
    """Each document's ``text_tokens()`` in order, without ``STOPWORDS`` when
    ``remove_stopwords``, then lemmatized when ``lemmatized``.

    Every text model is fitted on these streams: the ``classify`` stage's
    with the ``encode`` settings, explain's with the defaults.
    """
    streams = []
    for doc in documents:
        tokens = doc.text_tokens()
        if remove_stopwords:
            tokens = [t for t in tokens if t not in STOPWORDS]
        if lemmatized:
            tokens = [lemmatize(t) for t in tokens]
        streams.append(TokenStream.of(doc.doc_id, tokens))
    return streams


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector with strictly increasing indices."""

    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise ValidationError("index/value length mismatch")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValidationError("indices must be strictly increasing")

    @staticmethod
    def from_items(items) -> "SparseVector":
        pairs = sorted((i, v) for i, v in items if v != 0.0)
        return SparseVector(tuple(i for i, _ in pairs), tuple(v for _, v in pairs))

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))


@dataclass
class TfIdfModel:
    """Fitted TF-IDF vocabulary and inverse document frequencies.

    ``vocabulary`` maps token to column index in first-seen order and
    ``idf`` holds one weight per index; with the smoothed formula every
    idf value is strictly positive.
    """

    vocabulary: dict[str, int]
    idf: list[float]
    document_count: int = 0

    def to_record(self) -> dict:
        tokens = sorted(self.vocabulary, key=self.vocabulary.get)
        return {"tokens": tokens, "idf": list(self.idf), "document_count": self.document_count}

    @staticmethod
    def from_record(record: dict) -> "TfIdfModel":
        vocab = {tok: i for i, tok in enumerate(record["tokens"])}
        return TfIdfModel(vocab, [float(x) for x in record["idf"]], int(record["document_count"]))


def fit_tfidf(streams: list[TokenStream]) -> TfIdfModel:
    """Fit vocabulary and idf over token streams.

    N is the number of streams passed (empty streams count as
    documents).  Raises ValidationError when every stream is empty.
    """
    if not any(stream.tokens for stream in streams):
        raise ValidationError("cannot fit tf-idf: all token streams are empty")
    vocabulary: dict[str, int] = {}
    df = Counter()
    for stream in streams:
        seen = set()
        for tok in stream.tokens:
            if tok not in vocabulary:
                vocabulary[tok] = len(vocabulary)
            seen.add(tok)
        df.update(seen)
    n = len(streams)
    idf = [0.0] * len(vocabulary)
    for tok, index in vocabulary.items():
        idf[index] = math.log((1 + n) / (1 + df[tok])) + 1.0
    return TfIdfModel(vocabulary, idf, n)


def transform(model: TfIdfModel, stream: TokenStream) -> SparseVector:
    """Encode one stream as an L2-normalized tf-idf vector.

    Out-of-vocabulary tokens are ignored; a stream with no known tokens
    encodes to the zero vector.
    """
    counts = Counter(stream.tokens)
    items = []
    for tok, count in counts.items():
        index = model.vocabulary.get(tok)
        if index is not None:
            items.append((index, count * model.idf[index]))
    items.sort()
    norm = math.sqrt(sum(v * v for _, v in items))
    if norm == 0.0:
        return SparseVector((), ())
    return SparseVector(tuple(i for i, _ in items), tuple(v / norm for _, v in items))


def transform_all(model: TfIdfModel, streams: list[TokenStream]) -> list[SparseVector]:
    return [transform(model, s) for s in streams]
