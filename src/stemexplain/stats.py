"""Identifier/name/class distributions and category co-occurrence analysis.

Entropy and margin come from ``entropy``, which defines
``CountDistribution``; the three names can be imported from here too.

Counting is document-level presence: a combination such as (class,
identifier, name) is counted once per document that contains it,
regardless of how often it repeats inside the document.  The class of a
document is its primary (first) label on the chosen axis, which keeps
the marginalization identities between two- and three-level
distributions exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Document, axis_labels, document_identifiers, primary_label
from .entropy import CountDistribution, margin_uncertainty, shannon_entropy
from .errors import DomainError, ValidationError


# ---------------------------------------------------------------------------
# Nine-way identifier / name / class distribution library


_LIBRARY_FIELDS = (
    "class_counts",
    "class_identifier",
    "class_name",
    "identifier_class",
    "identifier_name",
    "identifier_class_name",
    "name_class",
    "name_identifier",
    "name_class_identifier",
)


@dataclass
class DistributionLibrary:
    """All nine nested document-count maps over one class axis.

    Two-level maps are outer key -> inner key -> count; three-level
    maps insert the class between the outer and inner key.  "name"
    refers to the semantic name a gold annotation assigns an identifier
    symbol; identifiers without names contribute only to symbol-keyed
    maps.
    """

    class_axis: str
    class_counts: dict = field(default_factory=dict)
    class_identifier: dict = field(default_factory=dict)
    class_name: dict = field(default_factory=dict)
    identifier_class: dict = field(default_factory=dict)
    identifier_name: dict = field(default_factory=dict)
    identifier_class_name: dict = field(default_factory=dict)
    name_class: dict = field(default_factory=dict)
    name_identifier: dict = field(default_factory=dict)
    name_class_identifier: dict = field(default_factory=dict)
    document_count: int = 0
    skipped_unlabeled: int = 0

    def to_records(self) -> list[dict]:
        records = [{
            "meta": {
                "class_axis": self.class_axis,
                "document_count": self.document_count,
                "skipped_unlabeled": self.skipped_unlabeled,
            }
        }]
        for name in _LIBRARY_FIELDS:
            records.append({"distribution": name, "data": getattr(self, name)})
        return records

    @staticmethod
    def from_records(records: list[dict]) -> "DistributionLibrary":
        meta = records[0]["meta"]
        library = DistributionLibrary(meta["class_axis"],
                                      document_count=meta["document_count"],
                                      skipped_unlabeled=meta["skipped_unlabeled"])
        for record in records[1:]:
            setattr(library, record["distribution"], record["data"])
        return library


def _bump(table: dict, *keys: str):
    for key in keys[:-1]:
        table = table.setdefault(key, {})
    table[keys[-1]] = table.get(keys[-1], 0) + 1


def build_distribution_library(documents: list[Document], class_axis: str = "arxiv") -> DistributionLibrary:
    """Count document-level identifier/name/class combinations.

    Documents without a label on the chosen axis are skipped and
    tallied in ``skipped_unlabeled``.
    """
    if not documents:
        raise ValidationError("cannot build distributions over an empty corpus")
    library = DistributionLibrary(class_axis)
    for doc in documents:
        label = primary_label(doc, class_axis)
        if label is None:
            library.skipped_unlabeled += 1
            continue
        library.document_count += 1
        _bump(library.class_counts, label)
        occurrences = document_identifiers(doc)
        symbols = sorted({occ.symbol for occ in occurrences})
        named = sorted({(occ.symbol, occ.name) for occ in occurrences if occ.name is not None})
        names = sorted({name for _, name in named})
        for symbol in symbols:
            _bump(library.class_identifier, label, symbol)
            _bump(library.identifier_class, symbol, label)
        for name in names:
            _bump(library.class_name, label, name)
            _bump(library.name_class, name, label)
        for symbol, name in named:
            _bump(library.identifier_name, symbol, name)
            _bump(library.name_identifier, name, symbol)
            _bump(library.identifier_class_name, symbol, label, name)
            _bump(library.name_class_identifier, name, label, symbol)
    if library.document_count == 0:
        raise ValidationError(f"no document carries a label on axis {class_axis!r}")
    return library


def marginalize_middle(three_level: dict) -> dict:
    """Sum a three-level map over its middle key.

    Collapsing identifier -> class -> name over the class reproduces
    identifier -> name exactly, since each document contributes one
    class.
    """
    out: dict = {}
    for outer, middle_map in three_level.items():
        collapsed = out.setdefault(outer, {})
        for _, inner_map in middle_map.items():
            for inner, count in inner_map.items():
                collapsed[inner] = collapsed.get(inner, 0) + count
    return out


@dataclass(frozen=True)
class EntropySummary:
    minimum: float
    mean: float
    maximum: float
    per_key: dict[str, float]


def entropy_summary(library: DistributionLibrary, keyed: str) -> EntropySummary:
    """Entropy of the class distribution per key, aggregated.

    ``keyed`` selects symbol-keyed ("identifier") or name-keyed
    ("name") class distributions.
    """
    if keyed == "identifier":
        table = library.identifier_class
    elif keyed == "name":
        table = library.name_class
    else:
        raise ValidationError(f"keyed must be 'identifier' or 'name', got {keyed!r}")
    if not table:
        raise DomainError(f"no {keyed}-keyed distributions present")
    per_key = {key: shannon_entropy(CountDistribution(classes))
               for key, classes in sorted(table.items())}
    values = list(per_key.values())
    return EntropySummary(min(values), sum(values) / len(values), max(values), per_key)


# ---------------------------------------------------------------------------
# Category co-occurrence


@dataclass
class CooccurrenceMatrix:
    """Document counts per (arXiv category, MSC code) pair.

    Rows are arXiv categories, columns MSC codes, both sorted
    lexicographically.  A document with multiple labels on both axes
    increments every cross-product pair once.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: list[list[int]]
    skipped: int = 0


def build_cooccurrence(documents: list[Document]) -> CooccurrenceMatrix:
    """Count arXiv x MSC label pairs over the corpus.

    Documents lacking labels on either axis are skipped and counted in
    ``skipped``.
    """
    if not documents:
        raise ValidationError("cannot build a co-occurrence matrix over an empty corpus")
    pair_counts: dict[tuple[str, str], int] = {}
    skipped = 0
    for doc in documents:
        arxiv = axis_labels(doc, "arxiv")
        msc = axis_labels(doc, "msc")
        if not arxiv or not msc:
            skipped += 1
            continue
        for a in arxiv:
            for m in msc:
                pair_counts[(a, m)] = pair_counts.get((a, m), 0) + 1
    rows = tuple(sorted({a for a, _ in pair_counts}))
    cols = tuple(sorted({m for _, m in pair_counts}))
    counts = [[pair_counts.get((a, m), 0) for m in cols] for a in rows]
    return CooccurrenceMatrix(rows, cols, counts, skipped)


@dataclass(frozen=True)
class UncertaintyReport:
    direction: str
    rows: tuple[tuple[str, float, float], ...]  # (label, entropy, margin)
    entropy_mean: float
    entropy_max: float
    margin_mean: float
    margin_max: float


def _direction_vectors(matrix: CooccurrenceMatrix, direction: str):
    if direction == "rows":
        for i, label in enumerate(matrix.row_labels):
            yield label, dict(zip(matrix.col_labels, matrix.counts[i]))
    elif direction == "columns":
        for j, label in enumerate(matrix.col_labels):
            yield label, {r: matrix.counts[i][j] for i, r in enumerate(matrix.row_labels)}
    else:
        raise ValidationError(f"direction must be 'rows' or 'columns', got {direction!r}")


def uncertainty_report(matrix: CooccurrenceMatrix, direction: str) -> UncertaintyReport:
    """Per-label entropy and margin along one direction of the matrix.

    Labels with zero total are omitted; an all-zero matrix has no
    defined report.
    """
    rows = []
    for label, vector in _direction_vectors(matrix, direction):
        dist = CountDistribution({k: v for k, v in vector.items() if v > 0})
        if not dist.counts:
            continue
        rows.append((label, shannon_entropy(dist), margin_uncertainty(dist)))
    if not rows:
        raise DomainError("uncertainty report undefined for an all-zero matrix")
    entropies = [e for _, e, _ in rows]
    margins = [m for _, _, m in rows]
    return UncertaintyReport(direction, tuple(rows),
                             sum(entropies) / len(entropies), max(entropies),
                             sum(margins) / len(margins), max(margins))


def argmax_predict(matrix: CooccurrenceMatrix, direction: str) -> dict[str, str]:
    """Most co-occurring opposite label per label, ties lexicographic.

    Labels with zero total are omitted from the result.
    """
    predictions = {}
    for label, vector in _direction_vectors(matrix, direction):
        best = None
        best_count = 0
        for other in sorted(vector):
            count = vector[other]
            if count > best_count:
                best, best_count = other, count
        if best is not None:
            predictions[label] = best
    return predictions


def compare_predictions(first: dict[str, str], second: dict[str, str]) -> tuple[int, int]:
    """(matches, mismatches) over labels present in both maps."""
    shared = set(first) & set(second)
    matches = sum(1 for label in shared if first[label] == second[label])
    return matches, len(shared) - matches
