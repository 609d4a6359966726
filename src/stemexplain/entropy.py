"""Count distributions and their entropy and margin.

A module of its own, so that a caller that only needs entropies (the
explain stage) does not load the distribution library and co-occurrence
analysis of ``stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class CountDistribution:
    """Labels with non-negative counts; entropy needs a positive total."""

    counts: dict[str, float]

    def total(self) -> float:
        return sum(self.counts.values())

    def normalized(self) -> dict[str, float]:
        total = self.total()
        if total <= 0:
            raise DomainError("cannot normalize a distribution with zero total")
        return {label: count / total for label, count in self.counts.items()}


def _check_counts(dist: CountDistribution):
    for label, count in dist.counts.items():
        if count < 0:
            raise ValidationError(f"negative count for {label!r}")
    if not dist.counts or dist.total() == 0:
        raise DomainError("entropy/margin undefined for an empty distribution")


def shannon_entropy(dist: CountDistribution) -> float:
    """Shannon entropy in bits, with 0 * log 0 taken as 0.

    A single-label distribution has entropy 0; a uniform distribution
    over n labels has entropy log2(n).
    """
    _check_counts(dist)
    total = dist.total()
    # H = log2(T) - sum(p * log2 c); the sum vanishes for unit counts and
    # collapses to log2(T) for a single label, so both closed forms are
    # exact rather than merely close.
    weighted = math.fsum(
        (count / total) * math.log2(count)
        for count in dist.counts.values()
        if count > 0
    )
    return math.log2(total) - weighted


def margin_uncertainty(dist: CountDistribution) -> float:
    """Difference between the top two probabilities, p_max - p_second.

    A single-label distribution has margin 1; ties give margin 0.
    """
    _check_counts(dist)
    total = dist.total()
    ordered = sorted(dist.counts.values(), reverse=True)
    top = ordered[0]
    second = ordered[1] if len(ordered) > 1 else 0.0
    return (top - second) / total
