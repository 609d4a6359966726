"""Identifier extraction from formula markup.

Formula content is XML-style markup in which identifier elements are
``<mi>`` tags.  Extraction walks the element tree in document order,
keeps identifier contents, and skips numbers (``<mn>``), operators
(``<mo>``), and any other element kind.  For scripted constructs such
as sub- and superscripts only the base is considered an identifier
occurrence: ``t^2`` yields ``t``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .errors import ParseError

# Fixed 48-entry table: both cases of each Greek letter map to the
# spelled-out lowercase name, so <mi>&#x3C4;</mi> extracts as "tau".
GREEK_NAMES = {
    "α": "alpha", "Α": "alpha",
    "β": "beta", "Β": "beta",
    "γ": "gamma", "Γ": "gamma",
    "δ": "delta", "Δ": "delta",
    "ε": "epsilon", "Ε": "epsilon",
    "ζ": "zeta", "Ζ": "zeta",
    "η": "eta", "Η": "eta",
    "θ": "theta", "Θ": "theta",
    "ι": "iota", "Ι": "iota",
    "κ": "kappa", "Κ": "kappa",
    "λ": "lambda", "Λ": "lambda",
    "μ": "mu", "Μ": "mu",
    "ν": "nu", "Ν": "nu",
    "ξ": "xi", "Ξ": "xi",
    "ο": "omicron", "Ο": "omicron",
    "π": "pi", "Π": "pi",
    "ρ": "rho", "Ρ": "rho",
    "σ": "sigma", "Σ": "sigma",
    "τ": "tau", "Τ": "tau",
    "υ": "upsilon", "Υ": "upsilon",
    "φ": "phi", "Φ": "phi",
    "χ": "chi", "Χ": "chi",
    "ψ": "psi", "Ψ": "psi",
    "ω": "omega", "Ω": "omega",
}

# Script-like constructs whose first child is the base; identifiers in
# the remaining (script) positions are not extracted.
_SCRIPT_TAGS = {"msub", "msup", "msubsup", "munder", "mover", "munderover"}


def _local_tag(tag: str) -> str:
    if isinstance(tag, str) and "}" in tag:
        return tag.rsplit("}", 1)[1]
    return tag


def _classify(content: str) -> str | None:
    """Map raw ``<mi>`` text to an identifier symbol, or None to skip."""
    text = content.strip()
    if not text:
        return None
    if len(text) == 1:
        if text in GREEK_NAMES:
            return GREEK_NAMES[text]
        if text.isascii() and text.isalpha():
            return text
        return None
    if text.isdigit():
        return None
    return text.lower()


def parse_formula(markup: str) -> ET.Element:
    """Parse a formula markup fragment; raises ParseError when unbalanced."""
    try:
        return ET.fromstring(f"<formula>{markup}</formula>")
    except ET.ParseError as exc:
        raise ParseError(f"malformed formula markup: {exc}") from exc


def extract_identifiers(markup: str) -> list[str]:
    """Return identifier symbols in document order, duplicates preserved.

    Latin single letters keep their case ('t' and 'T' stay distinct),
    Greek code points go through GREEK_NAMES, and multi-letter element
    contents are lowercased verbatim.  Whitespace between elements does
    not change the result.  The tree is walked with an explicit stack,
    so nesting depth is not limited by the interpreter's recursion limit.
    """
    out: list[str] = []
    pending = list(parse_formula(markup))
    pending.reverse()
    while pending:
        element = pending.pop()
        tag = _local_tag(element.tag)
        if tag in _SCRIPT_TAGS:
            if len(element):
                pending.append(element[0])
        elif tag == "mi":
            symbol = _classify(element.text or "")
            if symbol is not None:
                out.append(symbol)
        else:
            pending.extend(reversed(element))
    return out
