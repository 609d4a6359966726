"""The text tokenizer, on its own so that loading a corpus needs no encoder.

``encode`` re-exports ``tokenize`` as part of the text pipeline; both
names refer to this one function.  ``normalize_surface`` is the lookup
form of a gazetteer surface or gold n-gram; ``linker`` re-exports it,
and a corpus load uses it to find gold keys that name one n-gram.
"""

from __future__ import annotations

import re

# Alphanumeric runs; underscore is a boundary like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same runs in lowercase ASCII text, where \w is [a-z0-9_].
_ASCII_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Lowercase ASCII tokens joined by single spaces: already a lookup form.
_NORMAL_ASCII_RE = re.compile(r"[a-z0-9]+(?: [a-z0-9]+)*")


def tokenize(text: str) -> list[str]:
    """Split ``text`` on non-alphanumeric boundaries and lowercase.

    "Velocity dispersion is" -> ["velocity", "dispersion", "is"], and
    "E=mc2" -> ["e", "mc2"].  Empty input yields an empty list.
    Lowercased text that is all ASCII (most prose, and text such as the
    Kelvin sign that lowercases to ASCII) goes through the cheaper ASCII
    pattern, which finds the same tokens there.
    """
    lowered = text.lower()
    if lowered.isascii():
        return _ASCII_TOKEN_RE.findall(lowered)
    return _TOKEN_RE.findall(lowered)


def normalize_surface(surface: str) -> str:
    """Canonical lookup form: the surface's tokens, space-joined.

    The tokenizer splits on underscores like on any other punctuation,
    so "Wave_function" and "wave function" share a form.  A surface
    that is already in this form is returned as it is.
    """
    if _NORMAL_ASCII_RE.fullmatch(surface):
        return surface
    return " ".join(tokenize(surface))
