"""Shared error taxonomy, and the UTF-8 read every input file goes through.

Config errors point at the effective configuration, parse errors at
malformed input bytes, validation errors at structurally sound but
contract-violating values, and domain errors at mathematically undefined
requests (entropy of nothing).  A fit that stops at its iteration cap
without meeting its tolerance is not an error: it emits a
``ConvergenceWarning`` and still returns the model.
"""

import os


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """Raised for problems in the effective configuration."""


class ParseError(ToolkitError):
    """Malformed input file content.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ToolkitError):
    """Well-formed input that violates a documented precondition."""


class DomainError(ToolkitError):
    """Quantity undefined for the given input (e.g. empty distribution)."""


class ConvergenceWarning(UserWarning):
    """A fit stopped before its loss change fell below the tolerance."""

    def __init__(self, message: str, iterations: int, final_loss: float):
        super().__init__(message)
        self.iterations = iterations
        self.final_loss = final_loss


def read_utf8(path: str | os.PathLike[str]) -> str:
    """The text of a UTF-8 file, as ``open(path, encoding="utf-8-sig").read()`` returns it.

    One leading byte-order mark (U+FEFF) is dropped, so it is part of no
    key.  ``"\\r\\n"`` and a lone ``"\\r"`` become ``"\\n"`` (universal
    newlines).  Bytes that are not UTF-8 raise ParseError naming the file,
    the line and the byte offset of the first bad byte, never a
    UnicodeDecodeError.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        line = before.count("\n") + before.count("\r") - before.count("\r\n") + 1
        raise ParseError(f"{path}: not valid UTF-8: byte 0x{data[exc.start]:02x} "
                         f"at offset {exc.start}", line) from None
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text
