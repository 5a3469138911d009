"""Exception taxonomy for the ist toolkit.

Every refusal of a bad input raises an :class:`IstError`, which the CLI
reports as ``error: {e}`` with exit 2. Each of the four kinds locates
the fault its own way:

* :class:`SpecSyntaxError`: the input is not JSON; it names the line and
  column.
* :class:`SchemaError`: a document field breaks its schema; it names the
  field's $-path (the checks of ist.jsonio), and a JSONL line's number.
* :class:`ValidationError`: an intent spec breaks the rules of
  model.validate_spec; it lists every violation.
* :class:`BadConfig`: any other refused argument, such as a seed, a
  draw index, a count, a weight list, a mask or a table; its message
  names the argument.

A broken invariant of the toolkit's own arithmetic, such as an oracle
table that does not sum to 1, is not an IstError: it raises a builtin
exception (ArithmeticError), which the CLI reports with exit 3.
"""

from __future__ import annotations


class IstError(Exception):
    """Base class for all toolkit errors."""


class SpecSyntaxError(IstError):
    """Malformed JSON input (not valid JSON at all)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.msg = message
        self.line = line
        self.col = col


class SchemaError(IstError):
    """JSON is well formed but does not match the documented schema."""

    def __init__(self, path: str, reason: str, line: int | None = None):
        at = f"{path}: {reason}"
        if line is not None:
            at = f"line {line}: {at}"
        super().__init__(at)
        self.path = path
        self.reason = reason
        self.line = line


class ValidationError(IstError):
    """An intent spec violates a spec invariant (raised when it is built)."""

    def __init__(self, violations):
        msgs = "; ".join(str(v) for v in violations) or "validation failed"
        super().__init__(msgs)
        self.violations = list(violations)


class BadConfig(IstError):
    """A refused argument that is not a document field or a spec."""
