"""Exception taxonomy for the ist toolkit.

Every error raised by the library derives from :class:`IstError` so callers
(and the CLI exit-code mapping) can distinguish bad inputs from bugs. A
document field that breaks its schema raises :class:`SchemaError` at its
$-path (the checks of ist.jsonio); a bad library argument, such as a seed,
a draw index or a count, raises :class:`BadConfig` naming the argument.
"""

from __future__ import annotations


class IstError(Exception):
    """Base class for all toolkit errors."""


# --- weight vectors ---------------------------------------------------------

class EmptyWeights(IstError):
    pass


class NegativeWeight(IstError):
    def __init__(self, index: int, value: float):
        super().__init__(f"weight at index {index} is negative ({value})")
        self.index = index
        self.value = value


class ZeroMass(IstError):
    pass


# --- spec structure ---------------------------------------------------------

class UnknownDimension(IstError):
    def __init__(self, dimension: str):
        super().__init__(f"unknown dimension: {dimension!r}")
        self.dimension = dimension


class NotALeaf(IstError):
    def __init__(self, dimension: str):
        super().__init__(f"dimension {dimension!r} already has children")
        self.dimension = dimension


class ChildWeightSum(IstError):
    def __init__(self, dimension: str, total: float):
        super().__init__(f"child weights of {dimension!r} sum to {total}, expected 1")
        self.dimension = dimension
        self.total = total


# --- parsing / serialization ------------------------------------------------

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


# --- metrics ----------------------------------------------------------------

class LengthMismatch(IstError):
    def __init__(self, expected: int, got: int, what: str = "vector"):
        super().__init__(f"{what} length {got}, expected {expected}")
        self.expected = expected
        self.got = got


class RangeError(IstError):
    pass


# --- synthetic worlds -------------------------------------------------------

class BadConfig(IstError):
    pass


class UnknownTask(IstError):
    def __init__(self, task_id: str):
        super().__init__(f"unknown task: {task_id!r}")
        self.task_id = task_id


# --- information oracle -----------------------------------------------------

class InvalidDistribution(IstError):
    pass


class UnknownVariable(IstError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable: {name!r}")
        self.name = name


class DomainMismatch(IstError):
    pass


class WorldTooLarge(IstError):
    def __init__(self, cells: int, cap: int):
        super().__init__(f"enumeration would need {cells} cells (cap {cap})")
        self.cells = cells
        self.cap = cap


# --- experiments ------------------------------------------------------------

class BadBudget(IstError):
    pass


class BadPerturbation(IstError):
    pass


class MissingCondition(IstError):
    def __init__(self, condition: str):
        super().__init__(f"missing condition: {condition!r}")
        self.condition = condition


class ZeroSignal(IstError):
    """All ablation drops are zero: weights are unidentifiable from fidelity."""


# --- audit ------------------------------------------------------------------

class Inconsistent(IstError):
    pass


class MissingScores(IstError):
    pass
