"""Core domain types for weighted intent dimensions.

An :class:`IntentSpec` is a task-typed, ordered tree of weighted dimensions,
each carrying the value the user actually meant. A :class:`Carrier` is what
was explicitly written down for the model; an :class:`EncodingMask` records,
per flattened dimension, whether the carrier represents it.

All types are immutable after construction and safe to share across workers.
An IntentSpec is valid once it is built: its constructor runs
:func:`validate_spec` and raises ValidationError listing every violated
rule, so nothing that takes a spec checks it again. A spec flattens once:
:attr:`IntentSpec.flat` holds its leaves in :func:`flatten` order from the
first use on, and masks, scores and privacy labels all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ChildWeightSum, NotALeaf, UnknownDimension, ValidationError
from .jsonio import TOP_WEIGHT_TOL, weight_sum

CHILD_WEIGHT_TOL = 1e-9

PRIVACY_HINTS = ("public", "private", "unknown")
VALUE_KINDS = ("token", "text")


@dataclass(frozen=True)
class ValueRef:
    """An intended or realized value: a categorical token or free text."""

    kind: str
    value: str

    @staticmethod
    def token(value: str) -> "ValueRef":
        return ValueRef("token", value)

    @staticmethod
    def text(value: str) -> "ValueRef":
        return ValueRef("text", value)


@dataclass(frozen=True)
class Dimension:
    """One intent dimension: id, relative weight, intended value, children.

    Ids compare case-insensitively and are stored lowercase. Child weights
    are relative to the parent and must sum to 1.
    """

    id: str
    weight: float
    intended_value: ValueRef | None = None
    privacy_hint: str | None = None
    children: tuple["Dimension", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "id", self.id.lower())
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class IntentSpec:
    """A task-conditioned weighted dimension set with intended values.

    Raises ValidationError when the dimensions break a validate_spec rule.
    """

    task_id: str
    task_type: str
    dimensions: tuple[Dimension, ...]

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        report = validate_spec(self)
        if report:
            raise ValidationError(report)

    @cached_property
    def flat(self) -> tuple[FlatDimension, ...]:
        """flatten(self), computed on first use. The spec is frozen, so the
        view cannot go stale; it is not a field, so equality, hashing and
        serialization ignore it."""
        return tuple(flatten(self))


@dataclass(frozen=True)
class Carrier:
    """The explicit signal actually supplied: which dimensions it encodes."""

    task_id: str
    encoded_dimensions: frozenset[str]
    text: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "encoded_dimensions",
            frozenset(d.lower() for d in self.encoded_dimensions))


@dataclass(frozen=True)
class EncodingMask:
    """Per-dimension 0/1 bits aligned with a spec's flatten order.

    Ids are stored lowercase, as Dimension stores them.
    """

    dims: tuple[str, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.bits):
            raise ValueError("dims and bits must have equal length")
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError(f"mask bit must be 0 or 1, got {b!r}")
        object.__setattr__(self, "dims", tuple(d.lower() for d in self.dims))
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def bit(self, dim_id: str) -> int:
        try:
            return self.bits[self.dims.index(dim_id.lower())]
        except ValueError:
            raise UnknownDimension(dim_id) from None


@dataclass(frozen=True)
class FlatDimension:
    """A leaf dimension with its effective (path-product) weight."""

    id: str
    weight: float
    intended_value: ValueRef | None
    privacy_hint: str | None = None


@dataclass(frozen=True)
class Violation:
    """One validation finding: which dimension broke which rule."""

    rule: str
    dimension: str | None
    message: str

    def __str__(self) -> str:
        where = f" [{self.dimension}]" if self.dimension else ""
        return f"{self.rule}{where}: {self.message}"


def validate_spec(spec: IntentSpec) -> list[Violation]:
    """Every type invariant the spec breaks; violations are data here, and
    IntentSpec's constructor raises them."""
    report: list[Violation] = []
    if not spec.dimensions:
        report.append(Violation("NoDimensions", None, "spec has no dimensions"))
        return report

    top_sum = weight_sum(d.weight for d in spec.dimensions)
    if abs(top_sum - 1.0) > TOP_WEIGHT_TOL:
        report.append(Violation(
            "TopLevelWeightSum", None,
            f"top-level weights sum to {top_sum!r}, expected 1"))

    seen: set[str] = set()

    def walk(dim: Dimension) -> None:
        if not dim.id:
            report.append(Violation("EmptyId", dim.id, "dimension id is empty"))
        if dim.id in seen:
            report.append(Violation("DuplicateId", dim.id, "id declared more than once"))
        seen.add(dim.id)
        if dim.weight < 0 or dim.weight > 1:
            report.append(Violation(
                "WeightRange", dim.id, f"weight {dim.weight!r} outside [0, 1]"))
        if dim.privacy_hint is not None and dim.privacy_hint not in PRIVACY_HINTS:
            report.append(Violation(
                "BadPrivacyHint", dim.id, f"privacy_hint {dim.privacy_hint!r}"))
        if dim.intended_value is not None \
                and dim.intended_value.kind not in VALUE_KINDS:
            report.append(Violation(
                "BadValueKind", dim.id, f"kind {dim.intended_value.kind!r}"))
        if dim.children:
            child_sum = weight_sum(c.weight for c in dim.children)
            if abs(child_sum - 1.0) > CHILD_WEIGHT_TOL:
                report.append(Violation(
                    "ChildWeightSum", dim.id,
                    f"child weights sum to {child_sum!r}, expected 1"))
            for c in dim.children:
                walk(c)

    for d in spec.dimensions:
        walk(d)
    return report


def flatten(spec: IntentSpec) -> list[FlatDimension]:
    """Depth-first leaves with effective weights (path products).

    Declaration order is canonical: every aligned vector in the toolkit
    (masks, score vectors) follows this order.
    """
    out: list[FlatDimension] = []

    def walk(dim: Dimension, scale: float) -> None:
        eff = scale * dim.weight
        if dim.is_leaf:
            out.append(FlatDimension(dim.id, eff, dim.intended_value, dim.privacy_hint))
        else:
            for c in dim.children:
                walk(c, eff)

    for d in spec.dimensions:
        walk(d, 1.0)
    return out


def refine_dimension(spec: IntentSpec, target: str,
                     sub_dims: list[Dimension]) -> IntentSpec:
    """Return a new spec where the target leaf is split into sub-dimensions.

    Sub-dimension weights are relative to the target and must sum to 1, so
    the total flattened weight mass is unchanged. A refinement that breaks
    another rule (a duplicate id, say) raises ValidationError.
    """
    target = target.lower()
    sub_dims = tuple(sub_dims)
    sub_sum = weight_sum(d.weight for d in sub_dims)
    if abs(sub_sum - 1.0) > CHILD_WEIGHT_TOL:
        raise ChildWeightSum(target, sub_sum)

    found = False

    def rewrite(dim: Dimension) -> Dimension:
        nonlocal found
        if dim.id == target:
            if not dim.is_leaf:
                raise NotALeaf(target)
            found = True
            return replace(dim, children=sub_dims)
        if dim.children:
            return replace(dim, children=tuple(rewrite(c) for c in dim.children))
        return dim

    new_dims = tuple(rewrite(d) for d in spec.dimensions)
    if not found:
        raise UnknownDimension(target)
    return replace(spec, dimensions=new_dims)
