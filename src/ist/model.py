"""Core domain types for weighted intent dimensions.

An :class:`IntentSpec` is a task-typed, ordered tree of weighted dimensions,
each carrying the value the user actually meant. A :class:`Carrier` is what
was explicitly written down for the model; an :class:`EncodingMask` records,
per flattened dimension, whether the carrier represents it.

All types are immutable named tuples, safe to share across workers: copy
one with a field changed by ``_replace`` and list its fields with
``_fields``. A type that checks or normalizes its fields does so in
``__new__``, which ``_replace`` runs again.
An IntentSpec is valid once it is built: its constructor runs
:func:`validate_spec` and raises ValidationError listing every violated
rule, so nothing that takes a spec checks it again. A spec flattens once:
:attr:`IntentSpec.flat` holds its leaves in :func:`flatten` order from the
first use on, and masks, scores and privacy labels all read it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import ChildWeightSum, NotALeaf, UnknownDimension, ValidationError
from .jsonio import TOP_WEIGHT_TOL, checked_make, weight_sum

CHILD_WEIGHT_TOL = 1e-9

PRIVACY_HINTS = ("public", "private", "unknown")
VALUE_KINDS = ("token", "text")


class ValueRef(namedtuple("ValueRef", "kind value")):
    """An intended or realized value: a categorical token or free text."""

    __slots__ = ()

    @staticmethod
    def token(value: str) -> "ValueRef":
        return ValueRef("token", value)

    @staticmethod
    def text(value: str) -> "ValueRef":
        return ValueRef("text", value)


class Dimension(namedtuple("Dimension", "id weight intended_value privacy_hint children")):
    """One intent dimension: id, relative weight, intended value, children.

    Ids compare case-insensitively and are stored lowercase. Child weights
    are relative to the parent and must sum to 1.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, id: str, weight: float, intended_value: ValueRef | None = None,
                privacy_hint: str | None = None, children: tuple[Dimension, ...] = ()):
        return super().__new__(cls, id.lower(), float(weight), intended_value,
                               privacy_hint, tuple(children))

    @property
    def is_leaf(self) -> bool:
        return not self.children


class IntentSpec(namedtuple("IntentSpec", "task_id task_type dimensions")):
    """A task-conditioned weighted dimension set with intended values.

    Raises ValidationError when the dimensions break a validate_spec rule.
    """

    # no __slots__ = (): flat is cached in the instance's __dict__
    _make = classmethod(checked_make)

    def __new__(cls, task_id: str, task_type: str, dimensions: tuple[Dimension, ...]):
        self = super().__new__(cls, task_id, task_type, tuple(dimensions))
        report = validate_spec(self)
        if report:
            raise ValidationError(report)
        return self

    @cached_property
    def flat(self) -> tuple[FlatDimension, ...]:
        """flatten(self), computed on first use. The spec is immutable, so
        the view cannot go stale; it is not a field, so equality, hashing
        and serialization ignore it."""
        return tuple(flatten(self))


class Carrier(namedtuple("Carrier", "task_id encoded_dimensions text")):
    """The explicit signal actually supplied: which dimensions it encodes."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, task_id: str, encoded_dimensions: frozenset[str],
                text: str | None = None):
        return super().__new__(cls, task_id,
                               frozenset(d.lower() for d in encoded_dimensions), text)


class EncodingMask(namedtuple("EncodingMask", "dims bits")):
    """Per-dimension 0/1 bits aligned with a spec's flatten order.

    Ids are stored lowercase, as Dimension stores them.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, dims: tuple[str, ...], bits: tuple[int, ...]):
        if len(dims) != len(bits):
            raise ValueError("dims and bits must have equal length")
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"mask bit must be 0 or 1, got {b!r}")
        return super().__new__(cls, tuple(d.lower() for d in dims),
                               tuple(int(b) for b in bits))

    def bit(self, dim_id: str) -> int:
        try:
            return self.bits[self.dims.index(dim_id.lower())]
        except ValueError:
            raise UnknownDimension(dim_id) from None


class FlatDimension(namedtuple("FlatDimension", "id weight intended_value privacy_hint",
                               defaults=(None,))):
    """A leaf dimension with its effective (path-product) weight."""

    __slots__ = ()


class Violation(namedtuple("Violation", "rule dimension message")):
    """One validation finding: which dimension broke which rule."""

    __slots__ = ()

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
            return dim._replace(children=sub_dims)
        if dim.children:
            return dim._replace(children=tuple(rewrite(c) for c in dim.children))
        return dim

    new_dims = tuple(rewrite(d) for d in spec.dimensions)
    if not found:
        raise UnknownDimension(target)
    return spec._replace(dimensions=new_dims)
