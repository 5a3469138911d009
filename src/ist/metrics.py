"""Core metric suite: encoding loss, weighted structure/fidelity, drift.

All aggregates share one reduction (an exactly-accumulated weighted sum
over the flattened dimension order, IntentSpec.flat, which a spec computes
once) so that identities between them hold in floating point, not just in
exact arithmetic:

* s_icmw = sum_i w_i * r_i           (structural coverage)
* f_icmw = sum_i w_i * f_i           (semantic fidelity)
* l_enc  = 1 - sum_i w_i * m_i       (encoding loss)
* d_drift = 1 - f_icmw               (the exact same float)
* ga = 1 + round(4 * s_icmw), half away from zero, clamped to [1, 5]

Split zone: ga == 5 while f_icmw < SPLIT_ZONE_THRESHOLD = 0.8 (strict).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Callable, Mapping

from .errors import BadConfig
from .jsonio import checked_make
from .model import EncodingMask, FlatDimension, IntentSpec, ValueRef

SPLIT_ZONE_THRESHOLD = 0.8

# Tolerated float overshoot when clamping weighted sums back into [0, 1].
_CLAMP_TOL = 1e-9


class DimensionScores(namedtuple("DimensionScores", "dims r f")):
    """Per-dimension structure (r) and fidelity (f), both in [0, 1]."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, dims: tuple[str, ...], r: tuple[float, ...], f: tuple[float, ...]):
        if len(r) != len(dims):
            raise BadConfig(f"r scores length {len(r)}, expected {len(dims)}")
        if len(f) != len(dims):
            raise BadConfig(f"f scores length {len(f)}, expected {len(dims)}")
        for name, vec in (("r", r), ("f", f)):
            for i, v in enumerate(vec):
                if not 0.0 <= v <= 1.0:
                    raise BadConfig(f"{name}[{i}] ({dims[i]}) = {v}, outside [0, 1]")
        return super().__new__(cls, dims, r, f)


class MetricBundle(namedtuple("MetricBundle", "s_icmw f_icmw d_drift ga split_zone l_enc",
                              defaults=(None,))):
    """Everything the audit layer needs about one scored output.

    l_enc is None when no carrier was available to compute a mask from.
    """

    __slots__ = ()


def _clamp_unit(x: float) -> float:
    if x < 0.0:
        if x < -_CLAMP_TOL:
            raise BadConfig(f"weighted sum {x} below 0 beyond tolerance")
        return 0.0
    if x > 1.0:
        if x > 1.0 + _CLAMP_TOL:
            raise BadConfig(f"weighted sum {x} above 1 beyond tolerance")
        return 1.0
    return x


def weighted_sum(weights, values) -> float:
    """The one reduction all metrics use: sum of w_i * v_i, clamped to [0, 1].

    fsum makes the accumulation exact (single rounding at the end), so
    the reduction is monotone per term: v <= v' pointwise implies
    weighted_sum(w, v) <= weighted_sum(w, v'), in actual floats.
    Weights that sum to exactly 1.0 give exactly 1.0 on all-ones
    values. Values go through float(), so bools and 0/1 mask bits
    weigh as 1.0 and 0.0.
    """
    w = list(map(float, weights))
    v = list(map(float, values))
    if len(w) != len(v):
        raise BadConfig(f"weighted values length {len(v)}, expected {len(w)}")
    return _float_weighted_sum(w, v)


def _float_weighted_sum(w, v) -> float:
    """weighted_sum of float weights w and values v of one length, neither
    converted nor checked: the clamped exact fsum of their products."""
    return _clamp_unit(math.fsum(map(operator.mul, w, v)))


def encoding_loss(weights, mask: EncodingMask) -> float:
    """Weight mass the carrier dropped: 1 - sum of encoded weights."""
    return _clamp_unit(1.0 - weighted_sum(weights, mask.bits))


def aggregate(weights, scores: DimensionScores) -> tuple[float, float]:
    """(s_icmw, f_icmw) under the shared weighting."""
    return (weighted_sum(weights, scores.r), weighted_sum(weights, scores.f))


def synthesize_ga(s_icmw: float) -> int:
    """Map structural coverage onto the 1..5 ordinal scale.

    Rounding is half away from zero (0.5 -> 1, 1.5 -> 2, ...), not
    banker's rounding, so grade boundaries sit exactly on eighths.
    """
    if not 0.0 <= s_icmw <= 1.0:
        raise BadConfig(f"s_icmw = {s_icmw}, outside [0, 1]")
    grade = 1 + math.floor(4.0 * s_icmw + 0.5)
    return max(1, min(5, grade))


def detect_split_zone(ga: int, f_icmw: float) -> bool:
    """Structurally perfect but semantically degraded: ga 5, f below cut."""
    return ga == 5 and f_icmw < SPLIT_ZONE_THRESHOLD


def exact_match(expected: ValueRef, realized: ValueRef) -> float:
    """Default fidelity matcher: 1.0 on exact (kind, value) equality."""
    return 1.0 if (expected.kind == realized.kind
                   and expected.value == realized.value) else 0.0


Matcher = Callable[[FlatDimension, ValueRef], float]


def score_output(spec: IntentSpec,
                 realized_values: Mapping[str, ValueRef],
                 matcher: Matcher | None = None) -> DimensionScores:
    """Score realized values against the spec's dimensions (spec.flat).

    r_i is presence: 1 when the output realizes dimension i at all.
    f_i is the matcher's verdict on the realized value (0 when absent);
    the default matcher demands exact equality with the intended value.
    Keys match ids case-insensitively. A key not present in the spec,
    and two keys equal after case folding, are errors, not silently
    resolved.
    """
    flat = spec.flat
    known = {d.id for d in flat}
    for key in realized_values:
        if key.lower() not in known:
            raise BadConfig(f"unknown dimension: {key!r}")
    lowered: dict[str, ValueRef] = {}
    for key, value in realized_values.items():
        low = key.lower()
        if low in lowered:
            first = next(k for k in realized_values if k.lower() == low)
            raise BadConfig(f"realized keys {first!r} and {key!r} both "
                            f"name dimension {low!r}")
        lowered[low] = value
    r, f = [], []
    for dim in flat:
        got = lowered.get(dim.id)
        if got is None:
            r.append(0.0)
            f.append(0.0)
            continue
        r.append(1.0)
        if matcher is not None:
            fv = float(matcher(dim, got))
            if not 0.0 <= fv <= 1.0:
                raise BadConfig(
                    f"matcher returned {fv} for {dim.id}, outside [0, 1]")
        elif dim.intended_value is None:
            raise BadConfig(
                f"dimension {dim.id!r} has no intended value; "
                "supply a matcher to score it")
        else:
            fv = exact_match(dim.intended_value, got)
        f.append(fv)
    return DimensionScores(tuple(d.id for d in flat), tuple(r), tuple(f))


def build_bundle(weights, scores: DimensionScores,
                 mask: EncodingMask | None = None) -> MetricBundle:
    """Assemble the full bundle; d_drift is literally 1 - f_icmw."""
    s, fi = aggregate(weights, scores)
    ga = synthesize_ga(s)
    return MetricBundle(
        s_icmw=s,
        f_icmw=fi,
        d_drift=1.0 - fi,
        ga=ga,
        split_zone=detect_split_zone(ga, fi),
        l_enc=None if mask is None else encoding_loss(weights, mask),
    )


def bundle_for_output(spec: IntentSpec,
                      realized_values: Mapping[str, ValueRef],
                      mask: EncodingMask | None = None,
                      matcher: Matcher | None = None,
                      ) -> tuple[DimensionScores, MetricBundle]:
    """Score then aggregate in one call; returns both layers."""
    scores = score_output(spec, realized_values, matcher)
    return scores, build_bundle([d.weight for d in spec.flat], scores, mask)
