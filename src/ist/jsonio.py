"""Canonical JSON, the strict reader, schema-field checks and the weight rule.

The helpers that the spec parsers (spec_io) share with the world- and
experiment-config checks (priors, experiments). It imports only ist.errors
and the standard library, so `ist tiil-check`, which checks a world config
and runs the decoder battery, loads no spec model.

* dumps_canonical: fixed key order, floats rendered with 17 significant
  digits, NaN/Infinity refused; equal values give equal bytes. Only an
  exact list or tuple is an array, so a record, a named tuple, is refused
  like any other object.
* loads_strict: the one JSON decode path.
* _require_obj, _check_keys, _get_str, _get_str_list, _get_int,
  _get_number: the field checks of every schema, raising SchemaError
  with the field's $-path. Lenient parsing logs unknown fields on the
  ``ist.spec_io`` logger. An integer or number field is read by
  _get_int or _get_number alone, with its bounds, and refused in one
  form: "must be an integer in [2, 1000000], got 1". A rule of a library
  type (a jitter's epsilon, a budget's [0, n]) stays with the type.
* TOP_WEIGHT_TOL, weight_sum, normalize_weights: the top-level weight
  rule of specs and world configs.
* checked_make: the _make of every record type that checks its fields.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring

from .errors import EmptyWeights, NegativeWeight, SchemaError, SpecSyntaxError, ZeroMass

TOP_WEIGHT_TOL = 1e-6
_FLOAT_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("NaN/Infinity are forbidden in numeric fields")
    # 17 significant digits pin down a double exactly, so parse(emit(x))
    # is the identity even when the rendering is longer than repr's.
    return format(x, ".17g")


def dumps_canonical(value) -> str:
    """Serialize to canonical JSON: dict insertion order, 17-digit floats.

    Scalars must be exact builtins. numpy scalars raise TypeError, even
    np.float64 (a float subclass), so a type leak fails where it starts.
    """
    parts: list[str] = []
    _emit(value, parts)
    return "".join(parts)


def _emit(value, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif type(value) is int:
        parts.append(str(value))
    elif type(value) is float:
        parts.append(_fmt_float(value))
    elif isinstance(value, str):
        # what json.dumps(value, ensure_ascii=False) returns, without
        # building a JSONEncoder per string
        parts.append(encode_basestring(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                parts.append(",")
            parts.append(encode_basestring(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif type(value) in (list, tuple):
        parts.append("[")
        for i, v in enumerate(value):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        kind = type(value)
        raise TypeError(f"cannot serialize {kind.__module__}.{kind.__qualname__}")


def _reject_constant(name: str):
    raise SchemaError("$", f"forbidden JSON constant {name}")


def loads_strict(data: bytes | str):
    """The one JSON decode path: json.loads that rejects bytes that are not
    UTF-8, NaN/Infinity and integer literals past Python's digit limit, as
    SpecSyntaxError (with line/column) or SchemaError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            line_start = data.rfind(b"\n", 0, e.start) + 1
            raise SpecSyntaxError(f"not UTF-8: {e.reason}",
                                  data.count(b"\n", 0, e.start) + 1,
                                  e.start - line_start + 1) from None
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise SpecSyntaxError(e.msg, e.lineno, e.colno) from None
    except ValueError:  # the only other one: the int digit limit
        raise SchemaError("$", "integer literal longer than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise SchemaError("$", "arrays or objects nested too deep") from None


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

def _require_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple,
                lenient: bool) -> None:
    # tuples, not sets: the first missing field named must not depend on
    # the hash seed
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            if lenient:
                import logging  # only lenient parsing logs
                logging.getLogger("ist.spec_io").warning(
                    "%s: ignoring unknown field %r", path, key)
            else:
                raise SchemaError(path, f"unknown field {key!r}")


def _get_str(obj: dict, key: str, path: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}", "expected string")
    return v


def _get_str_list(obj: dict, key: str, path: str) -> tuple[str, ...]:
    v = obj[key]
    if not isinstance(v, list):
        raise SchemaError(f"{path}.{key}", "expected array")
    for i, item in enumerate(v):
        if not isinstance(item, str):
            raise SchemaError(f"{path}.{key}[{i}]", "expected string")
    return tuple(v)


def _get_int(obj: dict, key: str, path: str, lo=-math.inf, hi=math.inf) -> int:
    """obj[key] if it is an int, not a bool, in [lo, hi]."""
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
        raise _scalar_error(path, key, "an integer", v, lo, hi)
    return v


def _get_number(obj: dict, key: str, path: str, lo=-math.inf, hi=math.inf) -> float:
    """float(obj[key]) if it is an int or float, not a bool, finite as a
    float and in [lo, hi]."""
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not -_FLOAT_MAX <= v <= _FLOAT_MAX or not lo <= v <= hi:
        raise _scalar_error(path, key, "a finite number", v, lo, hi)
    return float(v)


def _scalar_error(path: str, key: str, kind: str, v, lo, hi) -> SchemaError:
    # an integer past 20 digits is not echoed: a 400-digit K prints no digits
    bounds = f" in [{lo}, {hi}]" if hi < math.inf else f" >= {lo}" if lo > -math.inf else ""
    got = "an integer of more than 20 digits" if type(v) is int and abs(v) >= 10 ** 20 \
        else repr(v)
    return SchemaError(f"{path}.{key}", f"must be {kind}{bounds}, got {got}")


# ---------------------------------------------------------------------------
# the top-level weight rule
# ---------------------------------------------------------------------------

def weight_sum(weights) -> float:
    """math.fsum of finite weights, or inf where a partial sum passes the
    float range, so that an overflow reads as a sum that is not 1. Only
    weights outside [0, 1], which are refused anyway, can overflow it."""
    try:
        return math.fsum(weights)
    except OverflowError:
        return math.inf


def normalize_weights(raw) -> list[float]:
    """Scale a nonnegative weight list so it sums to 1.

    Raises EmptyWeights, NegativeWeight, or ZeroMass on degenerate input.
    """
    weights = [float(w) for w in raw]
    if not weights:
        raise EmptyWeights("cannot normalize an empty weight list")
    for i, w in enumerate(weights):
        if w < 0:
            raise NegativeWeight(i, w)
    total = math.fsum(weights)
    if total == 0.0:
        raise ZeroMass("all weights are zero")
    return [w / total for w in weights]


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------

def checked_make(cls, fields):
    """_make, as a classmethod, of a record type that checks or normalizes
    its fields in __new__: namedtuple's own _make, which _replace calls,
    skips __new__, so _replace would skip the checks."""
    return cls(*fields)
