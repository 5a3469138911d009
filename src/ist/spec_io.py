"""Parsing and canonical serialization for specs, carriers, and records.

File formats (all UTF-8, NaN/Infinity forbidden):

* intent spec, format_version "1"::

    {"format_version": "1", "task_id": ..., "task_type": ...,
     "dimensions": [{"id", "weight", "intended_value": {"kind", "value"},
                     "privacy_hint"?, "children"?: [...]}]}

* carrier::

    {"task_id": ..., "text"?: ..., "encoded_dimensions": [id, ...]}

* output records: JSONL, one object per line, fields exactly
  task_id, condition, model_tag, mask, realized_values, ga, s_icmw,
  f_icmw, text.

Serialization is canonical (jsonio.dumps_canonical): fixed key order,
floats rendered with 17 significant digits, optional fields omitted when
absent. Equal values always produce byte-identical output. A record line
is ``dumps_canonical(record_to_obj(r))``; ``ist ablate`` joins the same
bytes from fragments (experiments.write_ablation).

Documents decode through jsonio.loads_strict. Parsing is strict by
default; ``lenient=True`` downgrades unknown fields
to warnings on the ``ist.spec_io`` logger. compute_mask reads the spec's
one flattened view, ``IntentSpec.flat``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterable, Iterator

from .errors import BadConfig, SchemaError, SpecSyntaxError
from .jsonio import (
    TOP_WEIGHT_TOL,
    _check_keys,
    _get_int,
    _get_number,
    _get_str,
    _get_str_list,
    _require_obj,
    dumps_canonical,
    loads_strict,
    weight_sum,
)
from .model import (
    Carrier,
    Dimension,
    EncodingMask,
    IntentSpec,
    ValueRef,
)

FORMAT_VERSION = "1"

# Renormalize top-level weights only when they are off by more than this;
# below it they are already a float-level fixpoint and must not be touched,
# or serialize/parse round trips would drift by an ulp.
_RENORM_SKIP = 1e-9


# ---------------------------------------------------------------------------
# intent specs
# ---------------------------------------------------------------------------

def _parse_value_ref(value, path: str, lenient: bool) -> ValueRef:
    obj = _require_obj(value, path)
    _check_keys(obj, path, ("kind", "value"), (), lenient)
    kind = _get_str(obj, "kind", path)
    if kind not in ("token", "text"):
        raise SchemaError(f"{path}.kind", f"expected 'token' or 'text', got {kind!r}")
    return ValueRef(kind, _get_str(obj, "value", path))


def _parse_dimension(value, path: str, lenient: bool) -> Dimension:
    obj = _require_obj(value, path)
    _check_keys(obj, path, ("id", "weight"),
                ("intended_value", "privacy_hint", "children"), lenient)
    dim_id = _get_str(obj, "id", path)
    weight = _get_number(obj, "weight", path, 0)
    intended = None
    if obj.get("intended_value") is not None:
        intended = _parse_value_ref(obj["intended_value"],
                                    f"{path}.intended_value", lenient)
    hint = None
    if obj.get("privacy_hint") is not None:
        hint = _get_str(obj, "privacy_hint", path)
        if hint not in ("public", "private", "unknown"):
            raise SchemaError(f"{path}.privacy_hint", f"bad value {hint!r}")
    children = ()
    if obj.get("children"):
        raw = obj["children"]
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.children", "expected array")
        children = tuple(
            _parse_dimension(c, f"{path}.children[{i}]", lenient)
            for i, c in enumerate(raw))
    return Dimension(dim_id, weight, intended, hint, children)


def parse_intent_spec(data: bytes | str, *, lenient: bool = False) -> IntentSpec:
    """Parse an intent spec document; IntentSpec validates it.

    Top-level weights off 1 by at most 1e-6 are renormalized silently;
    larger deviations are validation errors.
    """
    doc = loads_strict(data)
    return spec_from_obj(doc, lenient=lenient)


def spec_from_obj(doc, *, lenient: bool = False) -> IntentSpec:
    obj = _require_obj(doc, "$")
    _check_keys(obj, "$", ("format_version", "task_id", "task_type", "dimensions"),
                (), lenient)
    version = _get_str(obj, "format_version", "$")
    if version != FORMAT_VERSION:
        raise SchemaError("$.format_version", f"unsupported version {version!r}")
    raw_dims = obj["dimensions"]
    if not isinstance(raw_dims, list):
        raise SchemaError("$.dimensions", "expected array")
    dims = [
        _parse_dimension(d, f"$.dimensions[{i}]", lenient)
        for i, d in enumerate(raw_dims)
    ]
    dims = _renormalize_top(dims)
    return IntentSpec(
        task_id=_get_str(obj, "task_id", "$"),
        task_type=_get_str(obj, "task_type", "$"),
        dimensions=tuple(dims),
    )


def _renormalize_top(dims: list[Dimension]) -> list[Dimension]:
    total = weight_sum(d.weight for d in dims)
    if not dims or total <= 0:
        return dims  # validate_spec reports the real problem
    if abs(total - 1.0) <= _RENORM_SKIP or abs(total - 1.0) > TOP_WEIGHT_TOL:
        return dims
    return [d._replace(weight=d.weight / total) for d in dims]


def _value_ref_obj(v: ValueRef) -> dict:
    return {"kind": v.kind, "value": v.value}


def _dimension_obj(dim: Dimension) -> dict:
    out: dict = {"id": dim.id, "weight": float(dim.weight)}
    if dim.intended_value is not None:
        out["intended_value"] = _value_ref_obj(dim.intended_value)
    if dim.privacy_hint is not None:
        out["privacy_hint"] = dim.privacy_hint
    if dim.children:
        out["children"] = [_dimension_obj(c) for c in dim.children]
    return out


def spec_to_obj(spec: IntentSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "task_id": spec.task_id,
        "task_type": spec.task_type,
        "dimensions": [_dimension_obj(d) for d in spec.dimensions],
    }


def serialize_intent_spec(spec: IntentSpec) -> bytes:
    """Canonical bytes; parse(serialize(spec)) reproduces spec exactly."""
    return (dumps_canonical(spec_to_obj(spec)) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

def parse_carrier(data: bytes | str, *, lenient: bool = False) -> Carrier:
    doc = loads_strict(data)
    return carrier_from_obj(doc, lenient=lenient)


def carrier_from_obj(doc, *, lenient: bool = False) -> Carrier:
    obj = _require_obj(doc, "$")
    _check_keys(obj, "$", ("task_id", "encoded_dimensions"), ("text",), lenient)
    ids = _get_str_list(obj, "encoded_dimensions", "$")
    text = None
    if obj.get("text") is not None:
        text = _get_str(obj, "text", "$")
    return Carrier(task_id=_get_str(obj, "task_id", "$"),
                   encoded_dimensions=frozenset(ids), text=text)


def carrier_to_obj(carrier: Carrier) -> dict:
    out: dict = {"task_id": carrier.task_id}
    if carrier.text is not None:
        out["text"] = carrier.text
    out["encoded_dimensions"] = sorted(carrier.encoded_dimensions)
    return out


def serialize_carrier(carrier: Carrier) -> bytes:
    return (dumps_canonical(carrier_to_obj(carrier)) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def compute_mask(spec: IntentSpec, carrier: Carrier) -> EncodingMask:
    """Bit per flattened dimension (spec.flat): 1 exactly when the carrier
    encodes it. The carrier must be for the spec's task."""
    if carrier.task_id != spec.task_id:
        raise BadConfig(f"carrier task {carrier.task_id!r} does not match "
                        f"spec task {spec.task_id!r}")
    ids = [f.id for f in spec.flat]
    known = set(ids)
    for dim_id in carrier.encoded_dimensions:
        if dim_id not in known:
            raise BadConfig(f"unknown dimension: {dim_id!r}")
    return EncodingMask(tuple(ids),
                        tuple(1 if i in carrier.encoded_dimensions else 0
                              for i in ids))


def mask_to_obj(mask: EncodingMask) -> list:
    return [{"dimension": d, "m": b} for d, b in zip(mask.dims, mask.bits)]


def mask_from_obj(value, path: str, lenient: bool = False) -> EncodingMask:
    if not isinstance(value, list):
        raise SchemaError(path, "expected array")
    dims, bits = [], []
    for i, item in enumerate(value):
        obj = _require_obj(item, f"{path}[{i}]")
        _check_keys(obj, f"{path}[{i}]", ("dimension", "m"), (), lenient)
        dims.append(_get_str(obj, "dimension", f"{path}[{i}]"))
        bits.append(_get_int(obj, "m", f"{path}[{i}]", 0, 1))
    return EncodingMask(tuple(dims), tuple(bits))


# ---------------------------------------------------------------------------
# output records (JSONL)
# ---------------------------------------------------------------------------

class OutputRecord(namedtuple("OutputRecord", "task_id condition model_tag mask "
                              "realized_values ga s_icmw f_icmw text", defaults=(None,))):
    """One scored model output under a named condition."""

    __slots__ = ()


def record_to_obj(rec: OutputRecord) -> dict:
    out: dict = {
        "task_id": rec.task_id,
        "condition": rec.condition,
        "model_tag": rec.model_tag,
        "mask": mask_to_obj(rec.mask),
        "realized_values": {k: _value_ref_obj(v)
                            for k, v in rec.realized_values.items()},
        "ga": int(rec.ga),
        "s_icmw": float(rec.s_icmw),
        "f_icmw": float(rec.f_icmw),
    }
    if rec.text is not None:
        out["text"] = rec.text
    return out


def _realized_and_text(obj: dict, lenient: bool) -> tuple[dict[str, ValueRef], str | None]:
    """The realized_values and optional text of an output record or
    document."""
    raw = _require_obj(obj["realized_values"], "$.realized_values")
    realized = {k: _parse_value_ref(v, f"$.realized_values.{k}", lenient)
                for k, v in raw.items()}
    return realized, _get_str(obj, "text", "$") if obj.get("text") is not None else None


def record_from_obj(doc, *, lenient: bool = False) -> OutputRecord:
    obj = _require_obj(doc, "$")
    _check_keys(obj, "$",
                ("task_id", "condition", "model_tag", "mask",
                 "realized_values", "ga", "s_icmw", "f_icmw"),
                ("text",), lenient)
    ga = _get_int(obj, "ga", "$", 1, 5)
    s_icmw = _get_number(obj, "s_icmw", "$", 0, 1)
    f_icmw = _get_number(obj, "f_icmw", "$", 0, 1)
    realized, text = _realized_and_text(obj, lenient)
    return OutputRecord(
        task_id=_get_str(obj, "task_id", "$"),
        condition=_get_str(obj, "condition", "$"),
        model_tag=_get_str(obj, "model_tag", "$"),
        mask=mask_from_obj(obj["mask"], "$.mask", lenient),
        realized_values=realized,
        ga=ga,
        s_icmw=s_icmw,
        f_icmw=f_icmw,
        text=text,
    )


def record_to_line(rec: OutputRecord) -> str:
    """One record's canonical JSON line, without the newline."""
    return dumps_canonical(record_to_obj(rec))


def _write_jsonl(dest, items: Iterable, to_line: Callable[[object], str]) -> int:
    """Write one to_line(item) per line to a path or an open text stream;
    returns the number written."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            return _write_jsonl(fh, items, to_line)
    n = 0
    for item in items:
        dest.write(to_line(item) + "\n")
        n += 1
    return n


def _read_jsonl(path, from_obj: Callable[[object], object], *,
                on_error: Callable[[SchemaError], None] | None = None) -> Iterator:
    """Stream from_obj(doc) per nonblank line; errors as read_records says."""
    with open(path, "rb") as fh:
        # split as text mode would (\n, \r\n or \r), but decode each line
        # in loads_strict so that bytes that are not UTF-8 name their line
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                try:
                    item = from_obj(loads_strict(line))
                except SpecSyntaxError as e:
                    raise SchemaError("$", f"invalid JSON: {e.msg}", line=lineno) from None
                except SchemaError as e:
                    raise SchemaError(e.path, e.reason, line=lineno) from None
            except SchemaError as err:
                if on_error is None:
                    raise
                on_error(err)
                continue
            yield item


def write_records(path, records: Iterable[OutputRecord]) -> int:
    """Write records as JSONL to a path or an open text stream; returns the
    number written."""
    return _write_jsonl(path, records, record_to_line)


def read_records(path, *, lenient: bool = False,
                 on_error: Callable[[SchemaError], None] | None = None,
                 ) -> Iterator[OutputRecord]:
    """Stream records from a JSONL file (constant memory in record count).

    Malformed lines raise a SchemaError naming the line number. With
    ``on_error`` given, errors are reported to the callback and reading
    continues.
    """
    yield from _read_jsonl(path, lambda doc: record_from_obj(doc, lenient=lenient),
                           on_error=on_error)


# ---------------------------------------------------------------------------
# output documents (realized values for one task)
# ---------------------------------------------------------------------------

OutputDocument = namedtuple("OutputDocument", "task_id realized_values text",
                            defaults=(None,))


def parse_output_document(data: bytes | str, *, lenient: bool = False) -> OutputDocument:
    doc = loads_strict(data)
    obj = _require_obj(doc, "$")
    _check_keys(obj, "$", ("task_id", "realized_values"), ("text",), lenient)
    realized, text = _realized_and_text(obj, lenient)
    return OutputDocument(task_id=_get_str(obj, "task_id", "$"),
                          realized_values=realized, text=text)

