import json
import logging
import math
import random
import re

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from ist.audit import AuditRecord
from ist.errors import (
    BadConfig,
    SchemaError,
    SpecSyntaxError,
    ValidationError,
)
from ist.jsonio import dumps_canonical
from ist.model import Carrier, Dimension, EncodingMask, IntentSpec, ValueRef
from ist.spec_io import (
    OutputRecord,
    compute_mask,
    parse_carrier,
    parse_intent_spec,
    parse_output_document,
    read_records,
    record_from_obj,
    record_to_line,
    record_to_obj,
    serialize_carrier,
    serialize_intent_spec,
    write_records,
)
from ist.tiil import PrivacyVerdict

from conftest import random_spec


def minimal_spec_json(**overrides):
    doc = {
        "format_version": "1",
        "task_id": "t1",
        "task_type": "test",
        "dimensions": [
            {"id": "what", "weight": 0.4,
             "intended_value": {"kind": "token", "value": "a"}},
            {"id": "who", "weight": 0.3,
             "intended_value": {"kind": "token", "value": "b"}},
            {"id": "how_much", "weight": 0.3,
             "intended_value": {"kind": "token", "value": "c"}},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


# --- canonical emitter ------------------------------------------------------

def test_canonical_floats():
    assert dumps_canonical(1.0) == "1"
    assert dumps_canonical(0.25) == "0.25"
    assert dumps_canonical(0.1) == "0.10000000000000001"


def test_canonical_rejects_nan():
    with pytest.raises(ValueError):
        dumps_canonical(float("nan"))
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("inf")})


def test_canonical_rejects_numpy_scalars():
    # a numpy scalar in a record means a type leaked from a kernel; the
    # error names the module so the leak is not mistaken for a builtin
    for value in (np.bool_(True), np.float64(0.5), np.int64(3)):
        with pytest.raises(TypeError, match=r"^cannot serialize numpy\."):
            dumps_canonical({"x": [value]})
    with pytest.raises(TypeError, match="cannot serialize builtins.set"):
        dumps_canonical({1, 2})


def test_canonical_rejects_a_record():
    # a record is a named tuple, but only an exact list or tuple is an
    # array: a record is serialized by its own *_to_obj, never as a bare
    # array of its fields
    audit = AuditRecord("t1", "2026-08-15T00:00:00Z", ("what",), ("who",), (), ("what",),
                        ("what",), 0.5, 1.0, 0.5, 0.5, 5, True, "unlabeled")
    verdict = PrivacyVerdict("who", 0.0, 0.5, 0.5, "private")
    for record, where in ((ValueRef.token("v1"), "ist.model.ValueRef"),
                          (audit, "ist.audit.AuditRecord"),
                          (verdict, "ist.tiil.PrivacyVerdict")):
        with pytest.raises(TypeError, match=f"^cannot serialize {re.escape(where)}$"):
            dumps_canonical({"x": [record]})
    assert dumps_canonical(([1, (2,)], ())) == "[[1,[2]],[]]"


STRINGS = {
    "empty": "",
    "quote": 'say "hi"',
    "backslash": "back\\slash /",
    "controls": "".join(chr(c) for c in range(0x20)) + "\x7f",
    "line-separators": "line\u2028sep\u2029para",
    "non-ascii": "caf\u00e9 \u4e2d\u6587 \u0416",
    "astral": "astral \U0001F600 \U00010348",
    "lone-surrogate": "lone \ud800 surrogate \udfff",
}


@pytest.mark.parametrize("name", list(STRINGS))
def test_canonical_strings_match_json_dumps(name):
    s = STRINGS[name]
    want = json.dumps(s, ensure_ascii=False)
    assert dumps_canonical(s) == want
    assert dumps_canonical([s]) == f"[{want}]"
    assert dumps_canonical({s: s}) == f"{{{want}:{want}}}"


def test_parse_rejects_nan_tokens():
    with pytest.raises(SchemaError):
        parse_intent_spec('{"format_version": NaN}')


def test_canonical_is_deterministic():
    spec = random_spec(random.Random(3))
    assert serialize_intent_spec(spec) == serialize_intent_spec(spec)


# --- specs ------------------------------------------------------------------

def test_round_trip_identity_bulk():
    rng = random.Random(12345)
    for _ in range(300):
        spec = random_spec(rng)
        blob = serialize_intent_spec(spec)
        back = parse_intent_spec(blob)
        assert back == spec
        assert serialize_intent_spec(back) == blob


def test_empty_file_is_syntax_error():
    with pytest.raises(SpecSyntaxError):
        parse_intent_spec(b"")


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as ei:
        parse_intent_spec('{"format_version": "1",}')
    assert ei.value.line == 1
    assert ei.value.col > 1


def test_negative_weight_is_schema_error():
    blob = minimal_spec_json()
    blob = blob.replace('"weight": 0.4', '"weight": -0.1')
    with pytest.raises(SchemaError) as ei:
        parse_intent_spec(blob)
    assert "dimensions[0].weight" in ei.value.path


def test_unknown_field_strict_vs_lenient(caplog):
    doc = json.loads(minimal_spec_json())
    doc["dimensions"][0]["surprise"] = 1
    blob = json.dumps(doc)
    with pytest.raises(SchemaError):
        parse_intent_spec(blob)
    with caplog.at_level(logging.WARNING, logger="ist.spec_io"):
        spec = parse_intent_spec(blob, lenient=True)
    assert spec.task_id == "t1"
    assert any("surprise" in r.message for r in caplog.records)


def test_unsupported_version():
    with pytest.raises(SchemaError):
        parse_intent_spec(minimal_spec_json(format_version="2"))


def test_weight_renormalization_band():
    # off by 5e-7: renormalized, then a fixpoint under reserialization
    doc = json.loads(minimal_spec_json())
    doc["dimensions"][0]["weight"] = 0.4 - 5e-7
    spec = parse_intent_spec(json.dumps(doc))
    total = sum(d.weight for d in spec.dimensions)
    assert abs(total - 1.0) <= 1e-12
    blob = serialize_intent_spec(spec)
    again = parse_intent_spec(blob)
    assert again == spec
    assert serialize_intent_spec(again) == blob


def test_weight_sum_rejected_beyond_band():
    doc = json.loads(minimal_spec_json())
    doc["dimensions"][0]["weight"] = 0.5
    with pytest.raises(ValidationError):
        parse_intent_spec(json.dumps(doc))


def test_nested_children_preserved():
    spec = IntentSpec(
        task_id="n", task_type="test",
        dimensions=(
            Dimension(id="p", weight=0.5, children=(
                Dimension(id="c1", weight=0.5,
                          intended_value=ValueRef.token("x")),
                Dimension(id="c2", weight=0.5,
                          intended_value=ValueRef.text("free text")),
            )),
            Dimension(id="q", weight=0.5,
                      intended_value=ValueRef.token("y"),
                      privacy_hint="private"),
        ))
    back = parse_intent_spec(serialize_intent_spec(spec))
    assert back == spec
    assert back.dimensions[0].children[1].intended_value.kind == "text"


# --- carriers and masks -----------------------------------------------------

def test_carrier_round_trip():
    c = Carrier(task_id="t1", encoded_dimensions=frozenset({"what", "who"}),
                text="do the thing")
    back = parse_carrier(serialize_carrier(c))
    assert back == c


def test_compute_mask_example():
    spec = parse_intent_spec(minimal_spec_json())
    carrier = Carrier(task_id="t1",
                      encoded_dimensions=frozenset({"what", "how_much"}))
    mask = compute_mask(spec, carrier)
    assert mask.dims == ("what", "who", "how_much")
    assert mask.bits == (1, 0, 1)


def test_compute_mask_all_and_none():
    spec = parse_intent_spec(minimal_spec_json())
    full = compute_mask(spec, Carrier("t1", frozenset({"what", "who", "how_much"})))
    assert full.bits == (1, 1, 1)
    empty = compute_mask(spec, Carrier("t1", frozenset()))
    assert empty.bits == (0, 0, 0)


def test_compute_mask_unknown_dimension():
    spec = parse_intent_spec(minimal_spec_json())
    with pytest.raises(BadConfig, match=r"^unknown dimension: 'nope'$"):
        compute_mask(spec, Carrier("t1", frozenset({"nope"})))


def test_compute_mask_rejects_another_tasks_carrier():
    spec = parse_intent_spec(minimal_spec_json())
    with pytest.raises(BadConfig, match="^carrier task 'other' does not "
                                        "match spec task 't1'$"):
        compute_mask(spec, Carrier("other", frozenset({"what"})))


# --- records ----------------------------------------------------------------

def make_record(i=0):
    mask = EncodingMask(("what", "who"), (1, i % 2))
    return OutputRecord(
        task_id="t1", condition="FULL" if i % 2 else "ABL_who",
        model_tag="m1", mask=mask,
        realized_values={"what": ValueRef.token("v1"),
                         "who": ValueRef.token(f"v{i}")},
        ga=5, s_icmw=1.0, f_icmw=0.5 + 0.1 * (i % 5), text=None)


def test_record_roundtrip_file(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [make_record(i) for i in range(3)]
    assert write_records(path, records) == 3
    back = list(read_records(path))
    assert back == records


def test_record_missing_field_names_line(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = [record_to_line(make_record(0))]
    bad = json.loads(record_to_line(make_record(1)))
    del bad["ga"]
    lines.append(json.dumps(bad))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as ei:
        list(read_records(path))
    assert ei.value.line == 2
    assert "ga" in ei.value.reason


def test_record_error_callback_continues(tmp_path):
    path = tmp_path / "records.jsonl"
    good = record_to_line(make_record(0))
    path.write_text(good + "\n{broken\n" + good + "\n")
    seen = []
    out = list(read_records(path, on_error=seen.append))
    assert len(out) == 2
    assert len(seen) == 1 and seen[0].line == 2


def test_record_empty_file(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("")
    assert list(read_records(path)) == []


def test_record_rejects_out_of_range():
    obj = json.loads(record_to_line(make_record(0)))
    obj["f_icmw"] = 1.5
    with pytest.raises(SchemaError):
        record_from_obj(obj)
    obj = json.loads(record_to_line(make_record(0)))
    obj["ga"] = 0
    with pytest.raises(SchemaError):
        record_from_obj(obj)


def test_record_mask_bit_must_be_binary():
    obj = json.loads(record_to_line(make_record(0)))
    obj["mask"][0]["m"] = 2
    with pytest.raises(SchemaError):
        record_from_obj(obj)


def reference_bytes(records) -> bytes:
    return "".join(dumps_canonical(record_to_obj(r)) + "\n"
                   for r in records).encode("utf-8")


def test_write_records_twice_with_new_values(tmp_path):
    # same dimension ids, other values: nothing carries over between writes
    for first in (0, 3):
        records = [make_record(i) for i in range(first, first + 3)]
        path = tmp_path / f"records{first}.jsonl"
        write_records(path, records)
        assert path.read_bytes() == reference_bytes(records)
        assert [record_to_line(r) for r in records] == \
            [dumps_canonical(record_to_obj(r)) for r in records]


@pytest.mark.parametrize("field", ["s_icmw", "f_icmw"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_write_records_rejects_non_finite_scores(tmp_path, field, bad):
    rec = make_record(0)._replace(**{field: bad})
    with pytest.raises(ValueError):
        record_to_line(rec)
    with pytest.raises(ValueError):
        write_records(tmp_path / "records.jsonl", [rec])


if HAVE_HYPOTHESIS:

    # the characters of STRINGS but its lone surrogates, which a UTF-8 file
    # cannot hold, and any other character
    TEXT = st.text(st.one_of(
        st.sampled_from(sorted(set("".join(STRINGS.values())) - {"\ud800", "\udfff"})),
        st.characters(codec="utf-8")), max_size=6)
    SCORES = st.floats(allow_nan=False, allow_infinity=False)

    @st.composite
    def record_lists(draw, dims, shared):
        records = []
        for _ in range(draw(st.integers(0, 6))):
            bits = draw(st.lists(st.integers(0, 1), min_size=len(dims),
                                 max_size=len(dims)))
            # each record makes its own mask object; equal masks recur
            mask = EncodingMask(tuple(dims), tuple(bits))
            values = {}
            for d in dims:
                ref = draw(st.sampled_from(shared))
                if draw(st.booleans()):
                    ref = ValueRef(ref.kind, ref.value)  # equal, not the same
                values[d] = ref
            records.append(OutputRecord(
                task_id=draw(TEXT), condition=draw(TEXT),
                model_tag=draw(TEXT), mask=mask, realized_values=values,
                ga=draw(st.one_of(st.integers(1, 5), st.integers(1, 5).map(np.int64))),
                s_icmw=draw(st.one_of(SCORES, SCORES.map(np.float64))),
                f_icmw=draw(st.one_of(SCORES, SCORES.map(np.float64))),
                text=draw(st.none() | TEXT)))
        return records

    @st.composite
    def two_writes(draw):
        dims = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
        refs = st.builds(ValueRef, st.sampled_from(["token", "text"]), TEXT)
        return [draw(record_lists(dims, draw(st.lists(refs, min_size=1, max_size=3))))
                for _ in range(2)]

    @given(two_writes())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_records_matches_reference_lines(tmp_path, writes):
        path = tmp_path / "records.jsonl"
        for records in writes:
            assert write_records(path, records) == len(records)
            assert path.read_bytes() == reference_bytes(records)


# --- other documents --------------------------------------------------------

def test_output_document_parse():
    doc = parse_output_document(json.dumps({
        "task_id": "t1",
        "realized_values": {"what": {"kind": "token", "value": "a"}},
        "text": "hello",
    }))
    assert doc.task_id == "t1"
    assert doc.realized_values["what"] == ValueRef.token("a")
    assert doc.text == "hello"
