import json
import random
import re
from functools import reduce
from operator import add

import pytest

import ist.audit
import ist.metrics
import ist.model
import ist.spec_io
from ist.audit import (
    Aggregate,
    aggregate_records,
    audit_record_from_obj,
    audit_record_to_obj,
    build_audit_record,
    now_rfc3339,
    read_audit_records,
    render_report,
    resolve_privacy_labels,
    write_audit_records,
)
from ist.errors import BadConfig, SchemaError
from ist.metrics import bundle_for_output, score_output
from ist.model import Carrier, Dimension, IntentSpec, ValueRef, flatten
from ist.priors import check_world_config
from ist.spec_io import compute_mask
from ist.tiil import classify_privacy
from ist.worlds import build_world

from reference import to_intent_spec

TS = "2026-08-15T00:00:00Z"


def five_dim_spec(w_what=0.3):
    rest = (1.0 - w_what) / 4
    dims = [("what", w_what, "public")] + [
        (d, rest, "private") for d in ("why", "who", "how_to", "how_feel")]
    return IntentSpec(
        task_id="t1", task_type="report",
        dimensions=tuple(
            Dimension(id=d, weight=w, intended_value=ValueRef.token(f"real-{d}"),
                      privacy_hint=h)
            for d, w, h in dims))


def carrier_for(spec, encoded):
    return Carrier(task_id=spec.task_id, text=None,
                   encoded_dimensions=frozenset(encoded))


def generic_fill(spec, encoded):
    # encoded dims copied faithfully, the rest filled with boilerplate
    return {d.id: (d.intended_value if d.id in encoded
                   else ValueRef.token("generic"))
            for d in spec.dimensions}


def test_fully_encoded_perfect_output():
    spec = five_dim_spec()
    all_ids = [d.id for d in spec.dimensions]
    rec = build_audit_record(
        spec, carrier_for(spec, all_ids), generic_fill(spec, set(all_ids)),
        timestamp=TS)
    assert rec.absent_dims == ()
    assert rec.private_at_risk == ()
    assert rec.d_drift == 0.0
    assert rec.split_zone is False
    assert rec.l_enc == 0.0
    assert rec.timestamp == TS


def test_structural_fidelity_split_scenario():
    # one public dim encoded, four private dims generically filled
    spec = five_dim_spec(w_what=0.3)
    rec = build_audit_record(
        spec, carrier_for(spec, ["what"]), generic_fill(spec, {"what"}),
        timestamp=TS)
    assert rec.encoded_dims == ("what",)
    assert set(rec.absent_dims) == {"why", "who", "how_to", "how_feel"}
    assert set(rec.private_at_risk) == {"why", "who", "how_to", "how_feel"}
    assert rec.privacy_source == "hint"
    assert rec.ga == 5 and rec.s_icmw == 1.0
    assert abs(rec.f_icmw - 0.3) < 1e-12
    assert rec.split_zone is True
    assert rec.d_drift == 1.0 - rec.f_icmw
    assert rec.structurally_recovered == tuple(d.id for d in spec.dimensions)
    assert rec.fidelity_preserved == ("what",)


def test_split_zone_gated_by_weight():
    spec = five_dim_spec(w_what=0.85)
    rec = build_audit_record(
        spec, carrier_for(spec, ["what"]), generic_fill(spec, {"what"}),
        timestamp=TS)
    assert abs(rec.f_icmw - 0.85) < 1e-12
    assert rec.split_zone is False  # f_icmw above the 0.8 threshold


def test_partition_invariant_holds():
    spec = five_dim_spec()
    for encoded in (["what"], ["what", "why"], []):
        rec = build_audit_record(
            spec, carrier_for(spec, encoded), generic_fill(spec, set(encoded)),
            timestamp=TS)
        all_ids = {d.id for d in spec.dimensions}
        assert set(rec.encoded_dims) | set(rec.absent_dims) == all_ids
        assert set(rec.encoded_dims) & set(rec.absent_dims) == set()
        assert set(rec.private_at_risk) <= set(rec.absent_dims)


def test_unlabeled_never_flags_risk():
    spec = IntentSpec(
        task_id="t1", task_type="report",
        dimensions=tuple(
            Dimension(id=d, weight=0.5, intended_value=ValueRef.token("x"))
            for d in ("a", "b")))
    rec = build_audit_record(
        spec, carrier_for(spec, ["a"]), generic_fill(spec, {"a"}),
        timestamp=TS)
    assert rec.privacy_source == "unlabeled"
    assert rec.private_at_risk == ()


def test_oracle_labels_from_world(demo_world_config):
    world = build_world(demo_world_config)
    task = world.tasks[0]
    spec = to_intent_spec(task)
    labels, source = resolve_privacy_labels(spec, world=world)
    assert source == "oracle"
    assert labels["what"] == "public"
    assert labels["why"] == "private"
    carrier = carrier_for(spec, ["what", "when", "where", "how_much"])
    rec = build_audit_record(
        spec, carrier, generic_fill(spec, set(carrier.encoded_dimensions)),
        world=world, timestamp=TS)
    assert rec.privacy_source == "oracle"
    assert set(rec.private_at_risk) == {"why", "who", "how_to", "how_feel"}


def test_oracle_labels_from_checked_rows_equal_the_built_world(demo_world_config):
    # the checked world config labels alike to a built world, and to the
    # verdict of classify_privacy
    world = build_world(demo_world_config)
    checked = check_world_config(demo_world_config)
    spec = to_intent_spec(world.tasks[0])
    for theta in (None, 0.5, 0.99):
        got = resolve_privacy_labels(spec, checked, theta)
        assert got == resolve_privacy_labels(spec, world, theta)
        assert got[0] == {d.id: classify_privacy(world, spec.task_id, d.id,
                                                 theta or 0.9).label
                          for d in spec.dimensions}


def test_oracle_label_errors_keep_their_order():
    # theta, then the task, then each dimension: unknown, then too large
    config = {"seed": 1, "tasks": [{"task_id": "t", "dims": [
        {"id": "big", "weight": 0.5, "K": 1001, "lambda": 0.5},
        {"id": "d", "weight": 0.5, "K": 4, "lambda": 0.5}]}]}
    spec = IntentSpec(task_id="t", task_type="report", dimensions=tuple(
        Dimension(id=d, weight=0.5, intended_value=ValueRef.token("v0"))
        for d in ("big", "other")))
    stranger = IntentSpec(task_id="nope", task_type="report",
                          dimensions=spec.dimensions)
    narrow = IntentSpec(task_id="t", task_type="report", dimensions=tuple(
        Dimension(id=d, weight=0.5, intended_value=ValueRef.token("v0"))
        for d in ("other", "big")))
    for world in (build_world(config), check_world_config(config)):
        with pytest.raises(BadConfig, match=r"^theta_pub = 1\.5, outside \(0, 1\]$"):
            resolve_privacy_labels(stranger, world, 1.5)
        with pytest.raises(BadConfig, match=r"^unknown task: 'nope'$"):
            resolve_privacy_labels(stranger, world)
        with pytest.raises(BadConfig, match=r"^unknown variable: 'other'$"):
            resolve_privacy_labels(narrow, world)
        with pytest.raises(BadConfig, match=r"^enumeration would need 1002001 cells "
                                            r"\(cap 1000000\)$"):
            resolve_privacy_labels(spec, world)


def test_oracle_lookup_errors_keep_their_messages():
    # one (K, lambda) lookup serves the audit labels and classify_privacy:
    # a task id is matched as given, a dimension id folded, and an unknown
    # one is named as the caller gave it
    config = {"seed": 1, "tasks": [{"task_id": "T", "dims": [
        {"id": "Who", "weight": 0.5, "K": 4, "lambda": 0.5},
        {"id": "what", "weight": 0.5, "K": 3, "lambda": 1.0}]}]}
    world = build_world(config)

    def spec(task_id, *ids):
        return IntentSpec(task_id=task_id, task_type="report", dimensions=tuple(
            Dimension(id=d, weight=1 / len(ids), intended_value=ValueRef.token("v0"))
            for d in ids))

    for w in (world, check_world_config(config)):
        assert resolve_privacy_labels(spec("T", "WHO", "What"), w) == (
            {"who": "private", "what": "public"}, "oracle")
        with pytest.raises(BadConfig, match=r"^unknown task: 't'$"):
            resolve_privacy_labels(spec("t", "who"), w)
        with pytest.raises(BadConfig, match=r"^unknown variable: 'where'$"):
            resolve_privacy_labels(spec("T", "Who", "Where"), w)
    assert classify_privacy(world, "T", "WHO") == classify_privacy(world, "T", "who")
    with pytest.raises(BadConfig, match=r"^unknown task: 't'$"):
        classify_privacy(world, "t", "Who")
    with pytest.raises(BadConfig, match=r"^unknown variable: 'Where'$"):
        classify_privacy(world, "T", "Where")


def test_build_audit_record_flattens_the_spec_once(monkeypatch, demo_world_config):
    calls = []

    def counting_flatten(spec):
        calls.append(spec.task_id)
        return flatten(spec)
    monkeypatch.setattr(ist.model, "flatten", counting_flatten)
    world = build_world(demo_world_config)
    oracle_spec = to_intent_spec(world.tasks[0])
    for spec, world in ((five_dim_spec(), None), (oracle_spec, world)):
        calls.clear()
        carrier, values = carrier_for(spec, ["what"]), generic_fill(spec, {"what"})
        mask = compute_mask(spec, carrier)
        score_output(spec, values)
        bundle_for_output(spec, values, mask)
        resolve_privacy_labels(spec, world)
        build_audit_record(spec, carrier, values, world, timestamp=TS)
        assert calls == [spec.task_id]


def test_hints_beat_world(demo_world_config):
    spec = five_dim_spec()
    labels, source = resolve_privacy_labels(
        spec, world=build_world(demo_world_config))
    assert source == "hint"
    assert labels["why"] == "private"


def test_custom_thresholds():
    spec = five_dim_spec()

    def half_matcher(dim, got):
        return 0.5 if got.value == "generic" else 1.0

    rec = build_audit_record(
        spec, carrier_for(spec, ["what"]), generic_fill(spec, {"what"}),
        r_threshold=0.5, f_threshold=0.6,
        matcher=half_matcher, timestamp=TS)
    assert rec.fidelity_preserved == ("what",)
    relaxed = build_audit_record(
        spec, carrier_for(spec, ["what"]), generic_fill(spec, {"what"}),
        r_threshold=0.5, f_threshold=0.5,
        matcher=half_matcher, timestamp=TS)
    assert relaxed.fidelity_preserved == tuple(d.id for d in spec.dimensions)


def test_inconsistent_inputs():
    spec = five_dim_spec()
    wrong_task = Carrier(task_id="other", text=None,
                         encoded_dimensions=frozenset({"what"}))
    with pytest.raises(BadConfig, match="^carrier task 'other' does not "
                                        "match spec task 't1'$"):
        build_audit_record(spec, wrong_task, generic_fill(spec, {"what"}),
                           timestamp=TS)


def test_now_rfc3339_shape():
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", now_rfc3339())


def sample_record():
    spec = five_dim_spec()
    return build_audit_record(
        spec, carrier_for(spec, ["what"]), generic_fill(spec, {"what"}),
        timestamp=TS)


def test_record_obj_field_order():
    obj = audit_record_to_obj(sample_record())
    assert list(obj.keys()) == [
        "task_id", "timestamp", "encoded_dims", "absent_dims",
        "private_at_risk", "structurally_recovered", "fidelity_preserved",
        "l_enc", "s_icmw", "f_icmw", "d_drift", "ga", "split_zone",
        "privacy_source"]


def test_record_round_trip():
    rec = sample_record()
    back = audit_record_from_obj(audit_record_to_obj(rec))
    assert back == rec


@pytest.mark.parametrize("value,message", [
    ("what", "$.encoded_dims: expected array"),
    (["what", 3], "$.encoded_dims[1]: expected string")])
def test_a_string_list_field_names_its_bad_item(value, message):
    # audit records read their string lists as carriers do, through
    # jsonio._get_str_list, which names the item
    bad = {**audit_record_to_obj(sample_record()), "encoded_dims": value}
    with pytest.raises(SchemaError) as err:
        audit_record_from_obj(bad)
    assert str(err.value) == message


def test_record_from_obj_rejects_violations():
    good = audit_record_to_obj(sample_record())

    bad = dict(good)
    bad["d_drift"] = 0.123  # breaks d_drift = 1 - f_icmw
    with pytest.raises(SchemaError):
        audit_record_from_obj(bad)

    bad = dict(good)
    bad["private_at_risk"] = ["what"]  # not a subset of absent
    with pytest.raises(SchemaError):
        audit_record_from_obj(bad)

    bad = dict(good)
    bad["encoded_dims"] = good["encoded_dims"] + ["why"]  # overlap
    with pytest.raises(SchemaError):
        audit_record_from_obj(bad)

    bad = dict(good)
    bad["ga"] = 6
    with pytest.raises(SchemaError):
        audit_record_from_obj(bad)

    # sample_record: s_icmw 1.0 and f_icmw 0.3, so ga 5 and in the split zone
    for field, value in (("ga", 1), ("split_zone", False)):
        bad = dict(good)
        bad[field] = value
        with pytest.raises(SchemaError, match=rf"^\$\.{field}: expected"):
            audit_record_from_obj(bad)

    bad = dict(good)
    bad["privacy_source"] = "gossip"
    with pytest.raises(SchemaError):
        audit_record_from_obj(bad)

    bad = dict(good)
    del bad["timestamp"]
    with pytest.raises(SchemaError):
        audit_record_from_obj(bad)


def test_jsonl_round_trip(tmp_path):
    spec = five_dim_spec()
    recs = [
        build_audit_record(spec, carrier_for(spec, enc),
                           generic_fill(spec, set(enc)), timestamp=TS)
        for enc in (["what"], ["what", "why", "who", "how_to", "how_feel"])]
    path = tmp_path / "audit.jsonl"
    assert write_audit_records(path, recs) == 2
    assert list(read_audit_records(path)) == recs


def test_jsonl_error_names_line(tmp_path):
    path = tmp_path / "audit.jsonl"
    good = json.dumps(audit_record_to_obj(sample_record()))
    path.write_text(good + "\n" + '{"task_id": "t"}' + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_audit_records(path))
    assert "line 2" in str(err.value)


def test_aggregate_records():
    spec = five_dim_spec()
    r1 = sample_record()
    full = [d.id for d in spec.dimensions]
    r2 = build_audit_record(spec, carrier_for(spec, full),
                            generic_fill(spec, set(full)), timestamp=TS)
    agg = aggregate_records([r1, r2])
    assert agg.n_records == 2
    assert agg.split_zone_count == 1
    assert agg.split_zone_rate == 0.5
    assert abs(agg.mean_drift - (r1.d_drift + 0.0) / 2) < 1e-12
    assert agg.at_risk_counts == (
        ("how_feel", 1), ("how_to", 1), ("who", 1), ("why", 1))


def test_aggregate_mean_drift_is_an_in_order_sum():
    # d_drift added one at a time from 0.0 on every Python: builtin sum
    # compensates from 3.12 on, where ten drifts of 0.1 would sum to 1.0
    r = sample_record()
    rng = random.Random(5)
    for drifts in ([0.1] * 10, [rng.random() for _ in range(37)]):
        agg = aggregate_records([r._replace(d_drift=x) for x in drifts])
        assert agg.mean_drift.hex() == (reduce(add, drifts, 0.0) / len(drifts)).hex()
    assert aggregate_records([r._replace(d_drift=0.1)] * 10).mean_drift \
        == 0.9999999999999999 / 10


def test_aggregate_empty():
    agg = aggregate_records([])
    assert agg == Aggregate(0, 0, None, None, ())


def test_render_text_empty_uses_na():
    out = render_report([], "text")
    assert "n/a" in out
    assert re.search(r"records:\s+0\b", out)


def test_render_text_flags_split():
    out = render_report([sample_record()], "text")
    assert "split" in out.lower()
    for d in ("why", "who", "how_to", "how_feel"):
        assert d in out


def test_render_markdown_has_table():
    out = render_report([sample_record()], "markdown")
    assert "|" in out and "---" in out


def test_render_json_is_canonical_and_parses():
    out = render_report([sample_record()], "json")
    doc = json.loads(out)
    assert doc["aggregate"]["n_records"] == 1
    assert doc["records"][0]["task_id"] == "t1"
    assert render_report([sample_record()], "json") == out
    with pytest.raises(BadConfig, match=r"^unknown report format 'yaml'$"):
        render_report([], "yaml")
