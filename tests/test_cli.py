import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys

import pytest

import ist.cli
import ist.experiments
import ist.metrics
import ist.model
import ist.spec_io
import ist.worlds
from ist import _kernels
from ist.audit import audit_record_from_obj
from ist.cli import build_parser, main
from ist.errors import BadConfig, SchemaError
from ist.jsonio import loads_strict
from ist.model import flatten
from ist.spec_io import (
    parse_intent_spec,
    read_records,
    serialize_intent_spec,
)
from ist.experiments import parse_experiment_config
from ist.priors import check_world_config
from ist.worlds import build_world

from conftest import DATA, SRC, TESTS_DATA, ablation_records, mixed_ablation_config, run_ist
from reference import to_intent_spec

TS = "2026-08-15T00:00:00Z"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- demo --------------------------------------------------------------------

def test_demo_emits_split_zone_record(capsys):
    code, out, err = run(capsys, "demo", "--timestamp", TS)
    assert code == 1
    rec = audit_record_from_obj(json.loads(out))
    assert rec.task_id == "q3-status-report"
    assert rec.timestamp == TS
    assert rec.split_zone is True
    assert rec.ga == 5
    assert rec.l_enc == 0.5
    assert rec.f_icmw == 0.5
    assert rec.d_drift == 0.5
    assert rec.privacy_source == "hint"
    assert set(rec.private_at_risk) == {"why", "who", "how_to", "how_feel"}
    assert "audit gate" in err


def test_demo_is_deterministic(capsys):
    _, out1, _ = run(capsys, "demo", "--timestamp", TS)
    _, out2, _ = run(capsys, "demo", "--timestamp", TS)
    assert out1 == out2


# -- validate ----------------------------------------------------------------

def test_validate_packaged_spec(capsys, data_dir):
    code, out, _ = run(capsys, "validate", str(data_dir / "report_task.json"))
    assert code == 0
    assert "ok:" in out and "q3-status-report" in out


def test_validate_json_format(capsys, data_dir):
    code, out, _ = run(capsys, "validate", "--format", "json",
                       str(data_dir / "report_task.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert len(doc["dimensions"]) == 8


def test_validate_rejects_bad_weights(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format_version": "1", "task_id": "t", "task_type": "x",
        "dimensions": [
            {"id": "a", "weight": 0.9,
             "intended_value": {"kind": "token", "value": "v"}},
            {"id": "b", "weight": 0.4,
             "intended_value": {"kind": "token", "value": "v"}},
        ]}), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "validation" in err and "WeightSum" in err


def test_validate_lists_each_violation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format_version": "1", "task_id": "t", "task_type": "x",
        "dimensions": [
            {"id": "a", "weight": 0.5},
            {"id": "A", "weight": 0.5},
            {"id": "b", "weight": 0.0, "children": [
                {"id": "c", "weight": 0.5}]},
        ]}), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err == ("error: spec failed validation:\n"
                   "  DuplicateId [a]: id declared more than once\n"
                   "  ChildWeightSum [b]: child weights sum to 0.5, expected 1\n")


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_validate_malformed_json(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{um,", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 1" in err


# -- mask / score ------------------------------------------------------------

def test_mask_packaged_pair(capsys, data_dir):
    code, out, _ = run(capsys, "mask", "--format", "json",
                       "--spec", str(data_dir / "report_task.json"),
                       "--carrier", str(data_dir / "report_carrier.json"))
    assert code == 0
    doc = json.loads(out)
    bits = {e["dimension"]: e["m"] for e in doc["mask"]}
    assert bits["what"] == 1 and bits["why"] == 0
    assert doc["l_enc"] == 0.5


def test_score_packaged_triple(capsys, data_dir):
    code, out, _ = run(capsys, "score", "--format", "json",
                       "--spec", str(data_dir / "report_task.json"),
                       "--carrier", str(data_dir / "report_carrier.json"),
                       "--output", str(data_dir / "report_output.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["s_icmw"] == 1.0
    assert doc["f_icmw"] == 0.5
    assert doc["ga"] == 5
    assert doc["split_zone"] is True
    assert doc["l_enc"] == 0.5


def test_score_without_carrier_omits_l_enc(capsys, data_dir):
    code, out, _ = run(capsys, "score", "--format", "json",
                       "--spec", str(data_dir / "report_task.json"),
                       "--output", str(data_dir / "report_output.json"))
    assert code == 0
    assert json.loads(out)["l_enc"] is None


# sha256 of the packaged triple's score and mask output
FLATTEN_ONCE_CASES = {
    ("score", "json", True): "f3367a4195342a823e0b23545e62c4dfab85014faa314fbd94fd94903d88e59f",
    ("score", "json", False): "2284317f6c3553cc18f583e796c543be0c59ddb3d324054044a8829e13de18c0",
    ("score", "text", True): "be1515ea799893d0a559a227701e92d72d833ce17b240ea7f0e3d84492631c89",
    ("score", "text", False): "70b47ca853d45c32e379b4c162a1d7c702356410af9ed7cac6299983e056e2b6",
    ("mask", "json", True): "d117d385388c1acadc25cc8e7020c27b711621f6bf96ee89c47781797aa8e96c",
    ("mask", "text", True): "2bbd95df26099cc309ece3538dd7d92049fb3eb3978fe009f9ec7a038c079be5",
}


@pytest.mark.parametrize("case", list(FLATTEN_ONCE_CASES), ids=lambda c: "-".join(
    (c[0], c[1], "carrier" if c[2] else "bare")))
def test_score_and_mask_flatten_the_spec_once(monkeypatch, capsys, data_dir, case):
    command, fmt, with_carrier = case
    calls = []

    def counting_flatten(spec):
        calls.append(spec.task_id)
        return flatten(spec)
    monkeypatch.setattr(ist.model, "flatten", counting_flatten)
    argv = [command, "--format", fmt, "--spec", str(data_dir / "report_task.json")]
    if with_carrier:
        argv += ["--carrier", str(data_dir / "report_carrier.json")]
    if command == "score":
        argv += ["--output", str(data_dir / "report_output.json")]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert calls == ["q3-status-report"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FLATTEN_ONCE_CASES[case]


@pytest.mark.parametrize("keys", [("what", "WHAT"), ("WHAT", "what")])
@pytest.mark.parametrize("command", ["score", "audit"])
def test_keys_equal_after_case_folding_exit_2(capsys, data_dir, tmp_path,
                                              command, keys):
    doc = json.loads((data_dir / "report_output.json").read_text(encoding="utf-8"))
    intended = doc["realized_values"].pop("what")
    generic = {"kind": "text", "value": "generic"}
    doc["realized_values"] = {keys[0]: intended, keys[1]: generic,
                              **doc["realized_values"]}
    output = tmp_path / "output.json"
    output.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command,
                         "--spec", str(data_dir / "report_task.json"),
                         "--carrier", str(data_dir / "report_carrier.json"),
                         "--output", str(output))
    assert (code, out) == (2, "")
    assert f"{keys[0]!r} and {keys[1]!r}" in err


def test_score_task_mismatch(capsys, data_dir, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({
        "task_id": "some-other-task",
        "realized_values": {"what": {"kind": "token", "value": "x"}}}),
        encoding="utf-8")
    code, _, err = run(capsys, "score",
                       "--spec", str(data_dir / "report_task.json"),
                       "--output", str(other))
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("command", ["audit", "score"])
def test_packaged_triple_validates_the_spec_once(capsys, data_dir, monkeypatch,
                                                 command):
    calls = []
    validate_spec = ist.model.validate_spec
    monkeypatch.setattr(ist.model, "validate_spec",
                        lambda spec: calls.append(spec) or validate_spec(spec))
    code, _, err = run(capsys, command,
                       "--spec", str(data_dir / "report_task.json"),
                       "--carrier", str(data_dir / "report_carrier.json"),
                       "--output", str(data_dir / "report_output.json"))
    assert code in (0, 1), err
    assert len(calls) == 1


# -- audit -------------------------------------------------------------------

def faithful_output(data_dir, tmp_path):
    spec = parse_intent_spec((data_dir / "report_task.json").read_bytes())
    values = {d.id: {"kind": d.intended_value.kind,
                     "value": d.intended_value.value}
              for d in flatten(spec)}
    path = tmp_path / "faithful.json"
    path.write_text(json.dumps({"task_id": spec.task_id,
                                "realized_values": values}),
                    encoding="utf-8")
    return path


def full_carrier(data_dir, tmp_path):
    spec = parse_intent_spec((data_dir / "report_task.json").read_bytes())
    path = tmp_path / "full_carrier.json"
    path.write_text(json.dumps({
        "task_id": spec.task_id,
        "encoded_dimensions": [d.id for d in flatten(spec)]}),
        encoding="utf-8")
    return path


def test_audit_matches_demo_on_packaged_inputs(capsys, data_dir):
    code, out, _ = run(capsys, "audit", "--timestamp", TS,
                       "--spec", str(data_dir / "report_task.json"),
                       "--carrier", str(data_dir / "report_carrier.json"),
                       "--output", str(data_dir / "report_output.json"))
    assert code == 1
    _, demo_out, _ = run(capsys, "demo", "--timestamp", TS)
    assert out == demo_out


def test_audit_passes_on_faithful_output(capsys, data_dir, tmp_path):
    code, out, err = run(capsys, "audit", "--timestamp", TS,
                         "--max-drift", "0.2",
                         "--spec", str(data_dir / "report_task.json"),
                         "--carrier", str(full_carrier(data_dir, tmp_path)),
                         "--output", str(faithful_output(data_dir, tmp_path)))
    assert code == 0, err
    rec = audit_record_from_obj(json.loads(out))
    assert rec.d_drift == 0.0 and rec.split_zone is False
    assert rec.absent_dims == ()


def test_audit_drift_gate(capsys, data_dir):
    code, _, err = run(capsys, "audit", "--timestamp", TS,
                       "--max-drift", "0.2",
                       "--spec", str(data_dir / "report_task.json"),
                       "--carrier", str(data_dir / "report_carrier.json"),
                       "--output", str(data_dir / "report_output.json"))
    assert code == 1
    assert "audit gate" in err


def test_audit_oracle_labels(capsys, data_dir, tmp_path, demo_world_config):
    world = build_world(demo_world_config)
    spec = to_intent_spec(world.tasks[0])
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(serialize_intent_spec(spec))
    carrier_path = tmp_path / "carrier.json"
    carrier_path.write_text(json.dumps({
        "task_id": spec.task_id,
        "encoded_dimensions": ["what", "when", "where", "how_much"]}),
        encoding="utf-8")
    out_path = tmp_path / "out.json"
    out_path.write_text(json.dumps({
        "task_id": spec.task_id,
        "realized_values": {
            d.id: {"kind": "token", "value": d.intended_value.value}
            for d in spec.dimensions}}), encoding="utf-8")
    code, out, _ = run(capsys, "audit", "--timestamp", TS,
                       "--world", str(data_dir / "demo_world.json"),
                       "--spec", str(spec_path),
                       "--carrier", str(carrier_path),
                       "--output", str(out_path))
    assert code == 0  # faithful output, no split
    rec = audit_record_from_obj(json.loads(out))
    assert rec.privacy_source == "oracle"
    assert set(rec.private_at_risk) == {"why", "who", "how_to", "how_feel"}


# -- tiil-check --------------------------------------------------------------

def test_tiil_check_text(capsys):
    code, out, _ = run(capsys, "tiil-check")
    assert code == 0
    assert "all bounds hold" in out


def test_tiil_check_json(capsys):
    code, out, _ = run(capsys, "tiil-check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True
    assert doc["theta_pub"] == 0.9
    labels = {d["dimension"]: d["label"] for d in doc["dims"]}
    assert labels["what"] == "public" and labels["why"] == "private"


def test_tiil_check_names_each_violation(capsys, monkeypatch):
    import ist.tiil as tiil
    # a negative DPI tolerance makes every low-slack decoder row fail
    monkeypatch.setattr(tiil, "DPI_TOL", -1.0)
    code, out, err = run(capsys, "tiil-check", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["all_hold"] is False
    failing = [f"violated: {d['task_id']}/{d['dimension']} "
               f"decoder={row['decoder']} slack={row['slack']:.3e} "
               f"accuracy={row['accuracy']:.4f}"
               for d in doc["dims"] for row in d["decoders"] if not row["ok"]]
    rows = sum(len(d["decoders"]) for d in doc["dims"])
    assert 0 < len(failing) < rows
    lines = err.splitlines()
    assert lines[:-1] == failing
    assert lines[-1].startswith("internal error: irreversibility bound violated")
    # the report on stdout keeps its shape; the list goes to stderr only
    code, out, err = run(capsys, "tiil-check")
    assert code == 3
    assert out.splitlines()[-1] == "IRREVERSIBILITY BOUND VIOLATED"
    assert "violated:" not in out
    assert err.splitlines()[:-1] == failing


@pytest.mark.parametrize("lam", [0.0, 1e-17])
def test_tiil_check_accepts_flat_priors_at_every_k(capsys, tmp_path, lam):
    # a flat prior's MI is 0, but the rounding noise of H(v) + H(y) - H(v, y)
    # grows with K and passes -1e-12 at K = 79, 80, 95, ...
    path = tmp_path / "flat.json"
    for k in range(2, 101):
        path.write_text(json.dumps({"tag": "flat", "seed": 1, "tasks": [{
            "task_id": "t",
            "dims": [{"id": "d", "weight": 1.0, "K": k, "lambda": lam}]}]}))
        code, out, err = run(capsys, "tiil-check", "--world", str(path))
        assert (code, out.splitlines()[-1:]) == (0, ["all bounds hold"]), (k, err)


def test_tiil_check_refuses_the_largest_k_within_bounded_memory(tmp_path):
    # a config accepts K up to CELL_CAP, whose channel would be K**2 = 10**12
    # cells (8 TB) if built before the cap is checked; under a 1.5 GB
    # address-space limit the child must still exit 2 with WorldTooLarge's message
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"seed": 1, "tasks": [{
        "task_id": "t", "dims": [{"id": "d", "weight": 1.0, "K": 10 ** 6, "lambda": 0.5}]}]}))
    limit = 1536 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "w") as out_f, open(err, "w") as err_f:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ist", "tiil-check", "--world", str(path)],
            env=env, stdout=out_f, stderr=err_f, preexec_fn=cap_address_space)
        # wait4 reaps the child and gives its own peak RSS (KiB on Linux)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 2, err.read_text()
    assert err.read_text() == "error: enumeration would need 1000000000000 cells (cap 1000000)\n"
    assert out.read_text() == ""
    assert usage.ru_maxrss < 400 * 1024


# ru_maxrss survives fork and exec, so a child of this process would
# report at least this process's own peak; a grandchild started from a
# small interpreter reports its own
PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "ist", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def one_dim_world_path(tmp_path, k, lam=0.5):
    path = tmp_path / f"k{k}.json"
    path.write_text(json.dumps({"seed": 1, "tasks": [{
        "task_id": "t", "dims": [{"id": "d", "weight": 1.0, "K": k, "lambda": lam}]}]}))
    return path


def tiil_check_peak_rss_kib(tmp_path, k):
    """Peak RSS of `ist tiil-check --format json` on one K-token dimension,
    as os.wait4 reports it (KiB on Linux)."""
    path = one_dim_world_path(tmp_path, k)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, "tiil-check", "--world", str(path),
         "--format", "json"], env=env, capture_output=True, text=True, check=True)
    code, peak_kib = map(int, probe.stdout.split())
    assert code == 0, (k, probe.stderr)
    return peak_kib


def test_tiil_check_holds_one_extension_at_a_time(tmp_path):
    # at K = 100 one decoder's extension would be 10**6 cells (8 MB); the
    # battery builds none, and the bound allows at most one
    gap_kib = tiil_check_peak_rss_kib(tmp_path, 100) - tiil_check_peak_rss_kib(tmp_path, 4)
    assert gap_kib <= 12 * 1024, gap_kib


def test_tiil_check_runs_to_k_1000_within_bounded_memory(tmp_path):
    # at K = 1000 a decoder's (v, g) table is 10**6 cells, and the battery
    # holds one decoder's list of their entropy terms at a time; it stays
    # under 12 arrays of K**2 floats (96 MB)
    gap_kib = tiil_check_peak_rss_kib(tmp_path, 1000) - tiil_check_peak_rss_kib(tmp_path, 4)
    assert gap_kib <= 12 * 8 * 1000 ** 2 // 1024, gap_kib


def test_tiil_check_at_k_1001_names_world_too_large(capsys, tmp_path):
    # 1001**2 = 1,002,001 channel cells: the first K past the cap (that
    # nothing of the battery runs first is test_infotheory's)
    code, out, err = run(capsys, "tiil-check", "--world",
                         str(one_dim_world_path(tmp_path, 1001)))
    assert code == 2 and out == ""
    assert err == "error: enumeration would need 1002001 cells (cap 1000000)\n"


def flat_k331_world(tmp_path):
    path = tmp_path / "k331.json"
    path.write_text(json.dumps({"seed": 1, "tasks": [{
        "task_id": "t", "dims": [{"id": "d", "weight": 1.0, "K": 331, "lambda": 0.0}]}]}))
    return path


def test_tiil_check_runs_flat_k_331_and_edge_lambda_k_1000_worlds(capsys, tmp_path):
    # K**3 past the cap no longer matters: the battery holds K**2 cells
    edge = tmp_path / "edge.json"
    lams = (0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0)
    edge.write_text(json.dumps({"seed": 1, "tasks": [{"task_id": "t", "dims": [
        {"id": f"d{i}", "weight": 0.25, "K": 1000, "lambda": lam}
        for i, lam in enumerate(lams)]}]}))
    for path in (flat_k331_world(tmp_path), edge):
        code, out, err = run(capsys, "tiil-check", "--world", str(path))
        assert (code, err, out.splitlines()[-1]) == (0, "", "all bounds hold"), path


def test_audit_labels_a_flat_k_331_dimension_private(capsys, tmp_path):
    path = flat_k331_world(tmp_path)
    spec = to_intent_spec(build_world(json.loads(path.read_text())).tasks[0])
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(serialize_intent_spec(spec))
    carrier_path = tmp_path / "carrier.json"
    carrier_path.write_text(json.dumps({"task_id": "t", "encoded_dimensions": []}))
    out_path = tmp_path / "out.json"
    out_path.write_text(json.dumps({"task_id": "t", "realized_values": {
        "d": {"kind": "token", "value": spec.dimensions[0].intended_value.value}}}))
    code, out, err = run(capsys, "audit", "--timestamp", TS, "--world", str(path),
                         "--spec", str(spec_path), "--carrier", str(carrier_path),
                         "--output", str(out_path))
    assert code == 0, err
    rec = audit_record_from_obj(json.loads(out))
    assert rec.privacy_source == "oracle"
    assert rec.private_at_risk == ("d",)


def test_audit_seed_needs_a_world(capsys, data_dir, tmp_path):
    triple = packaged_args("audit", capsys, data_dir, tmp_path)
    code, out, err = run(capsys, "audit", *triple, "--seed", "5")
    assert (code, out, err) == (2, "", "error: --seed applies only with --world\n")
    # with --world it is the world's seed, which a config may leave out
    config = json.loads((data_dir / "demo_world.json").read_text())
    del config["seed"]
    world = tmp_path / "world.json"
    world.write_text(json.dumps(config))
    code, out, err = run(capsys, "audit", *triple, "--world", str(world))
    assert (code, out, err) == (2, "", "error: $: missing required field 'seed'\n")
    code, out, _ = run(capsys, "audit", *triple, "--world", str(world), "--seed", "5")
    assert code == 1
    assert json.loads(out)["privacy_source"] == "hint"


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_exits_2(capsys, tmp_path, seed):
    # derive reduces a seed mod 2**64, so -1 would print the bytes of
    # 2**64 - 1 and 2**64 those of 0: --seed and a config's seed are refused,
    # the config's named by its path in the document
    rule = f"must be in [0, 2**64), got {seed}"
    field_rule = f"must be an integer in [0, {2 ** 64 - 1}], got {seed}"
    config = json.loads((DATA / "demo_world.json").read_text())
    config["seed"] = seed
    world = tmp_path / "world.json"
    world.write_text(json.dumps(config))
    experiment = tmp_path / "experiment.json"
    experiment.write_text(json.dumps({"world_config": config}))
    out = tmp_path / "records.jsonl"
    for argv, message in ((["tiil-check", "--seed", str(seed)], f"seed {rule}"),
                          (["tiil-check", "--world", str(world)], f"$.seed: {field_rule}"),
                          (["ablate", "--seed", str(seed), "--out", str(out)], f"seed {rule}"),
                          (["ablate", "--config", str(experiment), "--out", str(out)],
                           f"$.world_config.seed: {field_rule}")):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    assert not out.exists()


# -- world configs: one set of rules, the same error in every subcommand ----

def world_dims(*dims):
    return [{"id": dim_id, "weight": w, "K": 4, "lambda": 0.5, **extra}
            for dim_id, w, extra in dims]


BAD_WORLDS = {
    "empty-id": ({"tasks": [{"task_id": "t", "dims": world_dims(
        ("a", 0.5, {}), ("", 0.5, {}))}]},
        "$.tasks[0].dims[1].id: must be non-empty"),
    "case-folded-ids": ({"tasks": [{"task_id": "t", "dims": world_dims(
        ("Tone", 0.5, {}), ("tone", 0.5, {}))}]},
        "$.tasks[0]: duplicate dimension ids"),
    "unknown-top-field": ({"tasks": [{"task_id": "t", "dims": world_dims(
        ("a", 1.0, {}))}], "sede": 3},
        "$: unknown field 'sede'"),
    "unknown-task-field": ({"tasks": [{"task_id": "t", "dim": [], "dims": world_dims(
        ("a", 1.0, {}))}]},
        "$.tasks[0]: unknown field 'dim'"),
    "unknown-dim-field": ({"tasks": [{"task_id": "t", "dims": world_dims(
        ("a", 0.5, {}), ("b", 0.5, {"lamda": 0.9}))}]},
        "$.tasks[0].dims[1]: unknown field 'lamda'"),
    "k-above-cap": ({"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 1.0, "K": 10 ** 400, "lambda": 0.5}]}]},
        "$.tasks[0].dims[0].K: must be an integer in [2, 1000000], "
        "got an integer of more than 20 digits"),
    "k-one": ({"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 1.0, "K": 1, "lambda": 0.5}]}]},
        "$.tasks[0].dims[0].K: must be an integer in [2, 1000000], got 1"),
    "weight-sum": ({"tasks": [{"task_id": "t", "dims": world_dims(
        ("a", 0.5, {}), ("b", 0.4, {}))}]},
        "$.tasks[0]: weights sum to 0.9, expected 1"),
    # finite weights whose math.fsum overflows: the sum reads as inf
    "overflowing-weight-sum": ({"tasks": [{"task_id": "t", "dims": world_dims(
        ("a", 1e308, {}), ("b", 1e308, {}))}]},
        "$.tasks[0]: weights sum to inf, expected 1"),
    "no-seed": ("""{"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 1.0, "K": 4, "lambda": 0.5}]}]}""",
        "$: missing required field 'seed'"),
    "infinite-weights": ("""{"seed": 1, "tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 1e309, "K": 4, "lambda": 0.5},
        {"id": "b", "weight": -1e309, "K": 4, "lambda": 0.5}]}]}""",
        "$.tasks[0].dims[0].weight: must be a finite number >= 0, got inf"),
    # every task's field, K and lambda checks come before the flat-spec
    # rules: the duplicate ids of tasks[0] and the duplicate task id of
    # tasks[1] go unreported
    "faults-in-two-tasks": ({"tasks": [
        {"task_id": "t", "dims": world_dims(("a", 0.5, {}), ("A", 0.5, {}))},
        {"task_id": "t", "dims": world_dims(("b", 1.0, {"lambda": 2}))}]},
        "$.tasks[1].dims[0].lambda: must be a finite number in [0, 1], got 2"),
}


@pytest.mark.parametrize("case", list(BAD_WORLDS))
def test_bad_world_config_exits_2_alike_in_every_subcommand(tmp_path, case):
    # tiil-check and audit check the config (priors.check_world_config),
    # ablate and perturb build the world from it: one message either way,
    # after the file's name where an experiment config names the world
    config, message = BAD_WORLDS[case]
    world = tmp_path / "world.json"
    world.write_text(config if isinstance(config, str)
                     else json.dumps({"seed": 1, **config}))
    experiment = tmp_path / "experiment.json"
    experiment.write_text(json.dumps({"world_path": "world.json"}))
    with pytest.raises(SchemaError) as err:
        check_world_config(loads_strict(world.read_bytes()))
    assert err.value.path.startswith("$") and str(err.value) == message
    with pytest.raises(SchemaError) as err:
        parse_experiment_config(experiment.read_bytes(), base_dir=tmp_path)
    assert err.value.path.startswith("world.json")
    assert str(err.value) == f"world.json: {message}"
    calls = {
        "tiil-check": ["tiil-check", "--world", world],
        "audit": ["audit", "--world", world, "--spec", DATA / "report_task.json",
                  "--carrier", DATA / "report_carrier.json",
                  "--output", DATA / "report_output.json"],
        "ablate": ["ablate", "--config", experiment],
        "perturb": ["perturb", "--config", experiment],
    }
    for name, argv in calls.items():
        source = "world.json: " if "--config" in argv else ""
        proc = run_ist(*argv, hash_seed=0)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", f"error: {source}{message}\n"), name


# -- report ------------------------------------------------------------------

def audit_jsonl(capsys, data_dir, tmp_path):
    path = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "audit", "--timestamp", TS,
                     "--out", str(path),
                     "--spec", str(data_dir / "report_task.json"),
                     "--carrier", str(data_dir / "report_carrier.json"),
                     "--output", str(data_dir / "report_output.json"))
    assert code == 1  # gate still applies when writing to a file
    return path


def test_report_text(capsys, data_dir, tmp_path):
    path = audit_jsonl(capsys, data_dir, tmp_path)
    code, out, _ = run(capsys, "report", "--records", str(path))
    assert code == 0
    assert "q3-status-report" in out
    assert "split" in out.lower()


def test_report_markdown_and_json(capsys, data_dir, tmp_path):
    path = audit_jsonl(capsys, data_dir, tmp_path)
    code, out, _ = run(capsys, "report", "--format", "markdown",
                       "--records", str(path))
    assert code == 0 and "|" in out
    code, out, _ = run(capsys, "report", "--format", "json",
                       "--records", str(path))
    assert code == 0
    assert json.loads(out)["aggregate"]["split_zone_rate"] == 1.0


@pytest.mark.parametrize("field,value", [("ga", 1), ("split_zone", False)])
def test_report_rejects_a_grade_its_scores_contradict(capsys, data_dir, tmp_path,
                                                      field, value):
    # the demo record has s_icmw 1.0 and f_icmw 0.5: ga 5, in the split zone
    path = audit_jsonl(capsys, data_dir, tmp_path)
    rec = json.loads(path.read_text(encoding="utf-8"))
    rec[field] = value
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "report", "--records", str(path))
    assert (code, out) == (2, "")
    assert f"line 1: $.{field}: expected" in err


def test_report_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "report", "--records", str(path))
    assert code == 0
    assert "n/a" in out


def test_report_corrupt_line(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task_id": "t"}\n', encoding="utf-8")
    code, _, err = run(capsys, "report", "--records", str(path))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("command", ["report", "score"])
def test_missing_field_error_does_not_depend_on_the_hash_seed(
        capsys, data_dir, tmp_path, command):
    # both inputs lack several required fields; the first one the caller
    # lists is named, whatever the str hashes are
    if command == "report":
        records = tmp_path / "records.jsonl"
        assert main(["ablate", "--seed", "1", "--out", str(records)]) == 0
        capsys.readouterr()
        argv = ["report", "--records", records]
    else:
        argv = ["score", "--spec", data_dir / "report_task.json",
                "--carrier", data_dir / "demo_world.json",
                "--output", data_dir / "report_output.json"]
    errs = []
    for hash_seed in (0, 1):
        proc = run_ist(*argv, hash_seed=hash_seed)
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert "missing required field" in errs[0]
    assert errs[0] == errs[1]


# -- ablate ------------------------------------------------------------------

def test_ablate_default_world(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code, out, err = run(capsys, "ablate", "--out", str(out_path))
    assert code == 0
    records = list(read_records(out_path))
    assert len(records) == (1 + 8) * 1  # argmax mode: one replicate
    summary = json.loads(out)
    weights = summary["estimated_weights"]["report-demo"]
    for dim in ("why", "who", "how_to", "how_feel"):
        assert abs(weights[dim] - 0.25) < 1e-9
    for dim in ("what", "when", "where", "how_much"):
        assert weights[dim] == 0.0


def test_ablate_jobs_byte_identical(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    code1, out1, _ = run(capsys, "ablate", "--out", str(a), "--jobs", "1")
    code2, out2, _ = run(capsys, "ablate", "--out", str(b), "--jobs", "4")
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert out1 == out2


def test_ablate_stdout_stream(capsys):
    code, out, err = run(capsys, "ablate")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9
    assert all(json.loads(line)["task_id"] == "report-demo" for line in lines)
    assert "estimated_weights" in err


def test_ablate_with_config(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "world_config": {"tasks": [{"task_id": "w", "dims": [
            {"id": "a", "weight": 0.7, "K": 30, "lambda": 0.0},
            {"id": "b", "weight": 0.3, "K": 30, "lambda": 0.0}]}]},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "ablate", "--config", str(cfg),
                       "--out", str(tmp_path / "r.jsonl"))
    assert code == 0
    weights = json.loads(out)["estimated_weights"]["w"]
    assert abs(weights["a"] - 0.7) < 1e-9 and abs(weights["b"] - 0.3) < 1e-9


def spy_on_block_grids(monkeypatch, events):
    """Log ("sample", block) in events as the ablation engine samples each
    block of _block_grids."""
    block_grids = ist.experiments._block_grids

    def logged_block_grids(*args):
        for block, grid in block_grids(*args):
            events.append(("sample", tuple(block)))
            yield block, grid

    monkeypatch.setattr(ist.experiments, "_block_grids", logged_block_grids)


def test_ablate_writes_a_tasks_records_before_the_last_task_is_simulated(
        capsys, monkeypatch, tmp_path):
    # the engine samples, realizes and scores a block at a time; at 200
    # cells a block, the mixed world's ablation spans 12 blocks
    monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", 200)
    events = []

    class LoggedStdout(io.StringIO):
        def write(self, text):
            events.extend(("write", json.loads(line)["task_id"])
                          for line in text.splitlines())
            return super().write(text)

    spy_on_block_grids(monkeypatch, events)
    monkeypatch.setattr(sys, "stdout", LoggedStdout())
    code = main(["ablate", "--config", str(mixed_ablation_config(tmp_path))])
    assert code == 0
    blocks = [event for event in events if event[0] == "sample"]
    assert len(blocks) == 12
    tasks = list(dict.fromkeys(task_id for kind, task_id in events if kind == "write"))
    assert tasks == [f"mixed-{i:02d}" for i in range(14)]
    assert events.index(("write", tasks[0])) < events.index(blocks[-1])
    # every task's estimate is still in the summary, in world order
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert list(summary["estimated_weights"]) == tasks


# blocks=None: at the default budget, one block per run of consecutive
# tasks with one dimension count
@pytest.mark.parametrize("budget,blocks", [(None, None), (200, 12)])
def test_ablate_scores_each_block_with_one_f_icmw_call(capsys, monkeypatch, tmp_path,
                                                       budget, blocks):
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
    if blocks is None:
        config = json.loads((TESTS_DATA / "mixed_experiment.json").read_text())
        dim_counts = [len(t["dims"]) for t in config["world_config"]["tasks"]]
        blocks = len(list(itertools.groupby(dim_counts)))
    events = []
    f_icmw = ist.worlds._f_icmw

    def logged_f_icmw(*args):
        events.append(("score", len(args[0])))
        return f_icmw(*args)

    # where the engine's one block step, _score_block, looks the scorer up
    monkeypatch.setattr(ist.worlds, "_f_icmw", logged_f_icmw)
    spy_on_block_grids(monkeypatch, events)
    code, _, _ = run(capsys, "ablate", "--config", str(mixed_ablation_config(tmp_path)))
    assert code == 0
    # each block is sampled, then scored once, all its tasks together
    assert [kind for kind, _ in events] == ["sample", "score"] * blocks
    assert [len(positions) for _, (positions, _, _) in events[::2]] \
        == [n for _, n in events[1::2]]


def test_ablate_builds_no_output_record(capsys, monkeypatch, tmp_path):
    made = []
    new = ist.spec_io.OutputRecord.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ist.spec_io.OutputRecord, "__new__", counted_new)
    world = build_world(json.loads((DATA / "demo_world.json").read_text()))
    assert len(ablation_records(world)) == len(made) == 9
    made.clear()
    for args in ([], ["--out", str(tmp_path / "r.jsonl")], ["--mode", "sample"]):
        assert run(capsys, "ablate", *args)[0] == 0
    assert made == []


def test_ablate_bad_mode_exits_2_before_opening_out(capsys, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"world_path": str(DATA / "demo_world.json"),
                                  "mode": "greedy"}))
    out = tmp_path / "records.jsonl"
    code, stdout, err = run(capsys, "ablate", "--config", str(config), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: $.mode: must be 'argmax' or 'sample', got 'greedy'\n"
    assert not out.exists()
    world = build_world(json.loads((DATA / "demo_world.json").read_text()))
    for mode, replicates in (("greedy", None), ("sample", 0)):
        with pytest.raises(BadConfig):
            ist.experiments.write_ablation(out, world, mode, replicates)
        assert not out.exists()


# runs ARGV and prints its exit code and peak RSS (KiB). A process's
# ru_maxrss starts at its parent's size at the fork, so the test runs ist
# under this small launcher, not straight from pytest.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_ablate_memory_does_not_grow_with_replicates(tmp_path):
    # a task holds one running f_icmw total per condition, not its
    # records: 200,000 records of a one-dim world peak within 20 MB of
    # 2,000 (they grew by ~80 MB when a task's records were held)
    config = tmp_path / "one_dim.json"
    config.write_text(json.dumps({"seed": 1, "world_config": {"tasks": [{
        "task_id": "t", "dims": [{"id": "a", "weight": 1.0, "K": 10, "lambda": 0.5}]}]}}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    peak = {}
    for replicates in (1000, 100_000):
        out = tmp_path / f"r{replicates}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable, "-m", "ist",
             "ablate", "--config", str(config), "--mode", "sample",
             "--replicates", str(replicates), "--out", str(out)],
            env=env, capture_output=True, text=True, check=True)
        code, peak[replicates] = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        with open(out, "rb") as fh:
            assert sum(1 for _ in fh) == 2 * replicates
    assert peak[100_000] - peak[1000] < 20 * 1024, peak


# -- perturb -----------------------------------------------------------------

def test_perturb_default_grid(capsys):
    code, out, _ = run(capsys, "perturb")
    assert code == 0
    doc = json.loads(out)
    assert doc["plateau_rate"] == 1.0
    assert doc["cliff_rate"] == 1.0
    assert doc["mean_inversion_drop"] >= 0.1
    assert len(doc["cells"]) == 30 * 4


def test_perturb_jobs_byte_identical(capsys):
    _, out1, _ = run(capsys, "perturb", "--jobs", "1")
    _, out2, _ = run(capsys, "perturb", "--jobs", "3")
    assert out1 == out2


# -- every subcommand x every --format -----------------------------------------

# documented exit code on the packaged data: the report task is split-zone,
# so the audit gate fails for demo and audit; everything else succeeds
EXIT_CODES = {"validate": 0, "mask": 0, "score": 0, "audit": 1, "ablate": 0,
              "perturb": 0, "tiil-check": 0, "report": 0, "demo": 1}


def packaged_args(command, capsys, data_dir, tmp_path):
    spec = str(data_dir / "report_task.json")
    carrier = str(data_dir / "report_carrier.json")
    output = str(data_dir / "report_output.json")
    if command == "validate":
        return [spec]
    if command == "mask":
        return ["--spec", spec, "--carrier", carrier]
    if command in ("score", "audit"):
        args = ["--spec", spec, "--carrier", carrier, "--output", output]
        return args + (["--timestamp", TS] if command == "audit" else [])
    if command == "perturb":
        return ["--replicates", "2"]
    if command == "report":
        return ["--records", str(audit_jsonl(capsys, data_dir, tmp_path))]
    if command == "demo":
        return ["--timestamp", TS]
    return []  # ablate and tiil-check default to the packaged demo world


# only report renders markdown; these print JSON only and take no --format;
# the rest print text or JSON; any other format is a usage error
JSON_ONLY = ("demo", "audit", "ablate", "perturb")
FORMATS = {"report": ("text", "markdown", "json"), **dict.fromkeys(JSON_ONLY, ())}


@pytest.mark.parametrize("fmt", ["text", "markdown", "json"])
@pytest.mark.parametrize("command", list(EXIT_CODES))
def test_every_subcommand_and_format(capsys, data_dir, tmp_path, command, fmt):
    args = packaged_args(command, capsys, data_dir, tmp_path)
    if fmt not in FORMATS.get(command, ("text", "json")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", fmt, *args])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: --format {fmt}" if command in JSON_ONLY
                else "argument --format: invalid choice") in capsys.readouterr().err
        if command not in JSON_ONLY:
            return
    # a JSON-only command's plain output is the JSON checked below
    options = [] if command in JSON_ONLY else ["--format", fmt]
    code, out, err = run(capsys, command, *options, *args)
    assert code == EXIT_CODES[command], err
    if fmt == "json" or command in JSON_ONLY:
        # ablate streams JSONL records; every other command prints one document
        docs = out.splitlines() if command == "ablate" else [out]
        assert docs
        for doc in docs:
            loads_strict(doc)


class ReadRecorder(argparse.Namespace):
    """A namespace that records each attribute read once _reads is set."""

    _reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", list(EXIT_CODES))
def test_every_parsed_option_is_read(capsys, data_dir, tmp_path, command):
    # an option that a subcommand parses but never reads is accepted and
    # ignored; --jobs is kept for compatibility
    argv = [command, *packaged_args(command, capsys, data_dir, tmp_path)]
    if command == "audit":
        argv += ["--world", str(data_dir / "demo_world.json")]
    args = build_parser().parse_args(argv, namespace=ReadRecorder())
    args._reads = set()
    assert args.func(args) == EXIT_CODES[command]
    options = set(vars(args)) - {"command", "func", "debug", "_reads", "jobs"}
    assert options - args._reads == set()


# -- argparse-level behavior -------------------------------------------------

# options a subcommand used to accept and ignore
IGNORED_OPTIONS = {
    **{f"{c}-seed": [c, "--seed", "99"]
       for c in ("validate", "mask", "score", "report", "demo")},
    **{f"{c}-lenient": [c, "--lenient"]
       for c in ("ablate", "perturb", "tiil-check", "report", "demo")},
}


@pytest.mark.parametrize("case", list(IGNORED_OPTIONS))
def test_option_a_subcommand_ignores_exits_2(capsys, data_dir, tmp_path, case):
    command, *option = IGNORED_OPTIONS[case]
    argv = [command, *packaged_args(command, capsys, data_dir, tmp_path), *option]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


AUDIT_ARGS = ("--spec", "report_task.json", "--carrier", "report_carrier.json",
              "--output", "report_output.json")

# one case per numeric flag: (subcommand args, flag the message must name)
BAD_NUMERICS = {
    "tiil-check-theta-pub-nan": (["tiil-check", "--theta-pub", "nan"], "--theta-pub"),
    "tiil-check-theta-pub-zero": (["tiil-check", "--theta-pub", "0"], "--theta-pub"),
    "tiil-check-theta-pub-above-one": (["tiil-check", "--theta-pub", "1.5"], "--theta-pub"),
    # the packaged spec carries privacy hints, so theta_pub would go unused
    "audit-theta-pub": (["audit", *AUDIT_ARGS, "--theta-pub", "-0.2"], "--theta-pub"),
    "ablate-replicates": (["ablate", "--replicates", "0"], "--replicates"),
    "perturb-replicates": (["perturb", "--replicates", "-1"], "--replicates"),
    "ablate-jobs": (["ablate", "--jobs", "0"], "--jobs"),
    "perturb-jobs": (["perturb", "--jobs", "-3"], "--jobs"),
    "audit-max-drift": (["audit", *AUDIT_ARGS, "--max-drift", "nan"], "--max-drift"),
    "demo-max-drift": (["demo", "--max-drift", "inf"], "--max-drift"),
    "audit-r-threshold": (["audit", *AUDIT_ARGS, "--r-threshold", "inf"], "--r-threshold"),
    "audit-f-threshold": (["audit", *AUDIT_ARGS, "--f-threshold=-inf"], "--f-threshold"),
}


@pytest.mark.parametrize("case", list(BAD_NUMERICS))
def test_bad_numeric_flag_exits_2(capsys, data_dir, case):
    argv, flag = BAD_NUMERICS[case]
    argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_a_count_that_is_not_a_number_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--replicates", "abc"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "ist ablate: error: argument --replicates: must be a positive integer, got 'abc'\n")


def test_an_infinite_spec_weight_exits_2(capsys, tmp_path):
    # JSON reads 1e400 as inf
    spec = {"format_version": "1", "task_id": "t", "task_type": "x", "dimensions": [
        {"id": "a", "weight": 1e400, "intended_value": {"kind": "token", "value": "v"}}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec).replace("Infinity", "1e400"), encoding="utf-8")
    assert run(capsys, "validate", str(path)) == (
        2, "", "error: $.dimensions[0].weight: must be a finite number >= 0, got inf\n")


@pytest.mark.parametrize("kind", ["spec", "audit-record", "experiment-config"])
def test_an_integer_past_the_float_range_exits_2(capsys, data_dir, tmp_path, kind):
    # float() overflows on an integer literal of 309 digits or more; each
    # document kind refuses one at its field's path, as it refuses 1e400,
    # without echoing its digits
    big = 10 ** 400
    path = tmp_path / "doc.json"
    if kind == "spec":
        doc = {"format_version": "1", "task_id": "t", "task_type": "x", "dimensions": [
            {"id": "a", "weight": big, "intended_value": {"kind": "token", "value": "v"}}]}
        argv, where = ["validate", path], "$.dimensions[0].weight: must be a finite number >= 0"
    elif kind == "audit-record":
        doc = json.loads(audit_jsonl(capsys, data_dir, tmp_path).read_text(encoding="utf-8"))
        doc["l_enc"] = big
        argv, where = ["report", "--records", path], \
            "line 1: $.l_enc: must be a finite number in [0, 1]"
    else:
        doc = {"world_path": GRID,
               "perturbations": ["identity", {"kind": "jitter", "epsilon": big}]}
        argv, where = ["perturb", "--config", path], \
            "$.perturbations[1].epsilon: must be a finite number"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert run(capsys, *map(str, argv)) == (
        2, "", f"error: {where}, got an integer of more than 20 digits\n")


def test_spec_weights_whose_sum_overflows_exit_2(capsys, tmp_path):
    # math.fsum of these finite weights overflows: the sum reads as inf
    spec = {"format_version": "1", "task_id": "t", "task_type": "x", "dimensions": [
        {"id": i, "weight": 1e308, "intended_value": {"kind": "token", "value": "v"}}
        for i in "ab"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run(capsys, "validate", str(path)) == (2, "", (
        "error: spec failed validation:\n"
        "  TopLevelWeightSum: top-level weights sum to inf, expected 1\n"
        "  WeightRange [a]: weight 1e+308 outside [0, 1]\n"
        "  WeightRange [b]: weight 1e+308 outside [0, 1]\n"))


# valid documents with integer and number fields; scalar_doc adds a world
# and an experiment config
SCALAR_DOCS = {
    "spec": {"format_version": "1", "task_id": "t", "task_type": "x", "dimensions": [
        {"id": "a", "weight": 1.0, "intended_value": {"kind": "token", "value": "v"}}]},
    "record": {"task_id": "t", "condition": "FULL", "model_tag": "m",
               "mask": [{"dimension": "a", "m": 1}], "realized_values": {},
               "ga": 5, "s_icmw": 1.0, "f_icmw": 1.0},
    "audit": {"task_id": "t", "timestamp": TS, "encoded_dims": ["a"], "absent_dims": [],
              "private_at_risk": [], "structurally_recovered": ["a"],
              "fidelity_preserved": ["a"], "l_enc": 0.0, "s_icmw": 1.0, "f_icmw": 1.0,
              "d_drift": 0.0, "ga": 5, "split_zone": False, "privacy_source": "hint"},
}
MISSING = object()
BIG = 10 ** 400
LONG = "an integer of more than 20 digits"
U64 = f"[0, {2 ** 64 - 1}]"

# (document kind, where the value goes, the value or MISSING, message)
SCALAR_REFUSALS = {
    "spec-weight-negative": ("spec", ("dimensions", 0, "weight"), -0.5,
                             "$.dimensions[0].weight: must be a finite number >= 0, got -0.5"),
    "spec-weight-text": ("spec", ("dimensions", 0, "weight"), "1",
                         "$.dimensions[0].weight: must be a finite number >= 0, got '1'"),
    "spec-weight-401-digits": ("spec", ("dimensions", 0, "weight"), BIG,
                               "$.dimensions[0].weight: must be a finite number >= 0, "
                               f"got {LONG}"),
    "spec-weight-missing": ("spec", ("dimensions", 0, "weight"), MISSING,
                            "$.dimensions[0]: missing required field 'weight'"),
    "record-ga-0": ("record", ("ga",), 0, "$.ga: must be an integer in [1, 5], got 0"),
    "record-ga-float": ("record", ("ga",), 5.0, "$.ga: must be an integer in [1, 5], got 5.0"),
    "record-s_icmw": ("record", ("s_icmw",), 1.5,
                      "$.s_icmw: must be a finite number in [0, 1], got 1.5"),
    "record-f_icmw": ("record", ("f_icmw",), True,
                      "$.f_icmw: must be a finite number in [0, 1], got True"),
    "record-m-2": ("record", ("mask", 0, "m"), 2,
                   "$.mask[0].m: must be an integer in [0, 1], got 2"),
    "record-m-float-1": ("record", ("mask", 0, "m"), 1.0,
                         "$.mask[0].m: must be an integer in [0, 1], got 1.0"),
    "record-m-float-0": ("record", ("mask", 0, "m"), 0.0,
                         "$.mask[0].m: must be an integer in [0, 1], got 0.0"),
    "audit-ga": ("audit", ("ga",), 6, "$.ga: must be an integer in [1, 5], got 6"),
    "audit-l_enc-401-digits": ("audit", ("l_enc",), BIG,
                               f"$.l_enc: must be a finite number in [0, 1], got {LONG}"),
    "audit-s_icmw": ("audit", ("s_icmw",), "x",
                     "$.s_icmw: must be a finite number in [0, 1], got 'x'"),
    "audit-f_icmw": ("audit", ("f_icmw",), 1.5,
                     "$.f_icmw: must be a finite number in [0, 1], got 1.5"),
    "audit-d_drift": ("audit", ("d_drift",), -1,
                      "$.d_drift: must be a finite number in [0, 1], got -1"),
    "world-seed": ("world", ("seed",), -1, f"$.seed: must be an integer in {U64}, got -1"),
    "world-seed-401-digits": ("world", ("seed",), BIG,
                              f"$.seed: must be an integer in {U64}, got {LONG}"),
    "world-k": ("world", ("tasks", 0, "dims", 0, "K"), 2.0,
                "$.tasks[0].dims[0].K: must be an integer in [2, 1000000], got 2.0"),
    "world-k-missing": ("world", ("tasks", 0, "dims", 0, "K"), MISSING,
                        "$.tasks[0].dims[0]: missing required field 'K'"),
    "world-lambda": ("world", ("tasks", 0, "dims", 0, "lambda"), -0.5,
                     "$.tasks[0].dims[0].lambda: must be a finite number in [0, 1], got -0.5"),
    "world-lambda-missing": ("world", ("tasks", 0, "dims", 0, "lambda"), MISSING,
                             "$.tasks[0].dims[0]: missing required field 'lambda'"),
    "world-weight-401-digits": ("world", ("tasks", 0, "dims", 0, "weight"), BIG,
                                "$.tasks[0].dims[0].weight: must be a finite number >= 0, "
                                f"got {LONG}"),
    "world-weight-missing": ("world", ("tasks", 0, "dims", 0, "weight"), MISSING,
                             "$.tasks[0].dims[0]: missing required field 'weight'"),
    "experiment-seed": ("experiment", ("seed",), 2 ** 64,
                        f"$.seed: must be an integer in {U64}, got {2 ** 64}"),
    "experiment-budget": ("experiment", ("budget",), 1.5, "$.budget: must be an integer, got 1.5"),
    "experiment-replicates": ("experiment", ("replicates",), 0,
                              "$.replicates: must be an integer >= 1, got 0"),
    "experiment-count": ("experiment", ("perturbations", 2, "count"), "2",
                         "$.perturbations[2].count: must be an integer, got '2'"),
    "experiment-epsilon": ("experiment", ("perturbations", 1, "epsilon"), [0.1],
                           "$.perturbations[1].epsilon: must be a finite number, got [0.1]"),
    "experiment-epsilon-401-digits": ("experiment", ("perturbations", 1, "epsilon"), BIG,
                                      "$.perturbations[1].epsilon: must be a finite number, "
                                      f"got {LONG}"),
}


def scalar_doc(kind):
    if kind == "world":
        return {"seed": 1, **one_dim_world()}
    if kind == "experiment":
        return {"seed": 1, "budget": 1, "replicates": 1, "world_config": {"tasks": [
            {"task_id": "t", "dims": [{"id": i, "weight": 0.5, "K": 4, "lambda": 0.5}
                                      for i in "ab"]}]},
            "perturbations": ["identity", {"kind": "jitter", "epsilon": 0.1},
                              {"kind": "adjacent_swap", "count": 1}]}
    return json.loads(json.dumps(SCALAR_DOCS[kind]))


def scalar_refusal(capsys, tmp_path, kind, doc):
    """(exit code, stderr) of the subcommand that reads doc: output
    records, which no subcommand reads, go through read_records."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    if kind == "record":
        try:
            list(read_records(path))
        except SchemaError as e:
            return 2, f"error: {e}\n"
        return 0, ""
    argv = {"spec": ["validate", path], "audit": ["report", "--records", path],
            "world": ["tiil-check", "--world", path],
            "experiment": ["perturb", "--config", path]}[kind]
    code, _, err = run(capsys, *map(str, argv))
    return code, err


@pytest.mark.parametrize("kind", ["spec", "record", "audit", "world", "experiment"])
def test_each_scalar_document_is_valid_before_its_field_is_broken(capsys, tmp_path, kind):
    assert scalar_refusal(capsys, tmp_path, kind, scalar_doc(kind)) == (0, "")


@pytest.mark.parametrize("case", list(SCALAR_REFUSALS))
def test_every_integer_and_number_field_is_refused_in_one_form(capsys, tmp_path, case):
    # jsonio's _get_int and _get_number read every integer and number
    # field: one form with the bounds and the value, an integer of more
    # than 20 digits not echoed, and a missing field named as missing
    kind, where, value, message = SCALAR_REFUSALS[case]
    doc = scalar_doc(kind)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    if kind in ("record", "audit"):  # JSONL: the line comes first
        message = f"line 1: {message}"
    assert scalar_refusal(capsys, tmp_path, kind, doc) == (2, f"error: {message}\n")


def assert_input_error(code, err):
    assert code == 2, err
    assert err.startswith("error: ")
    assert not any(line.startswith("internal error") for line in err.splitlines())


# paths that name a directory rather than a readable or writable file;
# "DIR" stands for a directory that exists
BAD_PATHS = {
    "validate-directory": ["validate", "DIR"],
    "report-directory": ["report", "--records", "DIR"],
    "demo-out-directory": ["demo", "--timestamp", TS, "--out", "DIR"],
}


# files that json.loads cannot decode: every reader decodes in loads_strict
UNDECODABLE = {
    "not-utf8": (b"\xff\xfe{}", "not UTF-8"),
    "long-int": (b'{"seed": 1' + b"0" * 5000 + b"}", "integer literal longer than"),
    "deep-nesting": (b"[" * 100_000, "nested too deep"),
}
UNDECODABLE_CALLS = {
    "validate": ["validate", "FILE"],
    "tiil-check": ["tiil-check", "--world", "FILE"],
    "report": ["report", "--records", "FILE"],
    "audit": ["audit", "--spec", "FILE", "--carrier", DATA / "report_carrier.json",
              "--output", DATA / "report_output.json"],
}


@pytest.mark.parametrize("command", list(UNDECODABLE_CALLS))
@pytest.mark.parametrize("case", list(UNDECODABLE))
def test_undecodable_input_exits_2(capsys, tmp_path, case, command):
    data, fragment = UNDECODABLE[case]
    path = tmp_path / "input.json"
    path.write_bytes(b"\n" + data)
    argv = [str(path) if a == "FILE" else str(a) for a in UNDECODABLE_CALLS[command]]
    code, out, err = run(capsys, *argv)
    assert_input_error(code, err)
    assert fragment in err and out == ""
    if command == "report":
        assert err.startswith("error: line 2: ")


@pytest.mark.parametrize("case", list(BAD_PATHS))
def test_path_that_is_not_a_file_exits_2(capsys, tmp_path, case):
    argv = [str(tmp_path) if a == "DIR" else a for a in BAD_PATHS[case]]
    code, _, err = run(capsys, *argv)
    assert_input_error(code, err)


GRID = str(DATA / "perturb_grid.json")

# experiment configs that ablate and perturb must reject as input errors,
# with a fragment of the message each must print
BAD_EXPERIMENT_CONFIGS = {
    "world-path-number": ({"world_path": 5}, "world_path"),
    "world-path-directory": ({"world_path": "."}, "Is a directory"),
    "jitter-epsilon-text": ({"kind": "jitter", "epsilon": "abc"}, "perturbations[1]"),
    "jitter-epsilon-numeric-text": ({"kind": "jitter", "epsilon": "0.1"}, "perturbations[1]"),
    "jitter-unknown-field": ({"kind": "jitter", "eps": 0.1}, "perturbations[1]"),
    "swap-count-text": ({"kind": "adjacent_swap", "count": "x"}, "perturbations[1]"),
    "swap-count-list": ({"kind": "adjacent_swap", "count": [1]}, "perturbations[1]"),
    "swap-count-fraction": ({"kind": "adjacent_swap", "count": 1.7}, "perturbations[1]"),
    "swap-count-bool": ({"kind": "adjacent_swap", "count": True}, "perturbations[1]"),
    "identity-unknown-field": ({"kind": "identity", "count": 1}, "perturbations[1]"),
}


@pytest.mark.parametrize("command", ["ablate", "perturb"])
@pytest.mark.parametrize("case", list(BAD_EXPERIMENT_CONFIGS))
def test_bad_experiment_config_exits_2(capsys, tmp_path, command, case):
    item, fragment = BAD_EXPERIMENT_CONFIGS[case]
    doc = dict(item) if "world_path" in item else {
        "world_path": GRID, "perturbations": ["identity", item]}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, "--config", str(cfg),
                         "--out", str(tmp_path / "out.json"))
    assert_input_error(code, err)
    assert fragment in err
    assert out == ""


def one_dim_world(**dim):
    return {"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 1.0, "K": 4, "lambda": 0.5, **dim}]}]}


# experiment configs that parse_experiment_config refuses, with the whole
# message: (fields added to a valid config, or the whole document; message)
EXPERIMENT_CONFIG_REFUSALS = {
    "not-an-object": ([], "$: expected object, got list"),
    "perturbation-a-number": ({"perturbations": [3]},
                              "$.perturbations[0]: expected string or object, got int"),
    "perturbation-without-kind": ({"perturbations": [{"epsilon": 0.1}]},
                                  "$.perturbations[0]: missing required field 'kind'"),
    "jitter-epsilon-2": ({"perturbations": [{"kind": "jitter", "epsilon": 2}]},
                         "$.perturbations[0]: jitter epsilon must be in (0, 1), got 2.0"),
    "budget-a-string": ({"budget": "2"}, "$.budget: must be an integer, got '2'"),
    "zero-replicates": ({"replicates": 0}, "$.replicates: must be an integer >= 1, got 0"),
    "no-perturbations": ({"perturbations": []}, "$.perturbations: expected a non-empty array"),
    # null is not absence: each field is refused as a world's null seed is
    "null-seed": ({"seed": None},
                  f"$.seed: must be an integer in [0, {2 ** 64 - 1}], got None"),
    "null-budget": ({"budget": None}, "$.budget: must be an integer, got None"),
    "null-replicates": ({"replicates": None},
                        "$.replicates: must be an integer >= 1, got None"),
}


@pytest.mark.parametrize("case", list(EXPERIMENT_CONFIG_REFUSALS))
def test_experiment_config_refusal_exits_2_with_its_message(capsys, tmp_path, case):
    fields, message = EXPERIMENT_CONFIG_REFUSALS[case]
    config = fields if isinstance(fields, list) else \
        {"seed": 1, "world_config": one_dim_world(), **fields}
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        parse_experiment_config(path.read_bytes())
    assert err.value.path.startswith("$") and str(err.value) == message
    assert run(capsys, "perturb", "--config", str(path)) == (2, "", f"error: {message}\n")


# world configs that the world check refuses: (world config, message)
WORLD_CONFIG_REFUSALS = {
    # the weights sum to 1, so normalize_weights meets the negative one
    "negative-weight": ({"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 1.5, "K": 4, "lambda": 0.5},
        {"id": "b", "weight": -0.5, "K": 4, "lambda": 0.5}]}]},
        "$.tasks[0].dims[1].weight: must be a finite number >= 0, got -0.5"),
    "lambda-not-a-number": (one_dim_world(**{"lambda": "x"}),
                            "$.tasks[0].dims[0].lambda: must be a finite number in [0, 1], "
                            "got 'x'"),
    "id-not-a-string": (one_dim_world(id=3), "$.tasks[0].dims[0].id: expected string"),
    "k-zero": (one_dim_world(K=0),
               "$.tasks[0].dims[0].K: must be an integer in [2, 1000000], got 0"),
    "not-an-object": ([], "$: expected object, got list"),
}


@pytest.mark.parametrize("case", list(WORLD_CONFIG_REFUSALS))
def test_world_config_refusal_exits_2_with_its_message(capsys, tmp_path, case):
    # the world's own message, rooted at $.world_config when nested
    world, message = WORLD_CONFIG_REFUSALS[case]
    with pytest.raises(SchemaError) as err:
        build_world(world, seed=1)
    assert err.value.path.startswith("$") and str(err.value) == message
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"seed": 1, "world_config": world}), encoding="utf-8")
    assert run(capsys, "perturb", "--config", str(path)) == (
        2, "", f"error: $.world_config{message[1:]}\n")


# a world_path file's refusal is named by that file: (its text, message)
WORLD_PATH_REFUSALS = {
    "an-experiment-config": (json.dumps({"world_config": one_dim_world()}),
                             "w.json: $: unknown field 'world_config'"),
    "not-json": ('{"tasks": [}', "w.json: Expecting value (line 1, column 12)"),
}


@pytest.mark.parametrize("case", list(WORLD_PATH_REFUSALS))
def test_world_path_refusal_names_its_file(capsys, tmp_path, case):
    text, message = WORLD_PATH_REFUSALS[case]
    (tmp_path / "w.json").write_text(text, encoding="utf-8")
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"seed": 1, "world_path": "w.json"}), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        parse_experiment_config(path.read_bytes(), base_dir=tmp_path)
    assert err.value.path.startswith("w.json") and str(err.value) == message
    assert run(capsys, "perturb", "--config", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("field,value,perturb_code", [("budget", 99, 2), ("budget", 2, 0),
                                                      ("perturbations", ["full_inversion"], 0)])
def test_ablate_rejects_the_perturbation_fields(capsys, tmp_path, field, value, perturb_code):
    # ablate has no budget and no perturbation ladder: a config that sets
    # either exits 2 naming the field, where ablate used to ignore it;
    # perturb reads the same config as before
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"world_path": GRID, field: value}), encoding="utf-8")
    assert run(capsys, "ablate", "--config", str(cfg)) == (
        2, "", f"error: {field} applies only to perturb, not ablate\n")
    assert run(capsys, "perturb", "--config", str(cfg))[0] == perturb_code


def test_internal_error_names_the_subcommand(capsys, monkeypatch):
    import ist.cli as cli

    def boom(args):
        raise TypeError("unexpected None")

    # dispatch reads the module global when the parser is built
    monkeypatch.setattr(cli, "cmd_ablate", boom)
    code, out, err = run(capsys, "ablate")
    assert code == 3
    assert out == ""
    assert err == "internal error in ablate: TypeError: unexpected None\n"


def test_debug_prints_the_traceback_of_an_internal_error(capsys, monkeypatch):
    import ist.cli as cli

    def boom(args):
        raise TypeError("unexpected None")

    monkeypatch.setattr(cli, "cmd_report", boom)
    head = "internal error in report: TypeError: unexpected None\n"
    code, out, err = run(capsys, "report", "--records", "r.jsonl")
    assert (code, out, err) == (3, "", head)
    code, out, err = run(capsys, "--debug", "report", "--records", "r.jsonl")
    assert (code, out) == (3, "")
    assert err.startswith(head + "Traceback (most recent call last):\n")
    assert err.endswith("TypeError: unexpected None\n")
    assert 'raise TypeError("unexpected None")' in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_help_exits_0():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ist", "demo", "--timestamp", TS],
        capture_output=True, text=True)
    assert proc.returncode == 1
    rec = audit_record_from_obj(json.loads(proc.stdout))
    assert rec.split_zone is True
