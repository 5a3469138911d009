"""Golden bytes: sha256 of ablate, perturb and tiil-check output on the
packaged data and on tests/data/mixed_experiment.json, ladder_experiment.json
and tiil_world.json.

The digests pin the record and report bytes, so a change that moves any
of them fails here, however it is made; a change that means to move them
must update these digests and say why.
"""

import hashlib

import pytest

from ist.cli import main

from conftest import TESTS_DATA, mixed_ablation_config, run_ist

ABLATE_ARGMAX_RECORDS = "bef5d9fbdcfe2321dedb1dcdfa70d815759ab0f430a93988ca58133015253f79"
ABLATE_ARGMAX_SUMMARY = "8780a9be568b71345fbc535cc207315d06f0781d25abc877752049f3fa225a2f"
ABLATE_SAMPLE_RECORDS = "0b8802c55e1ef0ee62950b0772288d824d8a673a25fe128f7675a455ad499883"
ABLATE_SAMPLE_SUMMARY = "ff9dd1b6616641d3f0e19c312ab6a114026262c02686aa8027fc71d140c55864"
PERTURB_REPORT = "c7bb06f8b6e89c25f0f587bf4405f0ee1be3f4328f69ad38428ccf9d6161a668"
PERTURB_SAMPLE_REPORT = "9997e04d51b4d088601f4f3988259edeee8c7abd0b49315ccc5db11399478765"
# the mixed world: 1-9 dims per task, K in {2, 3, 10, 64, 200}, lambda in
# {0, 5e-324, 1e-17, 0.5, 1}, so sampling pads CDFs within and across tasks
MIXED_ABLATE_RECORDS = "4fdad26d169563de38e2d67f82297b2c0190a0e03a7709ab3f7511ee7538c5e2"
MIXED_ABLATE_SUMMARY = "06bba41bcf0a547d47a5270d37124909b5ffaf5afd2c14b69b585218887592df"
MIXED_PERTURB_REPORT = "c16d5ddd0d99ef66e9f8d43370d08be97bb9cec3ec7d7c6582a014f08425d6e2"
# the ladder world: 4-9 dims per task in mixed order, tied and zero weights,
# an explicit budget of 2 and a ladder without identity (so the inserted
# baseline is reported), with adjacent_swap(2)
LADDER_PERTURB_SAMPLE_REPORT = "2c47ccaa4e3b5d7aac041e0d1b82320e8c5d5a73fa006035f86d3a736b96e7a4"
LADDER_PERTURB_REPORT = "d76eec50ed73a0e1aefdf80fec85a3258eaa008db50267ba6c326aef78839074"
LADDER_CONFIG = TESTS_DATA / "ladder_experiment.json"
# tiil-check on the packaged world (decoder seed 0) and on the tiil world:
# K in {2, 4, 10, 32, 64} against lambda in {0, 5e-324, 1e-17, 0.3, 1}, every
# pair once over five tasks and a sixth that repeats three channels. The
# json digests pin bayes_accuracy and chance correctly rounded, and every
# I(v; g) with H(v) taken from the channel's v marginal.
TIIL_CONFIG = TESTS_DATA / "tiil_world.json"
TIIL_CASES = {
    "demo-text": ([], "470c99056fd359faa0c836f974e108e2da9ecd541a72ec2671cf5a2609c4f41f"),
    "demo-json": (["--format", "json"],
                  "8fa1278bfb71bf3034734660df26540ec47a7eceea79db967149487b694fc48a"),
    "mixed-text": (["--world", str(TIIL_CONFIG), "--seed", "5"],
                   "b1d366e774daa675fdbfd433afe9b071b5fc39435e6bd9d50c6816c782fcdc06"),
    "mixed-json": (["--world", str(TIIL_CONFIG), "--seed", "5", "--format", "json"],
                   "6820244460881819f9e19b95ae8dd440f3f7254ed0ebdc26c08c631d7fc4e3fc"),
}

ABLATE_CASES = {
    "argmax": ([], ABLATE_ARGMAX_RECORDS, ABLATE_ARGMAX_SUMMARY),
    "sample-r3": (["--mode", "sample", "--replicates", "3"],
                  ABLATE_SAMPLE_RECORDS, ABLATE_SAMPLE_SUMMARY),
}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", list(ABLATE_CASES))
def test_ablate_golden_bytes(capsys, tmp_path, case):
    args, records, summary = ABLATE_CASES[case]
    # records to stdout, summary to stderr
    assert main(["ablate", "--seed", "1", *args]) == 0
    captured = capsys.readouterr()
    assert (sha256(captured.out), sha256(captured.err)) == (records, summary)
    # records to --out, summary to stdout
    out = tmp_path / "records.jsonl"
    assert main(["ablate", "--seed", "1", *args, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (sha256(out.read_bytes()), sha256(captured.out)) == (records, summary)
    assert captured.err == ""


def test_perturb_golden_bytes(capsys, tmp_path):
    assert main(["perturb", "--seed", "1"]) == 0
    assert sha256(capsys.readouterr().out) == PERTURB_REPORT
    out = tmp_path / "report.json"
    assert main(["perturb", "--seed", "1", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == PERTURB_REPORT
    assert capsys.readouterr().out == ""


def test_perturb_sample_golden_bytes(capsys):
    # sample mode hashes a token per draw; argmax repeats each prior default
    assert main(["perturb", "--seed", "1", "--mode", "sample", "--replicates", "3"]) == 0
    assert sha256(capsys.readouterr().out) == PERTURB_SAMPLE_REPORT


def test_mixed_world_golden_bytes(capsys, tmp_path):
    # ablate runs the same world and seed without the perturbation ladder
    sample = ["--mode", "sample", "--replicates", "3"]
    assert main(["ablate", "--config", str(mixed_ablation_config(tmp_path)), *sample]) == 0
    captured = capsys.readouterr()
    assert (sha256(captured.out), sha256(captured.err)) == (
        MIXED_ABLATE_RECORDS, MIXED_ABLATE_SUMMARY)
    assert main(["perturb", "--config", str(TESTS_DATA / "mixed_experiment.json"),
                 *sample]) == 0
    assert sha256(capsys.readouterr().out) == MIXED_PERTURB_REPORT


@pytest.mark.parametrize("args,digest", [
    (["--mode", "sample", "--replicates", "3"], LADDER_PERTURB_SAMPLE_REPORT),
    ([], LADDER_PERTURB_REPORT),
])
def test_ladder_world_golden_bytes(capsys, args, digest):
    assert main(["perturb", "--config", str(LADDER_CONFIG), *args]) == 0
    assert sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("case", list(TIIL_CASES))
def test_tiil_check_golden_bytes(capsys, case):
    # the json report pins every float of the oracle bit for bit; the text
    # report pins the rounding and layout the CLI prints
    args, digest = TIIL_CASES[case]
    assert main(["tiil-check", *args]) == 0
    captured = capsys.readouterr()
    assert sha256(captured.out) == digest
    assert captured.err == ""


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_perturb_bytes_do_not_depend_on_the_hash_seed(hash_seed):
    # tasks are planned in groups by dimension count; grouping that
    # iterated a set or a str-keyed hash order would leak into the bytes
    proc = run_ist("perturb", "--config", LADDER_CONFIG, "--mode", "sample",
                   "--replicates", "3", hash_seed=hash_seed)
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == LADDER_PERTURB_SAMPLE_REPORT


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_ablate_bytes_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    # a cache keyed by str would leak hash order into the bytes here
    out = tmp_path / "records.jsonl"
    proc = run_ist("ablate", "--seed", "1", "--mode", "sample", "--replicates", "3",
                   "--out", out, hash_seed=hash_seed)
    assert proc.returncode == 0, proc.stderr
    assert (sha256(out.read_bytes()), sha256(proc.stdout)) == (
        ABLATE_SAMPLE_RECORDS, ABLATE_SAMPLE_SUMMARY)


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_tiil_check_bytes_do_not_depend_on_the_hash_seed(hash_seed):
    # channels are grouped in a dict keyed by (K, lambda) and a channel's
    # tasks are deduplicated in first-seen order; neither may follow str hashes
    for case in ("mixed-text", "mixed-json"):
        args, digest = TIIL_CASES[case]
        proc = run_ist("tiil-check", *args, hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stderr
        assert (sha256(proc.stdout), proc.stderr) == (digest, ""), case
