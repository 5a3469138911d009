"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS line
with the measured numbers (visible even without -s); a failure shows up
both as a FAIL line and as the pytest assertion.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np

from ist.cli import main as cli_main
from ist.experiments import (
    estimate_weights_by_ablation,
    run_weight_perturbation,
)
from ist.infotheory import (
    DiscreteJoint,
    bayes_decoder,
    entropy,
    mutual_information,
    random_deterministic_decoder,
    verify_dpi,
)
from ist.audit import audit_record_from_obj
from ist.metrics import DimensionScores, build_bundle, encoding_loss, score_output
from ist.jsonio import loads_strict, normalize_weights
from ist.model import Carrier, EncodingMask as Mask, flatten
from ist.spec_io import (
    OutputRecord,
    parse_carrier,
    parse_intent_spec,
    record_from_obj,
    record_to_line,
    serialize_carrier,
    serialize_intent_spec,
)
from ist.worlds import (
    build_world,
    expected_f_icmw,
    mask_without,
    mc_mean_f_icmw,
    simulate_output,
)
from ist.tiil import classify_privacy, tiil_check

from conftest import ablation_records, all_private_config, random_spec
from reference import constant_decoder, to_intent_spec

TS = "2026-08-15T00:00:00Z"


def report(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1: metric identities under fuzz -----------------------------------------

def test_metric_identity_fuzz(capsys):
    rng = random.Random(1001)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 24)
        w = normalize_weights([rng.uniform(0.001, 1.0) for _ in range(n)])
        r = [rng.random() for _ in range(n)]
        f = [ri * rng.random() for ri in r]  # f <= r pointwise
        bits = [rng.randint(0, 1) for _ in range(n)]
        dims = tuple(f"d{i}" for i in range(n))
        mask = Mask(dims, tuple(bits))
        bundle = build_bundle(w, DimensionScores(dims, tuple(r), tuple(f)),
                              mask)
        assert 0.0 <= bundle.l_enc <= 1.0
        assert 0.0 <= bundle.s_icmw <= 1.0
        assert 0.0 <= bundle.f_icmw <= 1.0
        assert 0.0 <= bundle.d_drift <= 1.0
        assert bundle.d_drift + bundle.f_icmw == 1.0
        assert bundle.f_icmw <= bundle.s_icmw
        zeros = [i for i, b in enumerate(bits) if b == 0]
        if zeros:
            i = rng.choice(zeros)
            up = list(bits)
            up[i] = 1
            assert encoding_loss(w, Mask(dims, tuple(up))) <= bundle.l_enc
        checked += 1
    dt = time.perf_counter() - t0
    report(capsys, "metric-identity-fuzz", checked == 10_000 and dt < 5.0,
           f"{checked} instances, all identities exact, {dt:.2f}s (< 5s)")


# -- 2: data processing inequality battery -----------------------------------

def _random_joint(rng, n_vars):
    shape = tuple(rng.randint(2, 6) for _ in range(n_vars))
    table = np.array([rng.random() for _ in range(int(np.prod(shape)))])
    table /= table.sum()
    names = tuple(f"x{i}" for i in range(n_vars))
    return DiscreteJoint(names, table.reshape(shape))


def test_dpi_battery(capsys):
    rng = random.Random(2002)
    t0 = time.perf_counter()
    trials = 0
    for joint_ix in range(120):
        j = _random_joint(rng, rng.randint(2, 4))  # v plus <= 3 evidence vars
        v = j.variables[0]
        ev = j.variables[1:]
        sizes = tuple(j.size(n) for n in ev)
        out_size = j.size(v)
        for dec in (constant_decoder(ev, sizes, out_size),
                    random_deterministic_decoder(ev, sizes, out_size,
                                                 seed=joint_ix),
                    bayes_decoder(j, v, ev)):
            rep = verify_dpi(j, dec)
            assert rep.holds and rep.slack >= -1e-9
            trials += 1
        mi = mutual_information(j, v, ev)
        assert mi >= 0.0
        assert abs(mi - mutual_information(j, ev, v)) < 1e-12
        assert mi <= min(entropy(j.marginal(v)),
                         entropy(j.marginal(*ev))) + 1e-9
    dt = time.perf_counter() - t0
    report(capsys, "dpi-battery",
           trials == 360 and dt < 10.0,
           f"120 joints x 3 decoder families = {trials} trials, "
           f"0 violations, {dt:.2f}s (< 10s)")


# -- 3: generic-substitution bound on flat-prior dimensions -------------------

def test_generic_substitution_bound(capsys):
    worlds = 0
    for seed in range(20):
        k = 4 + (seed % 10)
        cfg = {"tasks": [{"task_id": "w", "dims": [
            {"id": "priv", "weight": 0.5, "K": k, "lambda": 0.0},
            {"id": "pub", "weight": 0.5, "K": 6, "lambda": 1.0}]}]}
        world = build_world(cfg, seed=seed)
        out = tiil_check(world, seed=seed)
        assert out["all_hold"] is True
        entry = next(d for d in out["dims"] if d["dimension"] == "priv")
        chance = entry["chance"]
        assert entry["bayes_accuracy"] <= chance + 1e-9
        for row in entry["decoders"]:
            assert row["accuracy"] <= chance + 1e-9
            assert row["i_v_g"] <= 1e-9
            assert row["ok"]
        worlds += 1
    report(capsys, "generic-substitution-bound", worlds == 20,
           f"{worlds} flat-prior worlds, every decoder at chance, "
           "all leaked bits <= 1e-9")


# -- 4: structural-fidelity split on the shipped demo world -------------------

def test_split_mechanism_demo_world(capsys, demo_world_config):
    world = build_world(demo_world_config)
    task = world.tasks[0]
    private = {"why", "who", "how_to", "how_feel"}
    mask = mask_without(task, private)
    spec = to_intent_spec(task)
    n_outputs = 100
    split = 0
    for draw in range(n_outputs):
        out = simulate_output(world, task.task_id, mask, mode="argmax",
                              draw=draw)
        scores = score_output(spec, out.realized_values)
        bundle = build_bundle(task.weights, scores, mask)
        assert bundle.ga == 5
        assert bundle.f_icmw <= 0.64
        if bundle.split_zone:
            split += 1
    want = expected_f_icmw(world, task.task_id, mask, mode="sample")
    got = mc_mean_f_icmw(world, task.task_id, mask, n=10_000)
    mc_ok = abs(got - want) < 0.015
    report(capsys, "split-mechanism",
           split == n_outputs and mc_ok,
           f"split-zone rate {split}/{n_outputs}, ga=5 throughout, "
           f"MC mean {got:.5f} vs analytic {want:.5f} "
           f"(|diff| {abs(got - want):.5f} < 0.015)")


# -- 5: plateau plus cliff under weight perturbation --------------------------

def test_plateau_and_cliff(capsys, grid_config):
    t0 = time.perf_counter()
    world = build_world(grid_config)
    rep = run_weight_perturbation(world)
    dt = time.perf_counter() - t0
    n_tasks = len(world.tasks)
    inversion = [c for c in rep.cells if c.perturbation == "full_inversion"]
    strict = sum(1 for c in inversion if c.delta_vs_baseline < 0)
    preserved = [c for c in rep.cells
                 if c.perturbation != "identity" and not c.mask_changed]
    exact_zero = all(c.delta_vs_baseline == 0.0 for c in preserved)
    ok = (rep.plateau_rate == 1.0 and exact_zero
          and strict == n_tasks == len(inversion)
          and rep.cliff_rate == 1.0
          and rep.mean_inversion_drop >= 0.1
          and dt < 30.0)
    report(capsys, "plateau-and-cliff", ok,
           f"{len(preserved)} order-preserving cells all at delta=0 exactly; "
           f"inversion strictly worse in {strict}/{n_tasks} cells, "
           f"mean drop {rep.mean_inversion_drop:.3f} (>= 0.1), {dt:.2f}s (< 30s)")


# -- 6: weight recovery by ablation -------------------------------------------

def test_weight_recovery(capsys):
    true_w = (0.5, 0.3, 0.2)

    world = build_world(all_private_config(true_w, k=1000, seed=1))
    records = ablation_records(world, mode="argmax")
    got = estimate_weights_by_ablation(records)
    l1_analytic = sum(abs(got[f"d{i}"] - w) for i, w in enumerate(true_w))

    world_s = build_world(all_private_config(true_w, k=10, seed=1))
    got_s = estimate_weights_by_ablation(
        ablation_records(world_s, mode="sample", replicates=2000))
    l1_sample = sum(abs(got_s[f"d{i}"] - w) for i, w in enumerate(true_w))

    ok = l1_analytic <= 1e-9 and l1_sample <= 0.02
    report(capsys, "weight-recovery", ok,
           f"analytic L1 {l1_analytic:.2e} (<= 1e-9), "
           f"sampling L1 {l1_sample:.4f} (<= 0.02, 2000 reps/condition)")


# -- 7: privacy boundary migrates monotonically in prior sharpness ------------

def test_privacy_boundary_sweep(capsys):
    combos = 0
    for k in (2, 4, 10, 20):
        for theta in (0.7, 0.8, 0.9):
            labels = []
            accs = []
            for i in range(21):
                lam = i / 20
                cfg = {"tasks": [{"task_id": "t", "dims": [
                    {"id": "d", "weight": 1.0, "K": k, "lambda": lam}]}]}
                v = classify_privacy(build_world(cfg, seed=3), "t", "d",
                                     theta_pub=theta)
                labels.append(v.label)
                accs.append(v.bayes_accuracy)
            assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
            flips = [i for i in range(1, 21) if labels[i] != labels[i - 1]]
            assert len(flips) == 1
            assert labels[0] == "private" and labels[20] == "public"
            # the flip happens exactly where accuracy first clears both gates
            chance = 1.0 / k
            predicted = next(
                i for i in range(21)
                if accs[i] >= theta and accs[i] >= chance + 0.1)
            assert flips[0] == predicted
            combos += 1
    report(capsys, "privacy-boundary-sweep", combos == 12,
           f"{combos} (K, theta_pub) combos, exactly one private->public "
           "flip each, at the predicted threshold")


# -- 8: I/O contracts and the demo pipeline -----------------------------------

def test_io_round_trips_and_demo(capsys, tmp_path):
    rng = random.Random(8008)
    n = 1000
    for i in range(n):
        spec = random_spec(rng)
        blob = serialize_intent_spec(spec)
        again = parse_intent_spec(blob)
        assert serialize_intent_spec(again) == blob
        assert again == parse_intent_spec(serialize_intent_spec(again))

        flat = flatten(spec)
        subset = frozenset(d.id for d in flat if rng.random() < 0.5)
        carrier = Carrier(task_id=spec.task_id, text=None,
                          encoded_dimensions=subset)
        cblob = serialize_carrier(carrier)
        assert serialize_carrier(parse_carrier(cblob)) == cblob

        rec = OutputRecord(
            task_id=spec.task_id, condition="FULL", model_tag="fuzz",
            mask=Mask(tuple(d.id for d in flat),
                      tuple(1 if d.id in subset else 0 for d in flat)),
            realized_values={d.id: d.intended_value for d in flat},
            ga=rng.randint(1, 5), s_icmw=rng.random(), f_icmw=rng.random())
        line = record_to_line(rec)
        assert record_to_line(record_from_obj(loads_strict(line))) == line

    proc = subprocess.run(
        [sys.executable, "-m", "ist", "demo", "--timestamp", TS,
         "--max-drift", "0.2"],
        capture_output=True, text=True)
    demo_ok = proc.returncode == 1
    for line in proc.stdout.strip().split("\n"):
        audit_record_from_obj(json.loads(line))  # schema-valid or raises

    bad = tmp_path / "malformed.json"
    bad.write_text("{nope", encoding="utf-8")
    malformed_ok = cli_main(["validate", str(bad)]) == 2
    capsys.readouterr()

    report(capsys, "io-round-trips",
           demo_ok and malformed_ok,
           f"{n} spec/carrier/record round trips byte-identical; "
           f"demo exit {proc.returncode} (want 1) with schema-valid records; "
           "malformed input exits 2")


# -- 9: parallelism does not change bytes --------------------------------------

def test_parallel_determinism(capsys, tmp_path):
    files = {}
    for jobs in (1, 4):
        out = tmp_path / f"ablate-{jobs}.jsonl"
        assert cli_main(["ablate", "--seed", "1", "--jobs", str(jobs),
                         "--out", str(out)]) == 0
        files[jobs] = out.read_bytes()
    ablate_ok = files[1] == files[4]

    reports = {}
    for jobs in (1, 3):
        out = tmp_path / f"perturb-{jobs}.json"
        assert cli_main(["perturb", "--seed", "1", "--jobs", str(jobs),
                         "--out", str(out)]) == 0
        reports[jobs] = out.read_bytes()
    perturb_ok = reports[1] == reports[3]
    capsys.readouterr()

    report(capsys, "parallel-determinism", ablate_ok and perturb_ok,
           f"ablate bytes equal across --jobs 1/4: {ablate_ok}; "
           f"perturb bytes equal across --jobs 1/3: {perturb_ok}")
