"""Seeded inputs for the benchmark workloads.

Every file the program reads is written here from one `random.Random(seed)`,
so the same seed gives the same bytes. The generator also predicts what a
correct program must answer where that is cheap to know (the audit gate's
exit code), and reports each workload's input properties.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# ablate-sample: ROADMAP's 100 x 8 world, K=10, lambda alternating 0/1.
ABLATE_TASKS, ABLATE_DIMS, ABLATE_K, ABLATE_REPLICATES = 100, 8, 10, 5
# perturb-wide: many tasks, so the per-call task lookup shows.
PERTURB_TASKS, PERTURB_DIMS, PERTURB_K, PERTURB_REPLICATES = 1000, 6, 10, 3
PERTURB_LADDER = 4  # identity, jitter, adjacent_swap, full_inversion
# tiil-oracle: K cycles over TIIL_KS, lambda is drawn from TIIL_LAMBDAS.
TIIL_TASKS, TIIL_DIMS = 50, 8
TIIL_KS = (4, 10, 32, 64)
TIIL_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# audit-gate: every ORACLE_EVERY-th triple has no hints and uses the world.
AUDIT_TRIPLES, AUDIT_DIMS, ORACLE_EVERY = 100, 8, 4
ORACLE_TASKS, ORACLE_K = 100, 10
REPORT_LINES = 5000
SPLIT_THRESHOLD = 0.8  # the program's default split-zone cut on f_icmw
SPLIT_MARGIN = 0.01    # generated f_icmw stays this far from the cut

WEIGHT_UNITS = 1_000_000


def _weights(rng: random.Random, n: int) -> list[float]:
    """n positive weights, multiples of 1e-6 that sum to exactly 1e6 units."""
    raw = [rng.random() + 0.05 for _ in range(n)]
    total = sum(raw)
    units = [round(x / total * WEIGHT_UNITS) for x in raw[:-1]]
    units.append(WEIGHT_UNITS - sum(units))
    return [u / WEIGHT_UNITS for u in units]


def _world(rng: random.Random, tag: str, n_tasks: int, n_dims: int,
           channel) -> dict:
    """World config; channel(task_ix, dim_ix) gives the dim's (K, lambda)."""
    tasks = []
    for t in range(n_tasks):
        weights = _weights(rng, n_dims)
        dims = []
        for i in range(n_dims):
            k, lam = channel(t, i)
            dims.append({"id": f"d{i}", "weight": weights[i], "K": k,
                         "lambda": lam})
        tasks.append({"task_id": f"{tag}-{t:04d}", "dims": dims})
    return {"tag": tag, "seed": rng.randrange(1, 2 ** 31), "tasks": tasks}


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _channel_properties(world: dict) -> dict:
    channels = [(d["K"], d["lambda"]) for t in world["tasks"] for d in t["dims"]]
    distinct = len(set(channels))
    return {"channels_distinct": distinct,
            "channel_repeat_share": round(1 - distinct / len(channels), 4)}


def ablate_world(seed: int, out: Path) -> tuple[Path, dict]:
    rng = random.Random(seed)
    world = _world(rng, "ablate", ABLATE_TASKS, ABLATE_DIMS,
                   lambda t, i: (ABLATE_K, float(i % 2)))
    path = _write(out / "ablate_world.json", world)
    records = ABLATE_TASKS * (ABLATE_DIMS + 1) * ABLATE_REPLICATES
    return path, {"tasks": ABLATE_TASKS, "dims": ABLATE_TASKS * ABLATE_DIMS,
                  "replicates": ABLATE_REPLICATES, "records": records,
                  "records_per_task_spec": records // ABLATE_TASKS,
                  **_channel_properties(world)}


def perturb_world(seed: int, out: Path) -> tuple[Path, dict]:
    rng = random.Random(seed)
    # half private (lambda 0), half public (lambda 1), like the packaged grid
    world = _world(rng, "perturb", PERTURB_TASKS, PERTURB_DIMS,
                   lambda t, i: (PERTURB_K, float(i >= PERTURB_DIMS // 2)))
    path = _write(out / "perturb_world.json", world)
    outputs = PERTURB_TASKS * (PERTURB_LADDER + 1) * PERTURB_REPLICATES
    return path, {"tasks": PERTURB_TASKS, "dims": PERTURB_TASKS * PERTURB_DIMS,
                  "replicates": PERTURB_REPLICATES, "outputs": outputs,
                  "cells": PERTURB_TASKS * PERTURB_LADDER,
                  **_channel_properties(world)}


def tiil_world(seed: int, out: Path) -> tuple[Path, dict]:
    rng = random.Random(seed)
    world = _world(rng, "tiil", TIIL_TASKS, TIIL_DIMS,
                   lambda t, i: (TIIL_KS[(t * TIIL_DIMS + i) % len(TIIL_KS)],
                                 rng.choice(TIIL_LAMBDAS)))
    path = _write(out / "tiil_world.json", world)
    return path, {"tasks": TIIL_TASKS, "dims": TIIL_TASKS * TIIL_DIMS,
                  **_channel_properties(world)}


@dataclass(frozen=True)
class AuditTriple:
    spec: Path
    carrier: Path
    output: Path
    oracle: bool        # no privacy hints; labels come from --world
    split_zone: bool    # predicted: every slot filled, so exit 1 iff f < 0.8


def _audit_triple(rng: random.Random, out: Path, ix: int, task_id: str,
                  weights: list[float], oracle: bool) -> AuditTriple:
    ids = [f"d{i}" for i in range(len(weights))]
    intended = {d: f"intended value {ix}.{d}" for d in ids}
    encoded = [d for d in ids if rng.random() < 0.5]
    while True:
        match = {d: d in encoded or rng.random() < 0.7 for d in ids}
        f_icmw = math.fsum(w for d, w in zip(ids, weights) if match[d])
        if abs(f_icmw - SPLIT_THRESHOLD) > SPLIT_MARGIN:
            break
    dims = []
    for d, w in zip(ids, weights):
        dim = {"id": d, "weight": w,
               "intended_value": {"kind": "text", "value": intended[d]}}
        if not oracle:
            dim["privacy_hint"] = rng.choice(("public", "private"))
        dims.append(dim)
    spec = {"format_version": "1", "task_id": task_id, "task_type": "report",
            "dimensions": dims}
    carrier = {"task_id": task_id, "encoded_dimensions": encoded,
               "text": f"carrier {ix}"}
    realized = {d: {"kind": "text",
                    "value": intended[d] if match[d] else f"generic {ix}.{d}"}
                for d in ids}
    output = {"task_id": task_id, "realized_values": realized,
              "text": f"output {ix}"}
    return AuditTriple(
        spec=_write(out / f"audit_{ix:03d}_spec.json", spec),
        carrier=_write(out / f"audit_{ix:03d}_carrier.json", carrier),
        output=_write(out / f"audit_{ix:03d}_output.json", output),
        oracle=oracle,
        split_zone=f_icmw < SPLIT_THRESHOLD)


def audit_inputs(seed: int, out: Path) -> tuple[Path, list[AuditTriple], dict]:
    rng = random.Random(seed)
    # continuous lambda: no two oracle dims share a (K, lambda) channel
    world = _world(rng, "oracle", ORACLE_TASKS, AUDIT_DIMS,
                   lambda t, i: (ORACLE_K, rng.random()))
    world_path = _write(out / "oracle_world.json", world)
    triples = []
    for ix in range(AUDIT_TRIPLES):
        if ix % ORACLE_EVERY == ORACLE_EVERY - 1:
            task = world["tasks"][ix // ORACLE_EVERY]
            weights = [d["weight"] for d in task["dims"]]
            triples.append(_audit_triple(rng, out, ix, task["task_id"],
                                         weights, oracle=True))
        else:
            triples.append(_audit_triple(rng, out, ix, f"audit-{ix:03d}",
                                         _weights(rng, AUDIT_DIMS),
                                         oracle=False))
    props = {"triples": AUDIT_TRIPLES, "dims_per_triple": AUDIT_DIMS,
             "oracle_call_share": 1 / ORACLE_EVERY,
             "oracle_world_tasks": ORACLE_TASKS,
             "predicted_split_share": round(
                 sum(t.split_zone for t in triples) / AUDIT_TRIPLES, 4),
             "report_lines": REPORT_LINES,
             **{f"oracle_{k}": v for k, v in _channel_properties(world).items()}}
    return world_path, triples, props
