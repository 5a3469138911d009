"""Probes the benchmark runs in fresh interpreters, one per process.

    python3 perfbench/child.py setup WORKLOAD DIR
        import ist.cli, then build that workload's inputs from DIR; no work
    python3 perfbench/child.py kernels
        fixed-input kernel rates, printed as one JSON object
    python3 perfbench/child.py calibrate
        a fixed pure-Python job that uses no part of ist, to gauge machine speed
    python3 perfbench/child.py trace SPANS_JSON ARG...
        run `ist ARG...` with spans around every public call, exit with its code

`src` must be on PYTHONPATH; the benchmark's runner sets it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# Fixed kernel inputs, as in benchmarks/bench_kernels.py.
ENTROPY_CELLS = 1_000_000
MATCH_DIMS, MATCH_K, MATCH_DRAWS = 8, 64, 20_000
KERNEL_REPEATS = 3
CALIBRATION_ITEMS = 20_000


def setup(workload: str, tmp: Path) -> None:
    import ist.cli  # noqa: F401  (the import is what is measured)
    from ist.spec_io import parse_carrier, parse_intent_spec, parse_output_document
    from ist.worlds import load_world

    if workload == "audit-gate":
        parse_intent_spec((tmp / "audit_000_spec.json").read_bytes())
        parse_carrier((tmp / "audit_000_carrier.json").read_bytes())
        parse_output_document((tmp / "audit_000_output.json").read_bytes())
    else:
        world = {"ablate-sample": "ablate_world.json",
                 "perturb-wide": "perturb_world.json",
                 "tiil-oracle": "tiil_world.json"}[workload]
        load_world(tmp / world)


def _median_time(fn) -> float:
    fn()  # warm-up, as the original script does
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def kernels() -> dict:
    import numpy as np

    from ist._kernels import entropy_bits, match_counts

    rng = np.random.default_rng(1)
    p = rng.random(ENTROPY_CELLS)
    p /= p.sum()
    entropy_s = _median_time(lambda: entropy_bits(p))

    rng = np.random.default_rng(2)
    cdfs = np.ones((MATCH_DIMS, MATCH_K))
    for row in range(MATCH_DIMS):
        raw = rng.random(MATCH_K) + 0.05
        cdf = np.cumsum(raw / raw.sum())
        cdf[-1] = 1.0
        cdfs[row] = cdf
    dim_ixs = np.arange(MATCH_DIMS, dtype=np.int64)
    user_ixs = rng.integers(0, MATCH_K, size=MATCH_DIMS).astype(np.int64)
    ks = np.full(MATCH_DIMS, MATCH_K, dtype=np.int64)
    match_s = _median_time(lambda: match_counts(
        12345, 0, dim_ixs, user_ixs, cdfs, ks, MATCH_DRAWS))
    return {"kernels.entropy_bits.fixed_cells_per_s": ENTROPY_CELLS / entropy_s,
            "kernels.match_counts.fixed_draws_per_s":
                MATCH_DIMS * MATCH_DRAWS / match_s}


def calibrate() -> float:
    """Dict, string, JSON and float work of the kind the CLI does, never changed."""
    docs = {}
    for i in range(CALIBRATION_ITEMS):
        docs[f"key{i}"] = json.dumps({"a": i * 0.5, "b": [i, str(i)], "c": {"x": i % 7}})
    total = 0.0
    for key in sorted(docs):
        obj = json.loads(docs[key])
        total += obj["a"] * (obj["c"]["x"] + 1)
    return total


def trace(spans_path: str, argv: list[str]) -> int:
    from spans import Tracer

    t0 = time.perf_counter()
    import ist.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = ist.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s=import_s)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], Path(argv[2]))
        return 0
    if argv == ["kernels"]:
        print(json.dumps(kernels()))
        return 0
    if argv == ["calibrate"]:
        print(calibrate())
        return 0
    if argv[:1] == ["trace"] and len(argv) >= 3:
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
