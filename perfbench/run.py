#!/usr/bin/env python3
"""Seeded benchmark of the `ist` command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ablate-sample --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 [--out FILE]

Each run generates its workload's inputs from --seed under .perfbench_tmp/
and runs the CLI (`python3 -m ist`, with src/ on PYTHONPATH) on them in
fresh subprocesses, one call at a time: a closed loop with one client.

--trace 0 times the workload's calls for --seconds and reports the
end-to-end metrics of BENCHMARK.json. --trace 1 runs a fixed set of the
same calls once plainly and once under perfbench/spans.py, and reports
the per-layer metrics, with the tracing overhead. Every call's output is
checked; a failed check counts against the calls attempted.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every
workload both ways and prints one table row per workload instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402

ROOT = Path.cwd()
TMP_ROOT = ROOT / ".perfbench_tmp"
RUN_BUDGET_S = 120     # no new timed round starts past this, whatever --seconds says
RUN_LIMIT_S = 165      # a call still running this long after the run began is killed
SETUP_REPEATS = 8
# The gated times are scaled by CALIBRATION_REF_S / (median time of a fixed
# pure-Python child, `child.py calibrate`, run CALIBRATION_REPEATS times
# through the run). On a shared machine whose speed drifts by 10-20% over
# minutes, this halves the run-to-run spread. The reference is that child's
# median time on the 2-core machine BENCH_1.json was recorded on.
CALIBRATION_REPEATS = 12
CALIBRATION_REF_S = 0.25
AUDIT_TIMESTAMP = "2026-01-01T00:00:00Z"
OUT = object()         # placeholder for a fresh --out path in CLI arguments


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


@dataclass
class Row:
    """One reported metric: its value and the samples it was taken from."""

    unit: str
    value: float
    samples: list[float]

    def text(self) -> str:
        q1, q3 = quartiles(self.samples)
        return f"{self.value:.6g} [{q1:.4g}-{q3:.4g}] n={len(self.samples)}"

    def obj(self) -> dict:
        q1, q3 = quartiles(self.samples)
        return {"unit": self.unit, "value": self.value, "n": len(self.samples),
                "q1": q1, "q3": q3}


def median_row(unit: str, samples: list[float]) -> Row:
    return Row(unit, statistics.median(samples), samples)


# ---------------------------------------------------------------------------
# running child processes
# ---------------------------------------------------------------------------

@dataclass
class Call:
    code: int
    out: bytes      # stdout, or the --out file's bytes when the call wrote one
    err: bytes
    wall_s: float   # spawn to exit
    spans: dict | None = None


class Runner:
    """Runs one child process at a time and keeps the run's tallies."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.perf_counter() + RUN_LIMIT_S   # the run must end within 180 s
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0

    def run(self, argv: list[str]) -> Call:
        self._n += 1
        out_path, err_path = self.tmp / f"stdout.{self._n}", self.tmp / f"stderr.{self._n}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            status = None
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        call = Call(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall)
        out_path.unlink()
        err_path.unlink()
        return call

    def ist(self, args: list, check, traced: bool = False) -> Call:
        """Run `ist ARGS`, plainly or under spans, and tally check(call)."""
        self._n += 1
        out_file = self.tmp / f"out.{self._n}"
        spans_file = self.tmp / f"spans.{self._n}.json"
        args = [str(out_file) if a is OUT else str(a) for a in args]
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans_file), *args]
        else:
            argv = [sys.executable, "-m", "ist", *args]
        call = self.run(argv)
        if out_file.exists():
            call.out = out_file.read_bytes()
            out_file.unlink()
        if spans_file.exists():
            call.spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        self.tally(check(call))
        return call

    def tally(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)


def _call_error(call: Call, expected_code: int = 0) -> str | None:
    if call.code != expected_code:
        tail = call.err.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit {call.code}, expected {expected_code}: {' '.join(tail)}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs from the seed, the timed calls, their checks and the traced calls."""

    name = ""
    item = ""            # what items_per_s counts
    items_per_call = 1
    min_rounds = 3

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp
        self.properties: dict = {}
        self.reference: bytes | None = None   # first primary output; later ones must match
        self.known_defects: dict[str, int] = {}

    def check_same(self, call: Call, what: str) -> str | None:
        if self.reference is None:
            self.reference = call.out
        elif call.out != self.reference:
            return f"{what}: output differs from the first call's"
        return None

    def primary_digest(self) -> str | None:
        return None if self.reference is None else hashlib.sha256(self.reference).hexdigest()

    def round(self, runner: Runner, ix: int, samples: dict) -> None:
        raise NotImplementedError

    def finish(self, runner: Runner, samples: dict) -> None:
        """Calls made once after the timed rounds."""

    def trace(self, runner: Runner, pair) -> None:
        """Make the traced calls through pair(args, check)."""
        raise NotImplementedError

    def rows(self, samples: dict) -> dict[str, Row]:
        """The workload's own end-to-end rows for the table, under workload-specific names."""
        return {}


class AblateSample(Workload):
    name = "ablate-sample"
    item = "records"
    items_per_call = inputs.ABLATE_TASKS * (inputs.ABLATE_DIMS + 1) * inputs.ABLATE_REPLICATES

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        world, self.properties = inputs.ablate_world(seed, tmp)
        self.config = tmp / "ablate_config.json"
        self.config.write_text(json.dumps({"world_path": world.name}), encoding="utf-8")

    def args(self, jobs: int) -> list:
        return ["ablate", "--config", self.config, "--mode", "sample",
                "--replicates", inputs.ABLATE_REPLICATES, "--jobs", jobs, "--out", OUT]

    def check(self, call: Call) -> str | None:
        err = _call_error(call)
        if err:
            return f"ablate: {err}"
        lines = call.out.count(b"\n")
        if lines != self.items_per_call:
            return f"ablate: {lines} records, expected {self.items_per_call}"
        # byte-identical at --jobs 1 and 2, and across repeats: the determinism contract
        return self.check_same(call, "ablate")

    def round(self, runner, ix, samples):
        samples["primary"].append(runner.ist(self.args(1), self.check).wall_s)
        if ix % 2 == 0:   # --jobs 2 is reported, not gated: half as many samples
            samples["jobs2"].append(runner.ist(self.args(2), self.check).wall_s)

    def trace(self, runner, pair):
        pair(self.args(1), self.check)

    def rows(self, samples):
        n = self.items_per_call
        return {"records_per_s": median_row("records/s", [n / t for t in samples["primary"]]),
                "records_per_s_jobs2": median_row("records/s", [n / t for t in samples["jobs2"]])}


class PerturbWide(Workload):
    name = "perturb-wide"
    item = "outputs"
    items_per_call = inputs.PERTURB_TASKS * (inputs.PERTURB_LADDER + 1) * inputs.PERTURB_REPLICATES

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        world, self.properties = inputs.perturb_world(seed, tmp)
        self.config = tmp / "perturb_config.json"
        self.config.write_text(json.dumps({"world_path": world.name}), encoding="utf-8")

    def args(self) -> list:
        return ["perturb", "--config", self.config, "--mode", "sample",
                "--replicates", inputs.PERTURB_REPLICATES]

    def check(self, call: Call) -> str | None:
        err = _call_error(call)
        if err:
            return f"perturb: {err}"
        report = json.loads(call.out)
        cells = inputs.PERTURB_TASKS * inputs.PERTURB_LADDER
        if len(report["cells"]) != cells:
            return f"perturb: {len(report['cells'])} cells, expected {cells}"
        if report["plateau_rate"] != 1.0:
            return f"perturb: plateau_rate {report['plateau_rate']!r}, expected 1.0"
        return self.check_same(call, "perturb")

    def round(self, runner, ix, samples):
        samples["primary"].append(runner.ist(self.args(), self.check).wall_s)

    def trace(self, runner, pair):
        pair(self.args(), self.check)

    def rows(self, samples):
        n = self.items_per_call
        return {"outputs_per_s": median_row("outputs/s", [n / t for t in samples["primary"]])}


class TiilOracle(Workload):
    name = "tiil-oracle"
    item = "dims"
    items_per_call = inputs.TIIL_TASKS * inputs.TIIL_DIMS
    # Untimed probe of the known np.bool_ serialization defect: reported,
    # never counted as a failed check, so its fix shows as an improvement.
    DEFECT_PROBE = ("tiil-check --format json on the demo world",
                    ["tiil-check", "--format", "json"])

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.world, self.properties = inputs.tiil_world(seed, tmp)

    def args(self) -> list:
        return ["tiil-check", "--world", self.world, "--format", "text"]

    def check(self, call: Call) -> str | None:
        err = _call_error(call)
        if err:
            return f"tiil-check: {err}"
        lines = call.out.decode("utf-8").splitlines()
        if not lines or lines[-1] != "all bounds hold":
            return f"tiil-check: last line {lines[-1:]!r}, expected 'all bounds hold'"
        dims = sum(1 for line in lines[:-1] if not line.startswith(" "))
        if dims != self.items_per_call:
            return f"tiil-check: {dims} dims checked, expected {self.items_per_call}"
        return self.check_same(call, "tiil-check")

    def round(self, runner, ix, samples):
        samples["primary"].append(runner.ist(self.args(), self.check).wall_s)

    def finish(self, runner, samples):
        label, args = self.DEFECT_PROBE
        self.known_defects[label] = runner.run([sys.executable, "-m", "ist", *args]).code

    def trace(self, runner, pair):
        pair(self.args(), self.check)
        self.finish(runner, {})

    def rows(self, samples):
        n = self.items_per_call
        return {"dims_per_s": median_row("dims/s", [n / t for t in samples["primary"]])}


class AuditGate(Workload):
    name = "audit-gate"
    item = "calls"
    min_rounds = 8          # rounds of ORACLE_EVERY calls; the report reads these
    traced_calls = 8

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.world, self.triples, self.properties = inputs.audit_inputs(seed, tmp)
        self.report_source: list[bytes] = []

    def audit(self, runner, ix: int, ist=None) -> Call:
        t = self.triples[ix % len(self.triples)]
        args = ["audit", "--spec", t.spec, "--carrier", t.carrier,
                "--output", t.output, "--timestamp", AUDIT_TIMESTAMP]
        if t.oracle:
            args += ["--world", self.world]

        def check(call: Call) -> str | None:
            err = _call_error(call, 1 if t.split_zone else 0)
            if err:
                return f"audit {ix}: {err}"
            rec = json.loads(call.out)
            want = {"ga": 5, "split_zone": t.split_zone,
                    "privacy_source": "oracle" if t.oracle else "hint"}
            got = {k: rec.get(k) for k in want}
            return None if got == want else f"audit {ix}: {got}, expected {want}"

        return (ist or runner.ist)(args, check)

    def round(self, runner, ix, samples):
        for j in range(inputs.ORACLE_EVERY):
            call = self.audit(runner, ix * inputs.ORACLE_EVERY + j)
            samples["primary"].append(call.wall_s)
            if len(self.report_source) < self.min_rounds * inputs.ORACLE_EVERY:
                self.report_source.append(call.out)

    def report(self, runner, records: list[bytes], ist=None) -> Call:
        path = self.tmp / "audit_records.jsonl"
        lines = [records[i % len(records)] for i in range(inputs.REPORT_LINES)]
        path.write_bytes(b"".join(lines))
        splits = sum(json.loads(line)["split_zone"] for line in lines)

        def check(c: Call) -> str | None:
            err = _call_error(c)
            if err:
                return f"report: {err}"
            text = c.out.decode("utf-8")
            for want in (f"- records: {inputs.REPORT_LINES}",
                         f"- split-zone rate: {splits / inputs.REPORT_LINES:.4f}"):
                if want not in text:
                    return f"report: no line {want!r}"
            return self.check_same(c, "report")

        return (ist or runner.ist)(["report", "--records", path, "--format", "markdown"], check)

    def finish(self, runner, samples):
        for _ in range(3):
            samples["report"].append(self.report(runner, self.report_source).wall_s)

    def trace(self, runner, pair):
        records = [self.audit(runner, ix, pair).out for ix in range(self.traced_calls)]
        self.report(runner, records, pair)

    def rows(self, samples):
        ms = [t * 1e3 for t in samples["primary"]]
        return {"audit_ms_p50": median_row("ms", ms),
                "audit_ms_p90": Row("ms", p90(ms), ms),
                "report_ms": median_row("ms", [t * 1e3 for t in samples["report"]])}


WORKLOADS = {w.name: w for w in (AblateSample, PerturbWide, TiilOracle, AuditGate)}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _probe(runner: Runner, *args: str) -> float:
    call = runner.run([sys.executable, str(HERE / "child.py"), *args])
    runner.tally(_call_error(call) and f"{args[0]}: {_call_error(call)}")
    return call.wall_s


def untraced_run(w: Workload, runner: Runner, seconds: float) -> tuple[dict, dict[str, Row]]:
    """Time the workload; return (gated metrics, at reference speed; raw rows for the table)."""
    setup_args = ("setup", w.name, str(w.tmp))
    _probe(runner, *setup_args)   # untimed: fills the bytecode cache
    setup: list[float] = []
    calibration: list[float] = []
    samples: dict[str, list[float]] = {"primary": [], "jobs2": [], "report": []}
    start = time.perf_counter()
    ix = 0
    while ix < w.min_rounds or (time.perf_counter() - start < seconds
                                and time.perf_counter() - start < RUN_BUDGET_S):
        # probes are spread over the run, so they see the same machine as the calls
        elapsed = time.perf_counter() - start
        if elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(_probe(runner, *setup_args))
        if elapsed >= len(calibration) * seconds / CALIBRATION_REPEATS:
            calibration.append(_probe(runner, "calibrate"))
        w.round(runner, ix, samples)
        ix += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(_probe(runner, *setup_args))
    while len(calibration) < CALIBRATION_REPEATS:
        calibration.append(_probe(runner, "calibrate"))
    w.finish(runner, samples)
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if w.seed == digests["seed"] and w.name in digests["sha256"]:
        got = w.primary_digest()
        runner.tally(None if got == digests["sha256"][w.name] else
                     f"digest: primary output sha256 {got} differs from the recorded one")

    prim = samples["primary"]
    rss_mb = [kb / 1024 for kb in runner.rss_kb]
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "call_ms_p50": statistics.median(prim) * 1e3 * scale,
        "call_ms_p90": p90(prim) * 1e3 * scale,
        "items_per_s": statistics.median([w.items_per_call / t for t in prim]) / scale,
        "peak_rss_mb": max(rss_mb),
    }
    rows = {"setup_s": median_row("s", setup), **w.rows(samples),
            "peak_rss_mb": Row("MB", max(rss_mb), rss_mb),
            "calibration_s": median_row("s", calibration)}
    return metrics, rows


def traced_run(w: Workload, runner: Runner, per_layer: dict[str, str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from spans; return (metrics, notes on absent ones)."""
    stats: dict[str, list] = {}
    counts: dict[str, dict] = {}
    imports: list[float] = []
    wall = [0.0, 0.0]   # untraced, traced

    def pair(args, check):
        plain = runner.ist(args, check)

        def traced_check(call):
            return check(call) or (None if call.out == plain.out
                                   else "traced output differs from untraced output")
        traced = runner.ist(args, traced_check, traced=True)
        wall[0] += plain.wall_s
        wall[1] += traced.wall_s
        if traced.spans:
            imports.append(traced.spans["import_s"])
            for name, (n, total, self_s) in traced.spans["stats"].items():
                s = stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += n
                s[1] += total
                s[2] += self_s
            for name, c in traced.spans["counts"].items():
                into = counts.setdefault(name, {})
                for key, n in c.items():
                    into[key] = into.get(key, 0) + n
        return plain

    w.trace(runner, pair)
    kcall = runner.run([sys.executable, str(HERE / "child.py"), "kernels"])
    runner.tally(_call_error(kcall) and f"kernels: {_call_error(kcall)}")
    kernels = json.loads(kcall.out) if kcall.code == 0 else {}

    metrics, absent = {}, []
    for name in per_layer:
        if name == "cli.import_s":
            value = statistics.median(imports) if imports else 0.0
        elif name == "trace.overhead_ratio":
            value = wall[1] / wall[0] - 1 if wall[0] else 0.0
        elif name in kernels:
            value = kernels[name]
        else:
            span, field = name.rsplit(".", 1)
            n, total, self_s = stats.get(span, (0, 0.0, 0.0))
            if n == 0:
                absent.append(name)
            c = counts.get(span, {})
            if field == "calls":
                value = n
            elif field == "self_s":
                value = self_s
            elif field.endswith("_per_s"):
                value = c.get(field[:-len("_per_s")], 0) / total if total else 0.0
            else:
                value = c.get(field, 0)
        metrics[name] = value
    return metrics, absent


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src" / "ist").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "src_ist_lines": src_lines}


def error_rate(runner: Runner, w: Workload) -> Row:
    """Failed checks plus known-defect probes that did not exit 0, per call."""
    defects = sum(1 for code in w.known_defects.values() if code != 0)
    n = runner.attempted + len(w.known_defects)
    bad = len(runner.failures) + defects
    return Row("fraction", bad / n, [1.0] * bad + [0.0] * (n - bad))


def run_one(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    tmp = TMP_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        w = WORKLOADS[name](seed, tmp)
        runner = Runner(tmp)
        rows: dict[str, Row] = {}
        absent: list[str] = []
        if traced:
            metrics, absent = traced_run(w, runner, spec["per_layer"])
        else:
            metrics, rows = untraced_run(w, runner, seconds)
        rows["error_rate"] = error_rate(runner, w)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return {"workload": name, "seed": seed, "trace": int(traced),
            "properties": w.properties, "rows": rows, "metrics": metrics,
            "absent": absent, "known_defects": w.known_defects,
            "digest": w.primary_digest(), "attempted": runner.attempted,
            "failures": runner.failures}


def print_run(res: dict, spec: dict) -> None:
    kind = "per-layer (traced)" if res["trace"] else "end-to-end (untraced)"
    print(f"== {res['workload']}  seed {res['seed']}  {kind}; closed loop, 1 client")
    print(f"properties: {json.dumps(res['properties'], sort_keys=True)}")
    units = spec["end_to_end"] if not res["trace"] else spec["per_layer"]
    for name, value in res["metrics"].items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    if not res["trace"]:
        print(f"  (items are {WORKLOADS[res['workload']].item})")
    for name, row in res["rows"].items():
        print(f"  table {name:<24} {row.text()} {row.unit}")
    for name in res["absent"]:
        print(f"  absent {name}: the span was not entered on this workload's calls")
    for label, code in res["known_defects"].items():
        print(f"  known defect probe: {label}: exit {code} (0 once fixed)")
    if not res["trace"]:
        print(f"  primary output sha256: {res['digest']}")
    print(f"  checks: {res['attempted']} attempted, {len(res['failures'])} failed")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def result_line(res: dict, spec: dict) -> str:
    units = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    return json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    })


TABLE_COLUMNS = ("setup_s", "records_per_s", "records_per_s_jobs2", "outputs_per_s",
                 "dims_per_s", "audit_ms_p50", "audit_ms_p90", "report_ms",
                 "peak_rss_mb", "error_rate")


def print_table(results: list[dict]) -> None:
    """One row per workload: value [q1-q3] n=samples for each metric."""
    units = {}
    for res in results:
        units.update({k: r.unit for k, r in res["rows"].items()})
    print("| workload | " + " | ".join(f"{c} ({units.get(c, '')})" for c in TABLE_COLUMNS) + " |")
    print("|---" * (len(TABLE_COLUMNS) + 1) + "|")
    for res in results:
        cells = [res["rows"][c].text() if c in res["rows"] else "-" for c in TABLE_COLUMNS]
        print(f"| {res['workload']} | " + " | ".join(cells) + " |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: also write the results as JSON here")
    args = ap.parse_args(argv)
    # a terminated run still kills its running child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ist" / "cli.py").is_file():
        print(f"error: no src/ist/cli.py under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}

    if args.workload != "all":
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
        print_run(res, spec)
        print(result_line(res, spec))
        return 0 if not res["failures"] else 1

    results = []
    for name in WORKLOADS:
        for traced in (False, True):
            res = run_one(name, args.seed, args.seconds, traced, spec)
            print_run(res, spec)
            results.append(res)
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print_table([r for r in results if not r["trace"]])
    if args.out:
        whys = {w["name"]: w["why"] for w in bench["workloads"]}
        doc = {"seed": args.seed, "seconds": args.seconds, "environment": env,
               "workloads": {}}
        for res in results:
            entry = doc["workloads"].setdefault(res["workload"], {
                "why": whys[res["workload"]],
                "properties": res["properties"]})
            key = "per_layer" if res["trace"] else "end_to_end"
            entry[key] = res["metrics"]
            entry.setdefault("checks", {})[key] = {
                "attempted": res["attempted"], "failed": len(res["failures"])}
            if not res["trace"]:
                entry["table"] = {k: r.obj() for k, r in res["rows"].items()}
                entry["primary_sha256"] = res["digest"]
                entry["known_defects"] = res["known_defects"]
            else:
                entry["per_layer_absent"] = res["absent"]
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if all(not r["failures"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
