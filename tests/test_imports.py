"""Import boundary: no subcommand loads dataclasses, the light
subcommands, audit with a world and tiil-check run without numpy, only
tiil-check loads the decoder battery (ist.tiil), tiil-check loads no spec
module, only a world config loads the world check (ist.priors, ist.rng), the
privacy verdict and the battery on a checked world config load neither
numpy, ist.worlds nor the dense oracle (ist.infotheory), the dense
oracle loads no world, metrics or model, and the package's public names
load lazily from one export table."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ist
from ist.cli import main
from ist.spec_io import serialize_intent_spec
from ist.tiil import tiil_check
from ist.worlds import load_world

from reference import to_intent_spec

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "ist" / "data"
TRIPLE = ["--spec", str(DATA / "report_task.json"),
          "--carrier", str(DATA / "report_carrier.json"),
          "--output", str(DATA / "report_output.json")]
TS = "2026-08-15T00:00:00Z"

# run one `ist` command in a fresh interpreter; report its exit code and
# which of these modules it imported, in this order
WATCHED = ("numpy", "ist.tiil", "dataclasses", "ist.model", "ist.spec_io",
           "ist.priors", "ist.rng")
CHILD = f"""
import contextlib, io, json, sys
from ist.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({{"code": code,
                  "loaded": [m for m in {WATCHED!r} if m in sys.modules]}}))
"""
# what a command that parses specs loads, and what a world config adds;
# dataclasses is watched, and no command loads it
SPECS = ["ist.model", "ist.spec_io"]
WORLD_CHECK = ["ist.priors", "ist.rng"]


def run_python(code: str, *argv) -> str:
    """stdout of code run in a fresh interpreter that imports ist from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def run_child(*argv) -> dict:
    return json.loads(run_python(CHILD, *argv))


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("audit") / "records.jsonl"
    assert main(["audit", *TRIPLE, "--timestamp", TS, "--out", str(path)]) == 1
    return str(path)


LIGHT = {
    "validate": ([str(DATA / "report_task.json")], 0),
    "mask": (TRIPLE[:4], 0),
    "score": (TRIPLE, 0),
    "demo": (["--timestamp", TS], 1),
    "audit": ([*TRIPLE, "--timestamp", TS], 1),
}


@pytest.mark.parametrize("command", [*LIGHT, "report"])
def test_light_subcommands_do_not_import_numpy(command, records):
    # nor the battery, nor, without a world, priors and rng
    args, code = LIGHT.get(command, (["--records", records], 0))
    assert run_child(command, *args) == {"code": code, "loaded": SPECS}


def oracle_triple(tmp_path) -> list[str]:
    """A hint-free triple for the packaged world's task whose output is
    faithful, so its labels come from the world and the gate passes."""
    spec = to_intent_spec(load_world(DATA / "demo_world.json").tasks[0])
    paths = [tmp_path / f"{name}.json" for name in ("spec", "carrier", "output")]
    paths[0].write_bytes(serialize_intent_spec(spec))
    paths[1].write_text(json.dumps({"task_id": spec.task_id,
                                    "encoded_dimensions": ["what", "when"]}))
    paths[2].write_text(json.dumps({"task_id": spec.task_id, "realized_values": {
        d.id: {"kind": "token", "value": d.intended_value.value}
        for d in spec.dimensions}}))
    return [arg for flag, path in zip(("--spec", "--carrier", "--output"), paths)
            for arg in (flag, str(path))]


@pytest.mark.parametrize("triple", ["hinted", "oracle"])
def test_audit_with_a_world_does_not_import_numpy(tmp_path, triple):
    # the world is checked, not built, and labels come from (K, lambda);
    # the decoder battery is never compiled for an audit call
    args, code = (TRIPLE, 1) if triple == "hinted" else (oracle_triple(tmp_path), 0)
    got = run_child("audit", *args, "--timestamp", TS,
                    "--world", str(DATA / "demo_world.json"))
    assert got == {"code": code, "loaded": SPECS + WORLD_CHECK}


TIIL_WORLDS = {
    "packaged": [],
    "mixed": ["--world", str(Path(__file__).resolve().parent / "data" / "tiil_world.json"),
              "--seed", "5"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("world", list(TIIL_WORLDS))
def test_tiil_check_does_not_import_numpy(world, fmt):
    # the battery scores the checked rows of the world config in pure
    # Python; it reads no spec, so neither ist.model nor ist.spec_io is
    # loaded
    got = run_child("tiil-check", "--format", fmt, *TIIL_WORLDS[world])
    assert got == {"code": 0, "loaded": ["ist.tiil", *WORLD_CHECK]}


@pytest.mark.parametrize("command", ["ablate", "perturb"])
def test_the_experiments_do_not_import_dataclasses(command):
    # the record types are named tuples, so the numpy subcommands load no
    # dataclasses either
    assert run_child(command) == {"code": 0, "loaded": ["numpy", *SPECS, *WORLD_CHECK]}


def test_rng_imports_without_numpy():
    # derive, unit_float and uniform_index take np.uint64 arrays by duck
    # typing, so the hash module itself never needs numpy
    assert run_python("import sys, ist.rng; print('numpy' in sys.modules)") == "False\n"


VERDICT_CHILD = """
import json, sys
from ist import classify_privacy
from ist.priors import check_world_config
from ist.tiil import tiil_check
with open(sys.argv[1], encoding="utf-8") as f:
    world = check_world_config(json.load(f))
task = world.tasks[0]
print(json.dumps({"verdicts": [classify_privacy(world, task.task_id, d) for d in task.dims],
                  "report": tiil_check(world, seed=7),
                  "loaded": [m for m in ("numpy", "dataclasses", "ist.worlds", "ist.infotheory")
                             if m in sys.modules]}))
"""


def test_classify_privacy_on_world_rows_does_not_import_numpy():
    # the verdict and the battery are scored in pure Python on the checked
    # world config, with no world build and no second route to I(v; y)
    # through the dense oracle; a named tuple, a verdict prints as a list
    got = json.loads(run_python(VERDICT_CHILD, str(DATA / "demo_world.json")))
    world = load_world(DATA / "demo_world.json")
    task = world.tasks[0]
    assert got == {"verdicts": [list(ist.classify_privacy(world, task.task_id, d))
                                for d in task.dims],
                   "report": tiil_check(world, seed=7), "loaded": []}


def test_the_dense_oracle_loads_no_world_metrics_or_model():
    # infotheory reads its (K, lambda) lookup and argmax rule from priors,
    # and its tolerances and MI rule from tiil
    assert run_python("import sys, ist.infotheory; print(sorted(m for m in sys.modules "
                      "if m in ('ist.worlds', 'ist.metrics', 'ist.model')))") == "[]\n"


def test_the_verdict_lives_with_the_battery():
    import ist.infotheory
    import ist.tiil
    assert ist.classify_privacy is ist.tiil.classify_privacy
    assert ist.PrivacyVerdict is ist.tiil.PrivacyVerdict
    assert not {"classify_privacy", "PrivacyVerdict"} & set(vars(ist.infotheory))
    verdict = ist.tiil.PrivacyVerdict("d", 0.5, 0.75, 0.5, "private")
    assert verdict == ("d", 0.5, 0.75, 0.5, "private") and verdict.mi_bits == 0.5


def test_every_public_name_resolves_lazily():
    assert ist.__all__ == sorted(ist.__all__)
    listed = dir(ist)
    for name in ist.__all__:
        assert name in listed
        module = importlib.import_module(f"ist.{ist._EXPORTS[name]}")
        assert getattr(ist, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        ist.no_such_name
    with pytest.raises(ImportError):
        from ist import no_such_name  # noqa: F401
