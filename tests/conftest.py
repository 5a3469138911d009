import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ist.experiments import write_ablation
from ist.jsonio import loads_strict, normalize_weights
from ist.model import Dimension, IntentSpec, ValueRef
from ist.spec_io import OutputRecord, record_from_obj

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "ist" / "data"
TESTS_DATA = Path(__file__).resolve().parent / "data"


def run_ist(*argv, hash_seed: int) -> subprocess.CompletedProcess:
    """Run `python -m ist ARGV` in a fresh interpreter under PYTHONHASHSEED,
    so that runs with other str hashes can be compared."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ist", *map(str, argv)],
                          env=env, capture_output=True, text=True)


def ablation_text(world, mode="argmax", replicates=None) -> str:
    """Everything write_ablation writes for world, as one string."""
    out = io.StringIO()
    list(write_ablation(out, world, mode, replicates))
    return out.getvalue()


def ablation_records(world, mode="argmax", replicates=None) -> list[OutputRecord]:
    """write_ablation's lines read back as records, in the order written."""
    return [record_from_obj(loads_strict(line))
            for line in ablation_text(world, mode, replicates).split("\n")[:-1]]


def mixed_ablation_config(tmp_path: Path) -> Path:
    """tests/data/mixed_experiment.json without its perturbation ladder,
    which ablate rejects, written under tmp_path: the same world and seed."""
    doc = json.loads((TESTS_DATA / "mixed_experiment.json").read_text(encoding="utf-8"))
    del doc["perturbations"]
    path = tmp_path / "mixed_ablation.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def demo_world_config() -> dict:
    return json.loads((DATA / "demo_world.json").read_text())


@pytest.fixture
def grid_config() -> dict:
    return json.loads((DATA / "perturb_grid.json").read_text())


def all_private_config(weights=(0.5, 0.3, 0.2), k=10, seed=1, task_id="west-1"):
    """A world where every dimension has a flat prior (nothing recoverable)."""
    return {
        "tag": "west",
        "seed": seed,
        "tasks": [{
            "task_id": task_id,
            "dims": [
                {"id": f"d{i}", "weight": w, "K": k, "lambda": 0.0}
                for i, w in enumerate(weights)
            ],
        }],
    }


def random_spec(rng: random.Random, max_dims: int = 6,
                allow_children: bool = True) -> IntentSpec:
    """Generate a valid spec with occasional nesting, hints, both value kinds."""
    n = rng.randint(1, max_dims)
    weights = normalize_weights([rng.uniform(0.05, 1.0) for _ in range(n)])
    dims = []
    for i, w in enumerate(weights):
        dim_id = f"dim{i}"
        if allow_children and n > 1 and rng.random() < 0.25:
            m = rng.randint(2, 3)
            child_w = normalize_weights([rng.uniform(0.1, 1.0) for _ in range(m)])
            children = tuple(
                Dimension(id=f"{dim_id}_c{j}", weight=cw,
                          intended_value=_random_value(rng))
                for j, cw in enumerate(child_w))
            dims.append(Dimension(id=dim_id, weight=w, children=children))
        else:
            hint = rng.choice([None, "public", "private", "unknown"])
            dims.append(Dimension(id=dim_id, weight=w,
                                  intended_value=_random_value(rng),
                                  privacy_hint=hint))
    return IntentSpec(task_id=f"task-{rng.randrange(10**6)}",
                      task_type=rng.choice(["report", "email", "plan"]),
                      dimensions=tuple(dims))


def _random_value(rng: random.Random) -> ValueRef:
    if rng.random() < 0.5:
        return ValueRef.token(f"v{rng.randrange(20)}")
    return ValueRef.text(rng.choice([
        "one page summary", "due friday", "for the board",
        "soften the tone", "unicode: éü中文",
    ]))
