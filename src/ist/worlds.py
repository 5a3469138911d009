"""Synthetic prior worlds: finite-alphabet tasks with a tunable model prior.

Each dimension of a task gets an alphabet of K tokens ("v0".."v{K-1}"),
a hidden user value drawn uniformly from that alphabet, and a model
prior mixing a point mass on the user value with the uniform
distribution:

    prior = lam * pointmass(user_value) + (1 - lam) * uniform

lam=1 makes the dimension trivially recoverable (public); lam=0 makes
the prior carry nothing about the user value (private). Simulated
outputs copy encoded dimensions from the carrier verbatim and fill
absent ones from the prior, either by argmax (ties to the lowest token
index) or by sampling. Slots are always filled, so structure is always
perfect and only fidelity varies.

All randomness is derived by a keyed 64-bit mix of
(master seed, stream, task index, dimension index, draw index); there
is no shared PRNG state and calls are safe to run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import BadConfig, LengthMismatch, SpecSyntaxError, UnknownTask
from .metrics import weighted_sum
from .model import Dimension, EncodingMask, IntentSpec, ValueRef, normalize_weights
from .rng import USER_VALUE_STREAM, derive, uniform_index
from .spec_io import loads_strict


def token(index: int) -> str:
    return f"v{index}"


@dataclass(frozen=True)
class WorldDim:
    """One dimension of one task: alphabet, prior, hidden user value."""

    id: str
    weight: float
    k: int
    lam: float
    user_index: int
    prior: tuple[float, ...]
    cdf: tuple[float, ...]

    @property
    def user_value(self) -> str:
        return token(self.user_index)

    @property
    def argmax_index(self) -> int:
        # np.argmax breaks ties toward the lowest index, which is the
        # documented tie rule (lam=0 therefore always argmaxes to v0).
        return int(np.argmax(self.prior))


@dataclass(frozen=True)
class WorldTask:
    task_id: str
    index: int
    dims: tuple[WorldDim, ...]

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(d.weight for d in self.dims)

    @property
    def dim_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.dims)


@dataclass(frozen=True)
class SyntheticWorld:
    seed: int
    tag: str
    tasks: tuple[WorldTask, ...]

    @cached_property
    def _tasks_by_id(self) -> dict[str, WorldTask]:
        # built from the end so that, as with a scan, the first of any
        # duplicate ids wins (build_world itself rejects duplicates)
        return {t.task_id: t for t in reversed(self.tasks)}

    def task(self, task_id: str) -> WorldTask:
        try:
            return self._tasks_by_id[task_id]
        except KeyError:
            raise UnknownTask(task_id) from None


@dataclass(frozen=True)
class SimulatedOutput:
    realized_values: dict[str, ValueRef]
    provenance: dict[str, str]  # copied_from_carrier | prior_default | prior_sample


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _build_dim(dim_cfg: dict, weight: float, task_ix: int, dim_ix: int,
               seed: int, where: str) -> WorldDim:
    k = dim_cfg.get("K")
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise BadConfig(f"{where}: K must be an integer >= 2, got {k!r}")
    lam = dim_cfg.get("lambda")
    if isinstance(lam, bool) or not isinstance(lam, (int, float)):
        raise BadConfig(f"{where}: lambda must be a number, got {lam!r}")
    lam = float(lam)
    if not 0.0 <= lam <= 1.0 or math.isnan(lam):
        raise BadConfig(f"{where}: lambda must be in [0, 1], got {lam}")
    user_index = uniform_index(derive(seed, USER_VALUE_STREAM, task_ix, dim_ix), k)
    base = (1.0 - lam) / k
    prior = np.full(k, base, dtype=np.float64)
    prior[user_index] += lam
    cdf = np.cumsum(prior)
    cdf[-1] = 1.0  # kill accumulated rounding at the top end
    return WorldDim(
        id=str(dim_cfg["id"]).lower(),
        weight=weight,
        k=k,
        lam=lam,
        user_index=user_index,
        prior=tuple(float(x) for x in prior),
        cdf=tuple(float(x) for x in cdf),
    )


def build_world(config: dict, seed: int | None = None) -> SyntheticWorld:
    """Deterministically instantiate a world from its config dict.

    Config shape: {"tasks": [{"task_id", "dims": [{"id", "weight", "K",
    "lambda"}]}], "seed"?, "tag"?}. An explicit seed argument wins over
    the config's.
    """
    if not isinstance(config, dict):
        raise BadConfig(f"config must be an object, got {type(config).__name__}")
    if seed is None:
        seed = config.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadConfig(f"seed must be an integer, got {seed!r}")
    tag = config.get("tag", "synthetic")
    if not isinstance(tag, str) or not tag:
        raise BadConfig(f"tag must be a non-empty string, got {tag!r}")
    raw_tasks = config.get("tasks")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise BadConfig("config needs a non-empty 'tasks' array")

    tasks = []
    seen_ids = set()
    for task_ix, t in enumerate(raw_tasks):
        where = f"tasks[{task_ix}]"
        if not isinstance(t, dict) or not isinstance(t.get("task_id"), str):
            raise BadConfig(f"{where}: needs a string task_id")
        task_id = t["task_id"]
        if task_id in seen_ids:
            raise BadConfig(f"{where}: duplicate task_id {task_id!r}")
        seen_ids.add(task_id)
        raw_dims = t.get("dims")
        if not isinstance(raw_dims, list) or not raw_dims:
            raise BadConfig(f"{where}: needs a non-empty 'dims' array")
        raw_weights = []
        for dim_ix, d in enumerate(raw_dims):
            if not isinstance(d, dict) or not isinstance(d.get("id"), str):
                raise BadConfig(f"{where}.dims[{dim_ix}]: needs a string id")
            w = d.get("weight")
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise BadConfig(f"{where}.dims[{dim_ix}]: weight must be a number")
            raw_weights.append(float(w))
        total = math.fsum(raw_weights)
        if abs(total - 1.0) > 1e-6:
            raise BadConfig(f"{where}: weights sum to {total!r}, expected 1")
        try:
            weights = normalize_weights(raw_weights)
        except Exception as e:
            raise BadConfig(f"{where}: {e}") from None
        dims = tuple(
            _build_dim(d, weights[dim_ix], task_ix, dim_ix, seed,
                       f"{where}.dims[{dim_ix}]")
            for dim_ix, d in enumerate(raw_dims))
        ids = [d.id for d in dims]
        if len(set(ids)) != len(ids):
            raise BadConfig(f"{where}: duplicate dimension ids")
        tasks.append(WorldTask(task_id=task_id, index=task_ix, dims=dims))
    return SyntheticWorld(seed=seed, tag=tag, tasks=tuple(tasks))


def to_intent_spec(task: WorldTask, task_type: str = "synthetic") -> IntentSpec:
    """Project a world task into a scoreable spec (intended = user values)."""
    dims = tuple(
        Dimension(id=d.id, weight=d.weight,
                  intended_value=ValueRef.token(d.user_value))
        for d in task.dims)
    return IntentSpec(task_id=task.task_id, task_type=task_type, dimensions=dims)


def full_mask(task: WorldTask) -> EncodingMask:
    return EncodingMask(task.dim_ids, (1,) * len(task.dims))


def mask_without(task: WorldTask, ablated: set[str] | frozenset[str]) -> EncodingMask:
    return EncodingMask(task.dim_ids,
                        tuple(0 if d.id in ablated else 1 for d in task.dims))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _check_mask(task: WorldTask, mask: EncodingMask) -> None:
    if mask.dims != task.dim_ids:
        if len(mask.dims) != len(task.dims):
            raise LengthMismatch(len(task.dims), len(mask.dims), "mask bits")
        raise LengthMismatch(len(task.dims), len(mask.dims),
                             f"mask dims {mask.dims!r} vs task dims {task.dim_ids!r}")


def simulate_output(world: SyntheticWorld, task_id: str, mask: EncodingMask,
                    mode: str = "argmax", draw: int = 0) -> SimulatedOutput:
    """Fill every slot: copy encoded dims, default or sample the rest.

    Deterministic in (world, task_id, mask, mode, draw); the draw index
    distinguishes replicates and never depends on the mask, so equal
    masks give equal outputs across conditions.
    """
    if mode not in ("argmax", "sample"):
        raise BadConfig(f"mode must be 'argmax' or 'sample', got {mode!r}")
    task = world.task(task_id)
    _check_mask(task, mask)
    realized: dict[str, ValueRef] = {}
    provenance: dict[str, str] = {}
    for dim_ix, dim in enumerate(task.dims):
        if mask.bits[dim_ix] == 1:
            realized[dim.id] = ValueRef.token(dim.user_value)
            provenance[dim.id] = "copied_from_carrier"
        elif mode == "argmax":
            realized[dim.id] = ValueRef.token(token(dim.argmax_index))
            provenance[dim.id] = "prior_default"
        else:
            j = int(_kernels.sample_tokens(world.seed, task.index, dim_ix,
                                           draw, dim.cdf, dim.k))
            realized[dim.id] = ValueRef.token(token(j))
            provenance[dim.id] = "prior_sample"
    return SimulatedOutput(realized_values=realized, provenance=provenance)


# ---------------------------------------------------------------------------
# analytic expectations and Monte Carlo means
# ---------------------------------------------------------------------------

def _argmax_finds_user(k: int, lam: float) -> bool:
    """Whether argmax of the (K, lambda) prior lands on the user value.

    The user's entry is base + lam over a flat base = (1 - lam)/K. When
    lam is below the float resolution of base, every entry ties and
    argmax picks token 0, whatever the user value.
    """
    base = (1.0 - lam) / k
    return base + lam > base


def _argmax_match_prob(dim: WorldDim) -> float:
    """P(argmax of prior == user value) under world regeneration.

    Certain when lam lifts the user's entry; otherwise argmax is token 0,
    which is the user value for 1 of the K equally likely values.
    """
    return 1.0 if _argmax_finds_user(dim.k, dim.lam) else 1.0 / dim.k


def expected_f_icmw(world: SyntheticWorld, task_id: str, mask: EncodingMask,
                    mode: str = "argmax") -> float:
    """Closed-form E[f_icmw] for simulated outputs under this mask.

    Sample mode: E[f_i | m_i = 0] = prior(user_value). Argmax mode takes
    the expectation over world regeneration (user values redrawn).
    Encoded dimensions contribute 1 either way.
    """
    if mode not in ("argmax", "sample"):
        raise BadConfig(f"mode must be 'argmax' or 'sample', got {mode!r}")
    task = world.task(task_id)
    _check_mask(task, mask)
    e = []
    for dim_ix, dim in enumerate(task.dims):
        if mask.bits[dim_ix] == 1:
            e.append(1.0)
        elif mode == "sample":
            e.append(dim.prior[dim.user_index])
        else:
            e.append(_argmax_match_prob(dim))
    return weighted_sum(task.weights, e)


def mc_mean_f_icmw(world: SyntheticWorld, task_id: str, mask: EncodingMask,
                   n: int = 10_000) -> float:
    """Mean f_icmw over n sample-mode outputs, via the match-count kernel.

    Equals the mean of per-record f_icmw values by linearity; the kernel
    replays the exact per-record draw stream, so this is a fast path,
    not an approximation of a different quantity.
    """
    task = world.task(task_id)
    _check_mask(task, mask)
    absent = [i for i in range(len(task.dims)) if mask.bits[i] == 0]
    e = [1.0] * len(task.dims)
    if absent:
        kmax = max(task.dims[i].k for i in absent)
        cdfs = np.ones((len(absent), kmax), dtype=np.float64)
        for row, i in enumerate(absent):
            cdfs[row, :task.dims[i].k] = task.dims[i].cdf
        counts = _kernels.match_counts(
            world.seed, task.index,
            np.array(absent, dtype=np.int64),
            np.array([task.dims[i].user_index for i in absent], dtype=np.int64),
            cdfs,
            np.array([task.dims[i].k for i in absent], dtype=np.int64),
            n)
        for row, i in enumerate(absent):
            e[i] = counts[row] / n
    return weighted_sum(task.weights, e)


# ---------------------------------------------------------------------------
# config parsing (JSON side)
# ---------------------------------------------------------------------------

def parse_world_config(data: bytes | str) -> dict:
    try:
        doc = loads_strict(data)
    except SpecSyntaxError as exc:
        raise BadConfig(f"world config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadConfig("world config must be a JSON object")
    return doc


def load_world(path, seed: int | None = None) -> SyntheticWorld:
    return build_world(parse_world_config(Path(path).read_bytes()), seed)
