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

A SyntheticWorld is valid once it is built. Its constructor applies the
rules of a flat intent spec to every task (priors.check_flat_tasks: a
task id no other task uses; non-empty dimension ids, distinct after
lower-casing; weights in [0, 1] whose fsum is within
model.TOP_WEIGHT_TOL of 1, so at least one dimension) and raises
BadConfig naming tasks[i]. build_world realizes the rows of
priors.check_world_fields, which rejects unknown fields, bad K and
lambda and non-finite weights, so with the constructor's rules it makes
the one check pass, priors.check_world_config, and no check of its own.
Nothing that runs on a world checks it again.

build_world realizes a world in columns: one array rng.derive call
hashes every (task, dimension) pair, and uniform_index maps the hashes
to user indices. A WorldDim holds (id, weight, K, lambda, user index);
its prior and CDF are computed when read, so a world's size does not
grow with K.

The record engine simulates outputs in bulk: draws never depend on the
mask, so the draws of a block of tasks are hashed together, one
_kernels.sample_block call per block of bounded size, over a CDF table
numpy builds for the block (each dimension's CDF, padded with +inf to
the block's largest K). Both experiments realize and score a whole
block per _f_icmw call, over the grids of _block_grids: the ablation
realizes each draw under its condition's mask (experiments), and the
perturbation experiment and mc_mean_f_icmw score every mask of every
task of a block (_mean_f_icmw). Their records and means are those of
simulate_output and score_output, bit for bit.

All randomness is derived by a keyed 64-bit mix of
(master seed, stream, task index, dimension index, draw index); there
is no shared PRNG state and calls are safe to run in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import BadConfig, LengthMismatch, UnknownTask
from .metrics import _float_weighted_sum, weighted_sum
from .model import Dimension, EncodingMask, IntentSpec, ValueRef
from .priors import check_flat_tasks, check_world_fields, parse_world_config
from .rng import USER_VALUE_STREAM, derive, uniform_index


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

    @property
    def prior(self) -> tuple[float, ...]:
        prior = [(1.0 - self.lam) / self.k] * self.k
        prior[self.user_index] += self.lam
        return tuple(prior)

    @property
    def cdf(self) -> tuple[float, ...]:
        # the top end is 1.0 exactly, whatever the accumulated rounding
        return (*accumulate(self.prior[:-1]), 1.0)

    @property
    def user_value(self) -> str:
        return token(self.user_index)

    @property
    def argmax_index(self) -> int:
        # ties go to the lowest index, so lam=0 always argmaxes to v0
        return self.user_index if _argmax_finds_user(self.k, self.lam) else 0


@dataclass(frozen=True)
class WorldTask:
    task_id: str
    index: int
    dims: tuple[WorldDim, ...]

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(d.weight for d in self.dims)

    @cached_property
    def dim_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.dims)


@dataclass(frozen=True)
class SyntheticWorld:
    seed: int
    tag: str
    tasks: tuple[WorldTask, ...]

    def __post_init__(self):
        check_flat_tasks((t.task_id, t.dim_ids, t.weights) for t in self.tasks)

    @cached_property
    def _tasks_by_id(self) -> dict[str, WorldTask]:
        return {t.task_id: t for t in self.tasks}

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

def build_world(config: dict, seed: int | None = None) -> SyntheticWorld:
    """Deterministically instantiate a world from its config dict: the
    rows of priors.check_world_fields(config, seed), realized; the world
    then applies the flat-spec rules. Dimension j of task i draws its
    user index from derive(seed, USER_VALUE_STREAM, i, j), every pair in
    one array call."""
    seed, tag, rows = check_world_fields(config, seed)
    sizes = [len(dims) for _, dims in rows]
    task_ixs = np.repeat(np.arange(len(rows)), sizes)
    dim_ixs = np.arange(len(task_ixs)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    ks = np.array([dim[2] for _, dims in rows for dim in dims])
    users = iter(uniform_index(derive(seed, USER_VALUE_STREAM, task_ixs.astype(np.uint64),
                                      dim_ixs.astype(np.uint64)), ks).tolist())
    return SyntheticWorld(seed=seed, tag=tag, tasks=tuple(
        WorldTask(task_id, task_ix, tuple(WorldDim(*dim, next(users)) for dim in dims))
        for task_ix, (task_id, dims) in enumerate(rows)))


def load_world(path, seed: int | None = None) -> SyntheticWorld:
    return build_world(parse_world_config(Path(path).read_bytes()), seed)


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
    _check_mode(mode)
    task = world.task(task_id)
    _check_mask(task, mask)
    if mode == "sample":
        sampled = _sample_grid(world.seed, [task],
                               np.array([draw], dtype=np.uint64))[0, :, 0].tolist()
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
            realized[dim.id] = ValueRef.token(token(sampled[dim_ix]))
            provenance[dim.id] = "prior_sample"
    return SimulatedOutput(realized_values=realized, provenance=provenance)


def _dim_arrays(tasks, **fills) -> dict[str, np.ndarray]:
    """For each name=fill: a (tasks x widest task's dims) array of every
    dimension's WorldDim attribute name, fill where a task has fewer
    dimensions."""
    lens = np.array([len(t.dims) for t in tasks])
    present = np.arange(lens.max()) < lens[:, None]
    dims = [d for t in tasks for d in t.dims]
    out = {}
    for name, fill in fills.items():
        out[name] = np.full(present.shape, fill)
        out[name][present] = [getattr(d, name) for d in dims]
    return out


def _sample_grid(seed: int, tasks, draws: np.ndarray) -> np.ndarray:
    """Sampled tokens (tasks x dims x draws) by one sample_block call.

    Its CDF table (tasks x widest task's dims x largest K) is built in
    columns: each row is the flat base (1 - lam)/K plus lam at the user
    index, summed in order by np.cumsum (as WorldDim.cdf sums it), with
    entry K - 1 set to 1 and the entries past K to +inf. A task with
    fewer dimensions than the widest gets K = 1 rows whose tokens nobody
    reads.
    """
    a = _dim_arrays(tasks, k=1, lam=0.0, user_index=-1)
    ks, lam = a["k"], a["lam"][..., None]
    cols = np.arange(ks.max())
    # one table, filled in place: a task's K can make it the whole block
    cdf = np.where(cols == a["user_index"][..., None], lam, 0.0)
    cdf += (1.0 - lam) / ks[..., None]
    np.cumsum(cdf, axis=-1, out=cdf)
    cdf[cols == ks[..., None] - 1] = 1.0
    cdf[cols >= ks[..., None]] = np.inf
    return _kernels.sample_block(
        seed, np.array([t.index for t in tasks], dtype=np.uint64),
        np.arange(ks.shape[1], dtype=np.uint64), draws, cdf, ks)


def _blocks(tasks, counts):
    """Draws 0..counts[i]-1 of each task, cut into (position, start, stop)
    ranges and grouped into blocks, in task then draw order.

    The ranges of a block share one start. Its hash grid (ranges x
    widest task's dims x longest range) and its CDF table (ranges x
    widest task's dims x largest K) each hold at most
    _kernels._CHUNK_DRAWS cells, unless one task alone needs more: a
    task's draws are cut into ranges that fit, and consecutive ranges
    join a block while both still fit.
    """
    budget = _kernels._CHUNK_DRAWS
    block, shape = [], (0, 0, 0)  # the block's dims, draws and K so far
    for pos, (task, n) in enumerate(zip(tasks, counts)):
        dims, k = len(task.dims), max(d.k for d in task.dims)
        step = max(1, budget // dims)
        for start in range(0, n, step):
            rows = min(step, n - start)
            grown = (max(shape[0], dims), max(shape[1], rows), max(shape[2], k))
            if block and (start != block[0][1] or
                          (len(block) + 1) * grown[0] * max(grown[1:]) > budget):
                yield block
                block, grown = [], (dims, rows, k)
            block.append((pos, start, start + rows))
            shape = grown
    if block:
        yield block


def _block_grids(world: SyntheticWorld, tasks, counts, mode: str):
    """(block, grid) per block of _blocks(tasks, counts). grid[t, j, i] is
    dimension j's prior default (argmax mode) or sampled token (sample
    mode, one sample_block call per block) at draw start + i of the task
    of block[t]; cells past that task's dims or that range's stop hold
    tokens nobody reads."""
    for block in _blocks(tasks, counts):
        block_tasks = [tasks[pos] for pos, _, _ in block]
        start = block[0][1]
        stop = max(stop for _, _, stop in block)
        if mode == "sample":
            grid = _sample_grid(world.seed, block_tasks,
                                np.arange(start, stop, dtype=np.uint64))
        else:
            argmax = _dim_arrays(block_tasks, argmax_index=0)["argmax_index"]
            grid = np.broadcast_to(argmax[..., None], (*argmax.shape, stop - start))
        yield block, grid


def _f_icmw(tasks, keys: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """f_icmw of each record i, a record of tasks[keys[i]] whose fidelity
    row is hits[i] (records x dims; True where the record holds the user
    value): weighted_sum of that 0/1 row under the task's weights (made
    floats once), once per distinct (task, row). Rows are told apart by
    their key and the bits of 32 columns at a time."""
    ids = keys
    for lo in range(0, hits.shape[1], 32):
        part = hits[:, lo:lo + 32]
        code = part @ (1 << np.arange(part.shape[1], dtype=np.int64))
        ids = np.unique((ids << 32) | code, return_inverse=True)[1].reshape(-1)
    first = np.empty(ids.max() + 1, dtype=np.intp)
    first[ids] = np.arange(len(ids))
    weights = [list(map(float, t.weights)) for t in tasks]
    return np.array([_float_weighted_sum(weights[k], row[:len(weights[k])])
                     for k, row in zip(keys[first].tolist(), hits[first].tolist())])[ids]


def _mean_f_icmw(world: SyntheticWorld, tasks, bits, n: int, mode: str):
    """Mean f_icmw of each task over its draws 0..n-1 under each row of
    bits[i], task i's (masks x dims) bit matrix; one list per task, in
    task order. Every task has the same number of masks.

    Each block scores every mask of each of its tasks on every draw at
    once: a record's fidelity row is mask | (token == user). Each (task,
    mask) sum runs on in draw order across blocks (np.cumsum adds in
    order), as a loop over simulated records would sum it.
    """
    carry = {}  # position -> the sums of a task whose draws run on
    for block, grid in _block_grids(world, tasks, [n] * len(tasks), mode):
        block_tasks = [tasks[pos] for pos, _, _ in block]
        b, d, draws = grid.shape
        masks = np.zeros((b, len(bits[block[0][0]]), 1, d), dtype=bool)
        for t, (pos, _, _) in enumerate(block):
            masks[t, :, 0, :len(tasks[pos].dims)] = bits[pos]
        user = _dim_arrays(block_tasks, user_index=-1)["user_index"]
        hits = masks | (grid == user[..., None]).transpose(0, 2, 1)[:, None]
        keys = np.arange(b).repeat(hits[0].size // d)
        f = _f_icmw(block_tasks, keys, hits.reshape(-1, d)).reshape(hits.shape[:3])
        # draws past a range's stop add 0.0, which leaves a sum as it is
        lens = np.array([stop - start for _, start, stop in block])
        f = np.where(np.arange(draws) < lens[:, None, None], f, 0.0)
        carried = np.array([carry.pop(pos, np.zeros(masks.shape[1]))
                            for pos, _, _ in block])
        sums = np.cumsum(np.concatenate([carried[..., None], f], axis=-1), axis=-1)
        for t, (pos, _, stop) in enumerate(block):
            if stop == n:
                yield (sums[t, :, -1] / n).tolist()
            else:
                carry[pos] = sums[t, :, -1]


def _check_count(name: str, n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BadConfig(f"{name} must be a positive integer, got {n!r}")


def _check_mode(mode) -> None:
    if mode not in ("argmax", "sample"):
        raise BadConfig(f"mode must be 'argmax' or 'sample', got {mode!r}")


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
    _check_mode(mode)
    task = world.task(task_id)
    _check_mask(task, mask)
    e = []
    for dim_ix, dim in enumerate(task.dims):
        if mask.bits[dim_ix] == 1:
            e.append(1.0)
        elif mode == "sample":
            e.append((1.0 - dim.lam) / dim.k + dim.lam)  # the prior's user entry
        else:
            e.append(_argmax_match_prob(dim))
    return weighted_sum(task.weights, e)


def mc_mean_f_icmw(world: SyntheticWorld, task_id: str, mask: EncodingMask,
                   n: int = 10_000) -> float:
    """Mean f_icmw over n sample-mode outputs (draws 0..n-1).

    Runs the record engine, so the value equals the mean of the per-record
    f_icmw of simulate_output and score_output, bit for bit.
    """
    _check_count("n", n)
    task = world.task(task_id)
    _check_mask(task, mask)
    return next(_mean_f_icmw(world, [task], [np.array([mask.bits], dtype=bool)],
                             n, "sample"))[0]
