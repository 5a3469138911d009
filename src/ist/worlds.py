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
index; priors.argmax_finds_user says when argmax finds the user value)
or by sampling. Slots are always filled, so structure is always perfect
and only fidelity varies.

A SyntheticWorld is valid once it is built. Its constructor applies the
rules of a flat intent spec to every task (priors.check_flat_tasks: a
task id no other task uses; non-empty dimension ids, distinct after
lower-casing; weights in [0, 1] whose fsum is within
jsonio.TOP_WEIGHT_TOL of 1, so at least one dimension) and raises
SchemaError at $.tasks[i]. build_world realizes the WorldConfig of
priors.check_world_fields, which rejects unknown fields, bad K and
lambda and weights that are not finite and >= 0, so with the
constructor's rules it makes the one check pass,
priors.check_world_config, and no check of its own.
Nothing that runs on a world checks it again.

build_world realizes a world in columns: one array rng.derive call
hashes every (task, dimension) pair, and uniform_index maps the hashes
to user indices. A WorldTask is one row of columns: a priors.TaskRow's
fields (task id, index, its dimensions' ids, weights, Ks and lambdas,
one tuple each), then the user indices, so a world's size does not grow
with K and the engine reads a column of a block of tasks with one
attribute read per task.

The record engine simulates outputs in bulk: draws never depend on the
mask, so the draws of a block of tasks are hashed together, one
_kernels.sample_block call per block of bounded size. A block holds
consecutive tasks with one dimension count and one run of draws, so its
grid is a whole (tasks x dims x draws) array. Both experiments score a
block by one step, _score_block, from where each record holds the user
value: the ablation under one mask per draw, its condition's
(experiments), and the perturbation experiment and mc_mean_f_icmw under
every mask of every task (_mean_f_icmw). Only the ablation realizes
tokens, for its records. Their records and means are those of
simulate_output and score_output, bit for bit.

All randomness is derived by a keyed 64-bit mix of
(master seed, stream, task index, dimension index, draw index); there
is no shared PRNG state and calls are safe to run in any order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import groupby, islice
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import BadConfig, Inconsistent, LengthMismatch, UnknownTask
from .jsonio import checked_make, loads_strict
from .metrics import _float_weighted_sum, weighted_sum
from .model import EncodingMask, ValueRef
from .priors import argmax_finds_user, check_flat_tasks, check_world_fields
from .rng import USER_VALUE_STREAM, check_uint64, derive, uniform_index


def token(index: int) -> str:
    return f"v{index}"


class WorldTask(namedtuple("WorldTask", "task_id index dims weights ks lams users")):
    """One task of a world, in columns: dimension j has the lower-cased
    id dims[j], weight weights[j], an alphabet of ks[j] tokens, prior
    mix lams[j] and hidden user value token(users[j])."""

    __slots__ = ()


class SyntheticWorld(namedtuple("SyntheticWorld", "seed tag tasks")):
    # no __slots__ = (): _tasks_by_id is cached in the instance's __dict__
    _make = classmethod(checked_make)

    def __new__(cls, seed: int, tag: str, tasks: tuple[WorldTask, ...]):
        check_flat_tasks(tasks)
        return super().__new__(cls, seed, tag, tasks)

    @cached_property
    def _tasks_by_id(self) -> dict[str, WorldTask]:
        return {t.task_id: t for t in self.tasks}

    def task(self, task_id: str) -> WorldTask:
        try:
            return self._tasks_by_id[task_id]
        except KeyError:
            raise UnknownTask(task_id) from None


# provenance maps a dimension to copied_from_carrier, prior_default or prior_sample
SimulatedOutput = namedtuple("SimulatedOutput", "realized_values provenance")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_world(config: dict, seed: int | None = None) -> SyntheticWorld:
    """Deterministically instantiate a world from its config dict: each
    TaskRow of priors.check_world_fields(config, seed) with its slice of
    the user indices; the world then applies the flat-spec rules.
    Dimension j of task i draws its user index from
    derive(seed, USER_VALUE_STREAM, i, j), every pair in one array call."""
    seed, tag, rows = check_world_fields(config, seed)
    sizes = [len(row.dims) for row in rows]
    task_ixs = np.repeat(np.arange(len(rows)), sizes)
    dim_ixs = np.arange(len(task_ixs)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    ks = np.array([k for row in rows for k in row.ks])
    users = iter(uniform_index(derive(seed, USER_VALUE_STREAM, task_ixs.astype(np.uint64),
                                      dim_ixs.astype(np.uint64)), ks).tolist())
    return SyntheticWorld(seed=seed, tag=tag, tasks=tuple(
        WorldTask(*row, tuple(islice(users, len(row.dims)))) for row in rows))


def load_world(path, seed: int | None = None) -> SyntheticWorld:
    return build_world(loads_strict(Path(path).read_bytes()), seed)


def full_mask(task: WorldTask) -> EncodingMask:
    return EncodingMask(task.dims, (1,) * len(task.dims))


def mask_without(task: WorldTask, ablated: set[str] | frozenset[str]) -> EncodingMask:
    return EncodingMask(task.dims, tuple(0 if d in ablated else 1 for d in task.dims))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _check_mask(task: WorldTask, mask: EncodingMask) -> None:
    if mask.dims != task.dims:
        if len(mask.dims) != len(task.dims):
            raise LengthMismatch(len(task.dims), len(mask.dims), "mask bits")
        raise Inconsistent(f"mask dims {mask.dims!r} vs task dims {task.dims!r}")


def simulate_output(world: SyntheticWorld, task_id: str, mask: EncodingMask,
                    mode: str = "argmax", draw: int = 0) -> SimulatedOutput:
    """Fill every slot: copy encoded dims, default or sample the rest.

    Deterministic in (world, task_id, mask, mode, draw); the draw index
    distinguishes replicates and never depends on the mask, so equal
    masks give equal outputs across conditions. In either mode a draw
    that is not an int in [0, 2**64), or is a bool, raises BadConfig.
    """
    _check_mode(mode)
    check_uint64("draw", draw)
    task = world.task(task_id)
    _check_mask(task, mask)
    if mode == "sample":
        picks = _sample_grid(world.seed, [task], np.array([draw], dtype=np.uint64))[0, :, 0]
        source = "prior_sample"
    else:
        picks, source = _argmax_grid([task])[0], "prior_default"
    realized: dict[str, ValueRef] = {}
    provenance: dict[str, str] = {}
    for dim_id, bit, user, pick in zip(task.dims, mask.bits, task.users, picks.tolist()):
        if bit == 1:
            realized[dim_id] = ValueRef.token(token(user))
            provenance[dim_id] = "copied_from_carrier"
        else:
            realized[dim_id] = ValueRef.token(token(pick))
            provenance[dim_id] = source
    return SimulatedOutput(realized_values=realized, provenance=provenance)


def _dim_column(tasks, name: str) -> np.ndarray:
    """The WorldTask column name of tasks that share one dimension count,
    as a (tasks x dims) array."""
    return np.array([getattr(t, name) for t in tasks])


def _argmax_grid(tasks) -> np.ndarray:
    """Each dimension's prior default (tasks x dims): the user index
    where argmax_finds_user, else token 0."""
    return np.where(argmax_finds_user(_dim_column(tasks, "ks"), _dim_column(tasks, "lams")),
                    _dim_column(tasks, "users"), 0)


def _sample_grid(seed: int, tasks, draws: np.ndarray) -> np.ndarray:
    """Sampled tokens (tasks x dims x draws) of tasks that share one
    dimension count, by one sample_block call.

    Its CDF table (tasks x dims x largest K) is built in columns: each
    row is the flat base (1 - lam)/K plus lam at the user index, summed
    in order by np.cumsum (as a running sum over the prior adds it), with
    entry K - 1 set to 1 and the entries past K to +inf.
    """
    ks, user = _dim_column(tasks, "ks"), _dim_column(tasks, "users")
    lam = _dim_column(tasks, "lams")[..., None]
    cols = np.arange(ks.max())
    # one table, filled in place: a task's K can make it the whole block
    cdf = np.where(cols == user[..., None], lam, 0.0)
    cdf += (1.0 - lam) / ks[..., None]
    np.cumsum(cdf, axis=-1, out=cdf)
    cdf[cols == ks[..., None] - 1] = 1.0
    cdf[cols >= ks[..., None]] = np.inf
    return _kernels.sample_block(
        seed, np.array([t.index for t in tasks], dtype=np.uint64),
        np.arange(ks.shape[1], dtype=np.uint64), draws, cdf, ks)


def _blocks(tasks, counts):
    """Draws 0..counts[i]-1 of each task, as (positions, start, stop)
    blocks in task then draw order: draws start..stop-1 of each task
    tasks[p], p in the range positions.

    A block's tasks are consecutive and share one dimension count and
    one draw count, so its hash grid (tasks x dims x draws) and its CDF
    table (tasks x dims x largest K) are whole arrays. Each holds at most
    _kernels._CHUNK_DRAWS cells, unless one task alone needs more: a
    task whose draws do not fit is cut into ranges that do, a block
    each, and tasks whose draws fit one range join a block while both
    arrays still fit.
    """
    budget = _kernels._CHUNK_DRAWS
    hi = 0
    for (dims, n), run in groupby(zip([len(t.dims) for t in tasks], counts)):
        lo, hi = hi, hi + len(list(run))
        step = max(1, budget // dims)
        if n > step:
            for pos in range(lo, hi):
                for start in range(0, n, step):
                    yield range(pos, pos + 1), start, min(start + step, n)
            continue
        first, k_max = lo, 0  # the block's first task and largest K so far
        for pos, k in enumerate([max(t.ks) for t in tasks[lo:hi]], lo):
            k_max = max(k_max, k)
            if pos > first and (pos + 1 - first) * dims * max(n, k_max) > budget:
                yield range(first, pos), 0, n
                first, k_max = pos, k
        yield range(first, hi), 0, n


def _block_grids(world: SyntheticWorld, tasks, counts, mode: str):
    """(block, grid) per block (positions, start, stop) of
    _blocks(tasks, counts). grid[t, j, i] is dimension j's prior default
    (argmax mode) or sampled token (sample mode, one sample_block call
    per block) at draw start + i of tasks[positions[t]]."""
    for positions, start, stop in _blocks(tasks, counts):
        block_tasks = tasks[positions.start:positions.stop]
        if mode == "sample":
            grid = _sample_grid(world.seed, block_tasks,
                                np.arange(start, stop, dtype=np.uint64))
        else:
            argmax = _argmax_grid(block_tasks)
            grid = np.broadcast_to(argmax[..., None], (*argmax.shape, stop - start))
        yield (positions, start, stop), grid


def _f_icmw(tasks, keys: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """f_icmw of each record i, a record of tasks[keys[i]] whose fidelity
    row is hits[i] (records x dims; True where the record holds the user
    value): weighted_sum of that 0/1 row under the task's weights, once
    per distinct (task, row). Rows are told apart by their key and the
    bits of 32 columns at a time."""
    ids = keys
    for lo in range(0, hits.shape[1], 32):
        part = hits[:, lo:lo + 32]
        code = part @ (1 << np.arange(part.shape[1], dtype=np.int64))
        ids = np.unique((ids << 32) | code, return_inverse=True)[1].reshape(-1)
    first = np.empty(ids.max() + 1, dtype=np.intp)
    first[ids] = np.arange(len(ids))
    return np.array([_float_weighted_sum(tasks[k].weights, row)
                     for k, row in zip(keys[first].tolist(), hits[first].tolist())])[ids]


def _score_block(tasks, grid: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """f_icmw of the records of one block's grid, (tasks x masks x
    draws), by one _f_icmw call: each record copies the user value where
    its mask bit is set and takes its grid token elsewhere, so it holds
    the user value where masks | (token == user). masks broadcasts to
    (tasks x masks x draws x dims); no token is realized."""
    users = _dim_column(tasks, "users")[:, None, None]
    hits = masks | (grid.transpose(0, 2, 1)[:, None] == users)
    b, m, n, d = hits.shape
    return _f_icmw(tasks, np.arange(b).repeat(m * n), hits.reshape(-1, d)).reshape(b, m, n)


def _mean_f_icmw(world: SyntheticWorld, tasks, bits: np.ndarray, n: int, mode: str):
    """Mean f_icmw of each task over its draws 0..n-1 under each mask of
    bits, a (tasks x masks x dims) bool array of tasks that share one
    dimension count; one list per task, in task order.

    Each block scores every mask of each of its tasks on every draw at
    once. A task whose draws span blocks is alone in each, and they come
    in draw order, so each (task, mask) sum runs on across them
    (np.cumsum adds in order) from 0.0, as a loop over simulated records
    would sum it.
    """
    counts = [n] * len(tasks)
    for (positions, start, stop), grid in _block_grids(world, tasks, counts, mode):
        lo, hi = positions.start, positions.stop
        f = _score_block(tasks[lo:hi], grid, bits[lo:hi, :, None])
        if start == 0:
            sums = np.zeros(f.shape[:2])
        sums = np.cumsum(np.concatenate([sums[..., None], f], axis=-1), axis=-1)[..., -1]
        if stop == n:
            yield from (sums / n).tolist()


def _check_count(name: str, n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BadConfig(f"{name} must be a positive integer, got {n!r}")


def _check_mode(mode) -> None:
    if mode not in ("argmax", "sample"):
        raise BadConfig(f"mode must be 'argmax' or 'sample', got {mode!r}")


# ---------------------------------------------------------------------------
# analytic expectations and Monte Carlo means
# ---------------------------------------------------------------------------

def _argmax_match_prob(k: int, lam: float) -> float:
    """P(argmax of prior == user value) under world regeneration.

    Certain when lam lifts the user's entry; otherwise argmax is token 0,
    which is the user value for 1 of the K equally likely values.
    """
    return 1.0 if argmax_finds_user(k, lam) else 1.0 / k


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
    for bit, k, lam in zip(mask.bits, task.ks, task.lams):
        if bit == 1:
            e.append(1.0)
        elif mode == "sample":
            e.append((1.0 - lam) / k + lam)  # the prior's user entry
        else:
            e.append(_argmax_match_prob(k, lam))
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
    return next(_mean_f_icmw(world, [task], np.array([[mask.bits]], dtype=bool),
                             n, "sample"))[0]
