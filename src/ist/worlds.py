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

The record engine simulates outputs in bulk: draws never depend on the
mask, so the draws of a block of tasks are hashed together, one
_kernels.sample_block call per block of bounded size, and every mask is
applied to each task's token matrix at once (_TaskDraws). The ablation
and perturbation experiments and mc_mean_f_icmw all run on it, and its
records are those of simulate_output and score_output, bit for bit.

All randomness is derived by a keyed 64-bit mix of
(master seed, stream, task index, dimension index, draw index); there
is no shared PRNG state and calls are safe to run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import BadConfig, LengthMismatch, UnknownTask
from .metrics import weighted_sum
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
    prior: tuple[float, ...]
    cdf: tuple[float, ...]

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

def _build_dim(dim_id: str, weight: float, k: int, lam: float, task_ix: int,
               dim_ix: int, seed: int) -> WorldDim:
    user_index = uniform_index(derive(seed, USER_VALUE_STREAM, task_ix, dim_ix), k)
    prior = [(1.0 - lam) / k] * k
    prior[user_index] += lam
    cdf = list(accumulate(prior))
    cdf[-1] = 1.0  # kill accumulated rounding at the top end
    return WorldDim(id=dim_id, weight=weight, k=k, lam=lam,
                    user_index=user_index, prior=tuple(prior), cdf=tuple(cdf))


def build_world(config: dict, seed: int | None = None) -> SyntheticWorld:
    """Deterministically instantiate a world from its config dict: the
    rows of priors.check_world_fields(config, seed), realized; the world
    then applies the flat-spec rules."""
    seed, tag, rows = check_world_fields(config, seed)
    return SyntheticWorld(seed=seed, tag=tag, tasks=tuple(
        WorldTask(task_id=task_id, index=task_ix, dims=tuple(
            _build_dim(*dim, task_ix, dim_ix, seed)
            for dim_ix, dim in enumerate(dims)))
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


def _sample_grid(seed: int, tasks, draws: np.ndarray) -> np.ndarray:
    """Sampled tokens (tasks x dims x draws) by one sample_block call.

    Each dimension's CDF is padded with +inf to the largest K, and a task
    with fewer dimensions than the widest gets +inf rows whose tokens
    nobody reads.
    """
    n_dims = max(len(t.dims) for t in tasks)
    k = max(d.k for t in tasks for d in t.dims)
    pad = (math.inf,) * k
    cdfs, ks = [], []
    for task in tasks:
        for d in task.dims:
            cdfs.append(d.cdf + pad[d.k:])
            ks.append(d.k)
        gap = n_dims - len(task.dims)
        cdfs += [pad] * gap
        ks += [1] * gap
    shape = (len(tasks), n_dims)
    return _kernels.sample_block(
        seed, np.array([t.index for t in tasks], dtype=np.uint64),
        np.arange(n_dims, dtype=np.uint64), draws,
        np.array(cdfs).reshape(*shape, k), np.array(ks).reshape(shape))


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


def _draw_pieces(world: SyntheticWorld, tasks, counts, mode: str):
    """(position, start, tokens) for draws 0..counts[i]-1 of each task, in
    task then draw order. tokens is a (draws x dims) matrix holding each
    dimension's prior default (argmax mode) or its sampled token (sample
    mode) per draw; sample mode hashes each block with one call."""
    for block in _blocks(tasks, counts):
        if mode == "sample":
            start = block[0][1]
            stop = max(stop for _, _, stop in block)
            grid = _sample_grid(world.seed, [tasks[pos] for pos, _, _ in block],
                                np.arange(start, stop, dtype=np.uint64))
        for t, (pos, start, stop) in enumerate(block):
            task_dims = tasks[pos].dims
            if mode == "sample":
                tokens = grid[t, :len(task_dims), :stop - start].T
            else:
                tokens = np.broadcast_to([d.argmax_index for d in task_dims],
                                         (stop - start, len(task_dims)))
            yield pos, start, tokens


def _task_draws(world: SyntheticWorld, tasks, counts, mode: str):
    """(_TaskDraws, pieces) per task, in order: pieces yields (start,
    tokens) for the task's draws 0..counts[i]-1."""
    for pos, group in groupby(_draw_pieces(world, tasks, counts, mode),
                              itemgetter(0)):
        yield (_TaskDraws(tasks[pos]),
               ((start, tokens) for _, start, tokens in group))


class _TaskDraws:
    """One task's scoring of (draws x dims) token matrices, by row.

    Row i of a piece holds every dimension's token at draw start + i.
    Draws never depend on the mask, so one matrix serves every mask.
    Scoring is exact match against the user value: a record's fidelity
    row is mask | (token == user), and its f_icmw is weighted_sum of
    that 0/1 row, computed once per distinct row.
    """

    def __init__(self, task: WorldTask):
        self.task = task
        self._weights = task.weights
        self._user = np.array([d.user_index for d in task.dims])
        self._f_icmw: dict[tuple, float] = {}

    def realize(self, bits, tokens: np.ndarray) -> np.ndarray:
        """Realized tokens under mask bits that broadcast against tokens:
        encoded dimensions copy the user value, the rest keep the drawn
        token."""
        return np.where(np.asarray(bits, dtype=bool), self._user, tokens)

    def f_icmw(self, real: np.ndarray) -> list[float]:
        """f_icmw per row of realized tokens."""
        out = []
        for hits in (real == self._user).tolist():
            key = tuple(hits)
            f = self._f_icmw.get(key)
            if f is None:
                f = self._f_icmw[key] = weighted_sum(self._weights, hits)
            out.append(f)
        return out

    def mean_f_icmw(self, bits: np.ndarray, pieces, n: int) -> list[float]:
        """Mean f_icmw per row of a (masks x dims) bit matrix over the n
        draws in pieces. One np.where realizes every mask of a piece, and
        each mask's sum runs on in draw order across pieces, as a loop
        over simulated records would sum it."""
        totals = [0.0] * len(bits)
        for _, tokens in pieces:
            rows, dims = tokens.shape
            fs = self.f_icmw(self.realize(bits[:, None], tokens).reshape(-1, dims))
            for m in range(len(totals)):
                for f in fs[m * rows:(m + 1) * rows]:
                    totals[m] += f
        return [total / n for total in totals]


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
            e.append(dim.prior[dim.user_index])
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
    draws, pieces = next(_task_draws(world, [task], [n], "sample"))
    return draws.mean_f_icmw(np.array([mask.bits]), pieces, n)[0]
