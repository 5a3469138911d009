"""Ablation and weight-perturbation harnesses over synthetic worlds.

Two experiment designs live here. Each runs every task of a world, in
order, and takes the world, a mode ("argmax" or "sample") and a
replicate count that defaults to default_replicates(mode):

* write_ablation, behind `ist ablate`: FULL condition plus one
  condition per dimension with that dimension's mask bit zeroed. It
  writes the records as JSONL joined from fragments of each run's
  token and f_icmw columns, with no record object, and hands back each
  condition's mean f_icmw; a task holds one running total per
  condition. Fidelity drops under ablation identify the weights:
  spec_io.read_records reads the lines back as records, and
  estimate_weights_by_ablation takes one task's.

* run_weight_perturbation: encode a carrier under a budget using
  perturbed weights, score it under the true weights (WAS). Because a
  perturbation only matters through the chosen mask, any perturbation
  preserving the top-B weight set gives an identical mask and therefore
  a WAS delta of exactly zero (the plateau); inverting the ranking
  displaces high-weight private dimensions and craters WAS (the cliff).

Both designs run on the record engine of worlds, which also backs
mc_mean_f_icmw: a draw index is a pure function of plan position and
never of the mask, so the engine hashes the draws of a block of tasks
(consecutive, with one dimension count) at once and every mask reuses
them. Each design scores a whole block by one worlds._score_block call,
and the ablation realizes the block's tokens, so its output streams a
block at a time; the bytes are those of simulating and scoring each
record in turn (the tests keep that per-record loop as the reference).

Perturbation masks are planned by rows (perturb_weight_rows and
encode_rows), for each run of consecutive tasks with one dimension
count at once. Every mean f_icmw, of a condition or of a mask, is its
records' f_icmw added in draw order from 0.0, divided by their count.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from itertools import groupby
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadBudget,
    BadPerturbation,
    Inconsistent,
    MissingCondition,
    SchemaError,
    SpecSyntaxError,
    ZeroSignal,
)
from .jsonio import (_check_keys, _fmt_float, _get_int, _get_number, _get_str, _require_obj,
                     _scalar_error, checked_make, dumps_canonical, loads_strict,
                     normalize_weights)
from .metrics import synthesize_ga, weighted_sum
from .model import EncodingMask
from .rng import MASK64, PERTURB_STREAM, check_uint64, derive, unit_float
from .spec_io import OutputRecord, mask_to_obj
from .worlds import (
    SyntheticWorld,
    WorldTask,
    _block_grids,
    _check_count,
    _check_mode,
    _dim_column,
    _mean_f_icmw,
    _score_block,
    build_world,
    full_mask,
    load_world,
    mask_without,
)

FULL_CONDITION = "FULL"
ABLATION_PREFIX = "ABL_"

# Replicate defaults: sampling needs repetition, argmax is deterministic.
SAMPLE_REPLICATES = 50
ARGMAX_REPLICATES = 1


def default_replicates(mode: str) -> int:
    return ARGMAX_REPLICATES if mode == "argmax" else SAMPLE_REPLICATES


def _replicates(mode: str, replicates: int | None) -> int:
    """replicates, or the mode's default; raises on a bad mode or count."""
    _check_mode(mode)
    if replicates is None:
        replicates = default_replicates(mode)
    _check_count("replicates", replicates)
    return replicates


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def _ablation_runs(world: SyntheticWorld, mode: str, reps: int):
    """(position, conds, real, f) per run of a task's draws, in world
    and draw order: the condition index of each draw (FULL is 0, the
    ablation of dimension i is 1 + i), the realized tokens (draws x dims)
    and their f_icmw.

    The draw index is condition_index * reps + replicate, fixed by the
    record's position alone, so a task's records are one run of draws and
    output bytes never depend on evaluation order. Runs come a block at
    a time: every task of a block is realized at once (under condition c
    each dimension but the (c - 1)-th copies the user value) and scored
    by one _score_block call."""
    counts = [(1 + len(task.dims)) * reps for task in world.tasks]
    for (positions, start, stop), grid in _block_grids(world, world.tasks, counts, mode):
        tasks = world.tasks[positions.start:positions.stop]
        conds = np.arange(start, stop) // reps
        masks = conds[:, None] != np.arange(1, grid.shape[1] + 1)
        real = np.where(masks, _dim_column(tasks, "users")[:, None], grid.transpose(0, 2, 1))
        f = _score_block(tasks, grid, masks)
        for t, pos in enumerate(positions):
            yield pos, conds, real[t], f[t, 0]


# lines per write call of write_ablation: bounds the text held at once
_WRITE_LINES = 4096


def write_ablation(dest, world: SyntheticWorld, mode: str = "argmax",
                   replicates: int | None = None,
                   ) -> Iterator[tuple[WorldTask, list[float]]]:
    """Write the ablation's records to dest, a path or an open text
    stream: one per (task, condition, replicate) in world order, with the
    bytes write_records gives those records. Yield (task, means) for each
    task once its lines are written: means holds each condition's mean
    f_icmw, FULL's first, then each dimension's ablation.

    A bad mode or replicates raises here, before dest is opened. Lines
    are joined from canonical fragments, each rendered once: the
    condition, model tag and mask per condition of a tuple of dimension
    ids, and per run of a task's draws the realized values and f_icmw of
    each distinct token row. No record object is made, and a task holds
    one running f_icmw total per condition, whatever the replicates.
    """
    return _write_ablation(dest, world, mode, _replicates(mode, replicates))


def _write_ablation(dest, world: SyntheticWorld, mode: str, reps: int):
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            yield from _write_ablation(fh, world, mode, reps)
        return
    enc = cache(encode_basestring)
    heads: dict[tuple[str, ...], list[str]] = {}  # dim ids -> per condition
    for pos, runs in groupby(_ablation_runs(world, mode, reps), itemgetter(0)):
        task = world.tasks[pos]
        ids = task.dims
        s = weighted_sum(task.weights, [1.0] * len(ids))
        cond_heads = heads.get(ids)
        if cond_heads is None:
            conds = [(FULL_CONDITION, full_mask(task))] + [
                (ABLATION_PREFIX + d, mask_without(task, {d})) for d in ids]
            cond_heads = heads[ids] = [
                dumps_canonical({"condition": condition, "model_tag": world.tag,
                                 "mask": mask_to_obj(mask)})[1:-1]
                for condition, mask in conds]
        starts = [f'{{"task_id":{enc(task.task_id)},{head},"realized_values":{{'
                  for head in cond_heads]
        keys = [f'{enc(d)}:{{"kind":"token","value":"v' for d in ids]
        scores = f'}},"ga":{synthesize_ga(s)},"s_icmw":{_fmt_float(s)},"f_icmw":'
        totals = [0.0] * len(starts)
        for _, cond_ixs, real, f in runs:
            tails: dict[tuple[int, ...], str] = {}  # token row -> rest of line
            for lo in range(0, len(f), _WRITE_LINES):
                batch = slice(lo, lo + _WRITE_LINES)
                lines = []
                for c, row, f_icmw in zip(cond_ixs[batch].tolist(),
                                          map(tuple, real[batch].tolist()),
                                          f[batch].tolist()):
                    tail = tails.get(row)
                    if tail is None:
                        tail = tails[row] = (
                            ",".join([f'{key}{j}"}}' for key, j in zip(keys, row)])
                            + scores + _fmt_float(f_icmw) + "}\n")
                    lines.append(starts[c] + tail)
                    totals[c] += f_icmw
                dest.write("".join(lines))
        yield task, [total / reps for total in totals]


def estimate_weights_by_ablation(records: Iterable[OutputRecord]) -> dict[str, float]:
    """Infer dimension weights from fidelity drops under ablation.

    drop_i = mean f_icmw(FULL) - mean f_icmw(ABL_i), floored at zero,
    then normalized (_weights_from_means). All-zero drops mean the world
    is all-public and the weights are unidentifiable by this method.
    Dimension ids compare case-insensitively, in a condition's ABL_ id as
    in the mask, and the weights are keyed by the lowercase ids.

    The records must be one task's ablation: another task, mask ids or
    condition, or mask bits other than the condition's (all ones for
    FULL, one zero at i for ABL_i), raises Inconsistent, a condition
    without records MissingCondition.
    """
    sums = {FULL_CONDITION: (0.0, 0)}  # condition -> (f_icmw total, count)
    task_id, dims = None, ()
    for rec in records:
        if task_id is None:
            task_id, dims = rec.task_id, rec.mask.dims
            sums.update({ABLATION_PREFIX + d: (0.0, 0) for d in dims})
        elif rec.task_id != task_id:
            raise Inconsistent(f"records mix tasks {task_id!r} and {rec.task_id!r}")
        elif rec.mask.dims != dims:
            raise Inconsistent(f"records mix dimension ids {dims!r} and {rec.mask.dims!r}")
        cond = rec.condition
        if cond.startswith(ABLATION_PREFIX):
            cond = ABLATION_PREFIX + cond[len(ABLATION_PREFIX):].lower()
        if cond not in sums:
            raise Inconsistent(
                f"condition {rec.condition!r} is not in the ablation of {dims!r}")
        if rec.mask.bits != tuple(int(ABLATION_PREFIX + d != cond) for d in dims):
            raise Inconsistent(f"condition {rec.condition!r} has mask bits {rec.mask.bits!r}")
        total, count = sums[cond]
        sums[cond] = total + rec.f_icmw, count + 1
    for cond, (_, count) in sums.items():
        if count == 0:
            raise MissingCondition(cond)
    means = [total / count for total, count in sums.values()]
    return _weights_from_means(task_id, dims, means)


def _weights_from_means(task_id: str, dims: Sequence[str],
                        means: Sequence[float]) -> dict[str, float]:
    """Weights from each condition's mean f_icmw, FULL's first, then the
    ablation of each of dims: the drops from FULL, floored at zero and
    normalized. ZeroSignal when every drop is zero."""
    full, *ablated = means
    drops = [max(0.0, full - mean) for mean in ablated]
    if all(d == 0.0 for d in drops):
        raise ZeroSignal(
            f"no fidelity drop under any ablation of task {task_id!r}; "
            "weights unidentifiable (all-public world?)")
    return dict(zip(dims, normalize_weights(drops)))


# ---------------------------------------------------------------------------
# budgeted encoding
# ---------------------------------------------------------------------------

def default_budget(n_dims: int) -> int:
    """ceil(n/2): guarantees both encoded and absent dimensions exist."""
    return math.ceil(n_dims / 2)


def _check_budget(budget: int, n: int) -> None:
    if not isinstance(budget, int) or isinstance(budget, bool) or not 0 <= budget <= n:
        raise BadBudget(f"budget must be an integer in [0, {n}], got {budget!r}")


def encode_rows(weights: np.ndarray, budget: int) -> np.ndarray:
    """Top-`budget` mask bits of each row of a weight array, as a bool
    array of its shape (rows run along the last axis).

    Ties break toward earlier flatten order (one stable sort of each row's
    negated weights).
    """
    _check_budget(budget, weights.shape[-1])
    order = np.argsort(-weights, axis=-1, kind="stable")
    bits = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(bits, order[..., :budget], True, axis=-1)
    return bits


def encode_with_budget(dim_ids: Sequence[str], assumed_weights: Sequence[float],
                       budget: int) -> EncodingMask:
    """Mask the top-`budget` dimensions by assumed weight: encode_rows on
    one row."""
    n = len(dim_ids)
    if len(assumed_weights) != n:
        raise BadBudget(f"{n} ids vs {len(assumed_weights)} weights")
    bits = encode_rows(np.array([assumed_weights], dtype=np.float64), budget)
    return EncodingMask(tuple(dim_ids), tuple(bits[0].astype(int).tolist()))


# ---------------------------------------------------------------------------
# weight perturbations
# ---------------------------------------------------------------------------

class PerturbationSpec(namedtuple("PerturbationSpec", "kind epsilon count")):
    """One perturbation: identity, jitter(epsilon), adjacent_swap(count) or
    full_inversion. epsilon and count default to the ladder's, 0.05 and 1,
    and only their own kind reads them."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, kind: str, epsilon: float = 0.05, count: int = 1):
        if kind == "jitter":
            if not 0.0 < epsilon < 1.0:
                raise BadPerturbation(f"jitter epsilon must be in (0, 1), got {epsilon}")
        elif kind == "adjacent_swap":
            if count < 1:
                raise BadPerturbation(f"adjacent_swap count must be >= 1, got {count}")
        elif kind not in ("identity", "full_inversion"):
            raise BadPerturbation(f"unknown perturbation kind {kind!r}")
        return super().__new__(cls, kind, epsilon, count)

    @property
    def name(self) -> str:
        if self.kind == "jitter":
            return f"jitter({format(self.epsilon, 'g')})"
        if self.kind == "adjacent_swap":
            return f"adjacent_swap({self.count})"
        return self.kind


def default_perturbations() -> list[PerturbationSpec]:
    """The severity ladder: none, moderate noise, rank nudge, inversion."""
    return [PerturbationSpec(kind)
            for kind in ("identity", "jitter", "adjacent_swap", "full_inversion")]


def perturb_weight_rows(weights: np.ndarray, spec: PerturbationSpec,
                        seeds: np.ndarray) -> np.ndarray:
    """Apply one perturbation to each row of a (rows x dims) weight matrix;
    row i uses seeds[i] (np.uint64) and is a valid weight vector.

    jitter multiplies each weight by a factor uniform in [1-eps, 1+eps]
    and renormalizes (eps <= 0.2 keeps well-separated rankings intact).
    adjacent_swap(c) swaps the first c disjoint adjacent pairs of the
    descending ranking: values at ranks (0,1), (2,3), ... trade places.
    full_inversion hands the largest value to the lowest-ranked
    dimension and so on, preserving the multiset of values.
    """
    n = weights.shape[1]
    if n == 0:
        raise BadPerturbation("empty weight vector")
    if spec.kind == "identity":
        return weights
    if spec.kind == "jitter":
        eps = spec.epsilon
        u = unit_float(derive(seeds[:, None], PERTURB_STREAM,
                              np.arange(n, dtype=np.uint64)))
        jittered = weights * (1.0 - eps + 2.0 * eps * u)
        return np.array([normalize_weights(row) for row in jittered.tolist()])
    order = np.argsort(-weights, axis=1, kind="stable")
    rows = np.arange(len(weights))[:, None]
    out = weights.copy()
    if spec.kind == "adjacent_swap":
        if spec.count > n // 2:
            raise BadPerturbation(
                f"adjacent_swap({spec.count}) needs {2 * spec.count} dims, have {n}")
        a, b = order[:, 0:2 * spec.count:2], order[:, 1:2 * spec.count:2]
        out[rows, a], out[rows, b] = weights[rows, b], weights[rows, a]
        return out
    # full_inversion
    out[rows, order] = weights[rows, order[:, ::-1]]
    return out


def perturb_weights(weights: Sequence[float], spec: PerturbationSpec,
                    seed: int = 0) -> list[float]:
    """Apply one perturbation to one weight vector: perturb_weight_rows on
    one row. A seed that is not an int in [0, 2**64), or is a bool,
    raises BadConfig."""
    check_uint64("seed", seed)
    w = np.array([[float(x) for x in weights]], dtype=np.float64)
    seeds = np.array([seed], dtype=np.uint64)
    return perturb_weight_rows(w, spec, seeds)[0].tolist()


# ---------------------------------------------------------------------------
# the perturbation experiment
# ---------------------------------------------------------------------------

def _plan_masks(world: SyntheticWorld, tasks: Sequence[WorldTask],
                specs: Sequence[PerturbationSpec], budget: int | None) -> np.ndarray:
    """Mask bits (tasks x specs x dims) of tasks that share one dimension
    count: the top-budget mask of each perturbation's weights, perturbed
    with the seed derive(world seed, PERTURB_STREAM, task index,
    perturbation index). The budget is checked before any perturbation,
    so a budget that does not fit is named before a perturbation that
    does not."""
    n = len(tasks[0].dims)
    b = default_budget(n) if budget is None else budget
    _check_budget(b, n)
    weights = np.array([t.weights for t in tasks], dtype=np.float64)
    seeds = derive(world.seed, PERTURB_STREAM,
                   np.array([t.index for t in tasks], dtype=np.uint64)[:, None],
                   np.arange(len(specs), dtype=np.uint64))
    perturbed = np.stack([perturb_weight_rows(weights, p, seeds[:, p_ix])
                          for p_ix, p in enumerate(specs)], axis=1)
    return encode_rows(perturbed, b)


CellSummary = namedtuple("CellSummary", "task_id model_tag perturbation was "
                         "delta_vs_baseline mask_changed")
PerturbationReport = namedtuple("PerturbationReport", "cells plateau_rate cliff_rate "
                                "mean_inversion_drop")


def run_weight_perturbation(world: SyntheticWorld,
                            budget: int | None = None,
                            perturbations: Sequence[PerturbationSpec] | None = None,
                            mode: str = "argmax",
                            replicates: int | None = None) -> PerturbationReport:
    """WAS per (task, perturbation) plus plateau and cliff rates.

    Baseline is the first identity cell of each task (identity is always
    evaluated, listed or not), whose mask is the true weights'.
    plateau_rate is the share of non-identity, mask-preserving cells
    whose WAS delta is exactly zero; cliff_rate is the share of tasks
    where full inversion lands strictly below baseline.

    The masks of each run of consecutive tasks with one dimension count
    are planned at once, before the run's draws. In a built (so valid)
    world only a budget or a perturbation that does not fit a dimension
    count fails, so the first error is the one that planning task by
    task raises.
    """
    replicates = _replicates(mode, replicates)
    if perturbations is None:
        perturbations = default_perturbations()
    specs = list(perturbations)
    if not any(p.kind == "identity" for p in specs):
        specs.insert(0, PerturbationSpec("identity"))

    names = [p.name for p in specs]
    base = next(i for i, p in enumerate(specs) if p.kind == "identity")
    cells = []
    for _, run in groupby(world.tasks, lambda task: len(task.dims)):
        tasks = list(run)
        plan = _plan_masks(world, tasks, specs, budget)
        moved = (plan != plan[:, base:base + 1]).any(axis=2).tolist()
        # The exact-zero plateau follows from mask-independent draws: an
        # identical mask gives identical fidelity rows.
        for task, was, task_moved in zip(
                tasks, _mean_f_icmw(world, tasks, plan, replicates, mode), moved):
            cells += [CellSummary(task.task_id, world.tag, name, w, w - was[base], c)
                      for name, w, c in zip(names, was, task_moved)]

    preserving = [c for c in cells
                  if c.perturbation != "identity" and not c.mask_changed]
    plateau_rate = (sum(1 for c in preserving if c.delta_vs_baseline == 0.0)
                    / len(preserving)) if preserving else None
    inversions = [c for c in cells if c.perturbation == "full_inversion"]
    cliff_rate = (sum(1 for c in inversions if c.delta_vs_baseline < 0.0)
                  / len(inversions)) if inversions else None
    mean_drop = (float(np.mean([-c.delta_vs_baseline for c in inversions]))
                 if inversions else None)
    return PerturbationReport(cells=tuple(cells), plateau_rate=plateau_rate,
                              cliff_rate=cliff_rate,
                              mean_inversion_drop=mean_drop)


def report_to_json(rep: PerturbationReport) -> str:
    """dumps_canonical of the report's fields as nested objects, in field
    order, joined from fragments: each distinct task id, model tag and
    perturbation label is encoded once, and floats take the canonical
    17-digit form."""
    enc = cache(encode_basestring)
    cells = ",".join(
        f'{{"task_id":{enc(c.task_id)},"model_tag":{enc(c.model_tag)}'
        f',"perturbation":{enc(c.perturbation)},"was":{_fmt_float(c.was)}'
        f',"delta_vs_baseline":{_fmt_float(c.delta_vs_baseline)}'
        f',"mask_changed":{"true" if c.mask_changed else "false"}}}'
        for c in rep.cells)
    rates = {name: getattr(rep, name)
             for name in ("plateau_rate", "cliff_rate", "mean_inversion_drop")}
    return f'{{"cells":[{cells}],{dumps_canonical(rates)[1:]}'


# ---------------------------------------------------------------------------
# experiment configs (JSON side)
# ---------------------------------------------------------------------------

# perturbations None runs the default ladder
ExperimentConfig = namedtuple("ExperimentConfig", "world budget perturbations replicates mode",
                              defaults=(None, None, None, "argmax"))


# the one parameter field each parameterized kind takes besides "kind",
# and its reader
_PERTURBATION_PARAMS = {"jitter": ("epsilon", _get_number), "adjacent_swap": ("count", _get_int)}
_EXPERIMENT_FIELDS = ("world_config", "world_path", "budget", "perturbations",
                      "replicates", "mode", "seed")


def _parse_perturbation(item, path: str) -> PerturbationSpec:
    if isinstance(item, str):
        item = {"kind": item}
    elif not isinstance(item, dict):
        raise SchemaError(path, f"expected string or object, got {type(item).__name__}")
    kind = _get_str(item, "kind", path) if "kind" in item else None
    param, read = _PERTURBATION_PARAMS.get(kind, (None, None))
    _check_keys(item, path, ("kind",), (param,), False)
    params = {param: read(item, param, path)} if param in item else {}
    try:
        return PerturbationSpec(kind, **params)
    except BadPerturbation as e:
        raise SchemaError(path, str(e)) from None


def parse_experiment_config(data: bytes | str, *, base_dir=None,
                            seed: int | None = None) -> ExperimentConfig:
    """Parse {world_config | world_path, budget, perturbations,
    replicates, mode, seed}; relative world_path resolves against
    base_dir. A bad field raises SchemaError at its $-path, a world's under
    $.world_config or after the world_path file's name as written."""
    doc = _require_obj(loads_strict(data), "$")
    _check_keys(doc, "$", (), _EXPERIMENT_FIELDS, False)
    if seed is None and "seed" in doc:
        seed = _get_int(doc, "seed", "$", 0, MASK64)
    if ("world_config" in doc) == ("world_path" in doc):
        raise SchemaError("$", "needs exactly one of world_config, world_path")
    if "world_config" in doc:
        try:
            world = build_world(doc["world_config"], seed)
        except SchemaError as e:
            raise SchemaError("$.world_config" + e.path[1:], e.reason) from None
    else:
        name = _get_str(doc, "world_path", "$")
        path = Path(name)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            world = load_world(path, seed)
        except (SchemaError, SpecSyntaxError) as e:
            raise SchemaError(name, str(e)) from None
    # budget's range is encode_rows' [0, n], n the dims of each task:
    # check_experiment_fits holds it against the world
    budget = _get_int(doc, "budget", "$") if "budget" in doc else None
    mode = doc.get("mode", "argmax")
    if mode not in ("argmax", "sample"):
        raise SchemaError("$.mode", f"must be 'argmax' or 'sample', got {mode!r}")
    replicates = _get_int(doc, "replicates", "$", 1) if "replicates" in doc else None
    perturbations = None
    if "perturbations" in doc:
        raw = doc["perturbations"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("$.perturbations", "expected a non-empty array")
        perturbations = tuple(_parse_perturbation(p, f"$.perturbations[{i}]")
                              for i, p in enumerate(raw))
    return ExperimentConfig(world=world, budget=budget,
                            perturbations=perturbations,
                            replicates=replicates, mode=mode)


def check_experiment_fits(cfg: ExperimentConfig) -> None:
    """Refuse a document's budget or adjacent_swap count that a task of
    its world has too few dimensions for, as SchemaError at $.budget or
    $.perturbations[i].count: each range is the one of the task with the
    fewest dimensions, so a config that passes plans every task. The
    budget is named first, as planning names it first within a task."""
    n = min(len(task.dims) for task in cfg.world.tasks)
    if cfg.budget is not None and not 0 <= cfg.budget <= n:
        raise _scalar_error("$", "budget", "an integer", cfg.budget, 0, n)
    for i, p in enumerate(cfg.perturbations or ()):
        if p.kind == "adjacent_swap" and p.count > n // 2:
            raise _scalar_error(f"$.perturbations[{i}]", "count", "an integer", p.count, 1, n // 2)
