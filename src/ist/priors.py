"""World configs and (K, lambda) privacy labels, in pure Python.

Four rules about synthetic prior worlds that need no world build and no
numpy:

* check_world_config is the one check pass of a world config. It makes
  every check a world build makes and returns a WorldConfig, the built
  world less its user values (ids lower-cased, weights normalized), which
  `ist audit --world` and `ist tiil-check` read alone. It is
  check_world_fields then check_flat_tasks, the rules of a flat intent
  spec. build_world realizes the tasks of check_world_fields into a
  SyntheticWorld, whose constructor applies check_flat_tasks, so the
  rules run once there too. Each refusal is a SchemaError at its $-path;
  seed, weight, K and lambda are read by jsonio's _get_int and
  _get_number, so a world config refuses a number as a spec does.
* dim_channels is the one (K, lambda) lookup: it reads the named
  dimensions of one task of world.tasks, built or checked alike, so the
  audit labels and the information oracle find a channel alike.
* privacy_label is the one public/private rule of a (K, lambda) channel.
  It takes the channel's Bayes accuracy, (1 + (K - 1) lambda)/K, and its
  chance level, 1/K, in closed form, each correctly rounded, without
  building the K x K table.
* argmax_finds_user is the one argmax rule of a (K, lambda) prior, read
  by the world simulator and the dense oracle alike.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .errors import RangeError, SchemaError, UnknownTask, UnknownVariable, WorldTooLarge
from .jsonio import (TOP_WEIGHT_TOL, _check_keys, _get_int, _get_number, _get_str, _require_obj,
                     normalize_weights, weight_sum)
from .rng import MASK64, check_uint64

# The most cells one table may hold: a dimension's alphabet (K) in a
# world, a joint in infotheory.
CELL_CAP = 10 ** 6
THETA_PUB_DEFAULT = 0.9
# Public additionally requires clearing chance by this margin, so a world
# where the best decoder is no better than blind guessing can never be
# labeled public no matter how low theta_pub is set.
CHANCE_FLOOR = 0.1

# a SyntheticWorld's fields, and each task a WorldTask's but for its users
WorldConfig = namedtuple("WorldConfig", "seed tag tasks")
TaskRow = namedtuple("TaskRow", "task_id index dims weights ks lams")


# ---------------------------------------------------------------------------
# the world-config check pass
# ---------------------------------------------------------------------------

def check_flat_tasks(tasks) -> None:
    """The rules validate_spec applies to a flat spec, on each task's
    task_id, dims and weights: a task id no other task uses; non-empty
    dimension ids, distinct after lower-casing; weights in [0, 1] whose
    fsum is within TOP_WEIGHT_TOL of 1 (a task without dims fails the
    sum), else SchemaError at $.tasks[i] (or its dims[j])."""
    task_ids = set()
    for task_ix, task in enumerate(tasks):
        where = f"$.tasks[{task_ix}]"
        if task.task_id in task_ids:
            raise SchemaError(where, f"duplicate task_id {task.task_id!r}")
        task_ids.add(task.task_id)
        for dim_ix, (dim_id, weight) in enumerate(zip(task.dims, task.weights)):
            if not dim_id:
                raise SchemaError(f"{where}.dims[{dim_ix}].id", "must be non-empty")
            if not 0.0 <= weight <= 1.0:
                raise SchemaError(f"{where}.dims[{dim_ix}].weight",
                                  f"must be in [0, 1], got {weight!r}")
        if len({i.lower() for i in task.dims}) != len(task.dims):
            raise SchemaError(where, "duplicate dimension ids")
        total = weight_sum(task.weights)
        if abs(total - 1.0) > TOP_WEIGHT_TOL:
            raise SchemaError(where, f"weights sum to {total!r}, expected 1")


def check_world_config(config: dict, seed: int | None = None) -> WorldConfig:
    """The WorldConfig (seed, tag, tasks) of a valid world config, else
    SchemaError at the first bad field's $-path (BadConfig for a bad seed
    argument).

    Config shape: {"tasks": [{"task_id", "dims": [{"id", "weight", "K",
    "lambda"}]}], "seed", "tag"?}; any other field is rejected. An
    explicit seed argument wins over the config's, which it makes
    optional. tasks holds one TaskRow per task: its task_id, its position
    as index, and dims, weights, ks and lams, tuples with one entry per
    dimension, ids lower-cased and weights normalized. Every task's field,
    weight, K and lambda checks come before the flat-spec rules of
    check_flat_tasks.
    """
    world = check_world_fields(config, seed)
    check_flat_tasks(world.tasks)
    return world


def check_world_fields(config: dict, seed: int | None = None) -> WorldConfig:
    """check_world_config up to the flat-spec rules, which a built
    SyntheticWorld applies itself: the top-level fields, then each task's
    row in turn."""
    _check_keys(_require_obj(config, "$"), "$", ("seed",) if seed is None else (),
                ("tasks", "seed", "tag"), False)
    if seed is None:
        seed = _get_int(config, "seed", "$", 0, MASK64)
    else:
        check_uint64("seed", seed)
    tag = config.get("tag", "synthetic")
    if not isinstance(tag, str) or not tag:
        raise SchemaError("$.tag", f"must be a non-empty string, got {tag!r}")
    raw_tasks = config.get("tasks")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise SchemaError("$.tasks", "expected a non-empty array")
    return WorldConfig(seed, tag, tuple(_task_rows(raw_tasks)))


_DIM_FIELDS = ("id", "weight", "K", "lambda")


def _dim_fields(d) -> tuple[str, float, int, float]:
    """(id, weight, K, lambda) of one dimension, checked at "$": a world
    build checks thousands of dims, so its caller builds their path only
    for a message."""
    _check_keys(_require_obj(d, "$"), "$", _DIM_FIELDS, (), False)
    return (_get_str(d, "id", "$"), _get_number(d, "weight", "$", 0),
            _get_int(d, "K", "$", 2, CELL_CAP), _get_number(d, "lambda", "$", 0, 1))


def _task_rows(raw_tasks: list) -> Iterator[TaskRow]:
    for task_ix, t in enumerate(raw_tasks):
        where = f"$.tasks[{task_ix}]"
        _check_keys(_require_obj(t, where), where, ("task_id", "dims"), (), False)
        task_id = _get_str(t, "task_id", where)
        raw_dims = t["dims"]
        if not isinstance(raw_dims, list) or not raw_dims:
            raise SchemaError(f"{where}.dims", "expected a non-empty array")
        fields = []
        for dim_ix, d in enumerate(raw_dims):
            try:
                fields.append(_dim_fields(d))
            except SchemaError as e:
                raise SchemaError(f"{where}.dims[{dim_ix}]{e.path[1:]}", e.reason) from None
        ids, weights, ks, lams = zip(*fields)
        total = weight_sum(weights)
        if abs(total - 1.0) > TOP_WEIGHT_TOL:
            raise SchemaError(where, f"weights sum to {total!r}, expected 1")
        yield TaskRow(task_id, task_ix, tuple(i.lower() for i in ids),
                      tuple(normalize_weights(weights)), ks, lams)


def dim_channels(world, task_id: str, dim_ids) -> Iterator[tuple[int, float]]:
    """Yield (K, lambda) of each of dim_ids, in order, in one task of a
    world: a built SyntheticWorld or the WorldConfig of check_world_config.

    Both store ids lower-cased, so a given id is folded. An unknown task
    raises UnknownTask at the first id, and an unknown id raises
    UnknownVariable naming it as given when it is reached, so a caller
    that labels each channel in turn meets errors in dimension order.
    """
    task = next((t for t in world.tasks if t.task_id == task_id), None)
    if task is None:
        raise UnknownTask(task_id)
    for dim_id in dim_ids:
        if dim_id.lower() not in task.dims:
            raise UnknownVariable(dim_id)
        j = task.dims.index(dim_id.lower())
        yield task.ks[j], task.lams[j]


# ---------------------------------------------------------------------------
# the (K, lambda) label rule
# ---------------------------------------------------------------------------

def check_theta_pub(theta_pub: float) -> None:
    if not 0.0 < theta_pub <= 1.0:
        raise RangeError(f"theta_pub = {theta_pub}, outside (0, 1]")


def privacy_label(k: int, lam: float, theta_pub: float,
                  ) -> tuple[float, float, str]:
    """(Bayes accuracy, chance, label) of the sampled (K, lambda) channel.

    The channel's joint has base/K off the diagonal and (base + lam)/K on
    it, with base = (1 - lam)/K. Its Bayes accuracy, the sum of the K
    column maxima, is (1 + (K - 1) lam)/K, and its chance level, the
    largest row sum, is 1/K. Both are computed from lam = a/b exactly and
    rounded once (int true division is correctly rounded), so lam = 1 is
    exactly 1 at every K. Public means accuracy at least theta_pub and at
    least chance + CHANCE_FLOOR; a channel with K*K > CELL_CAP raises
    WorldTooLarge, as its joint would.
    """
    if k * k > CELL_CAP:
        raise WorldTooLarge(k * k, CELL_CAP)
    a, b = float(lam).as_integer_ratio()
    acc = (b + (k - 1) * a) / (k * b)
    chance = 1 / k
    public = acc >= theta_pub and acc >= chance + CHANCE_FLOOR
    return acc, chance, "public" if public else "private"


def argmax_finds_user(k: int, lam: float) -> bool:
    """Whether argmax of the (K, lambda) prior lands on the user value;
    elementwise on arrays of K and lambda.

    The user's entry is base + lam over a flat base = (1 - lam)/K. When
    lam is below the float resolution of base, every entry ties and
    argmax picks token 0, whatever the user value.
    """
    base = (1.0 - lam) / k
    return base + lam > base
