import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from ist import _kernels
from ist.errors import (BadConfig, Inconsistent, LengthMismatch, SchemaError, SpecSyntaxError,
                        UnknownDimension, UnknownTask)
from ist.infotheory import dimension_channel_joint
from ist.jsonio import dumps_canonical
from ist.metrics import bundle_for_output, score_output, weighted_sum
from ist.model import EncodingMask, ValueRef, validate_spec
from ist.priors import CELL_CAP, TaskRow, WorldConfig, check_world_config
from ist.rng import SAMPLE_STREAM, USER_VALUE_STREAM, derive, uniform_index, unit_float
from ist.tiil import classify_privacy
from ist.worlds import (
    SyntheticWorld,
    WorldTask,
    _argmax_match_prob,
    _block_grids,
    _sample_grid,
    build_world,
    expected_f_icmw,
    full_mask,
    mask_without,
    mc_mean_f_icmw,
    load_world,
    simulate_output,
    token,
)

from conftest import SRC
from reference import to_intent_spec


def one_dim_config(lam, k, weight=1.0):
    return {"tasks": [{"task_id": "t", "dims": [
        {"id": "d", "weight": weight, "K": k, "lambda": lam}]}]}


def two_dim_config(lam2, k2):
    return {"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 0.5, "K": 4, "lambda": 1.0},
        {"id": "b", "weight": 0.5, "K": k2, "lambda": lam2}]}]}


def prior_reference(k, lam, user):
    """The scalar prior of a (K, lambda) dimension with user index user:
    the flat base (1 - lam)/K, plus lam at the user."""
    prior = [(1.0 - lam) / k] * k
    prior[user] += lam
    return tuple(prior)


def cdf_reference(prior):
    # the top end is 1.0 exactly, whatever the accumulated rounding
    return (*accumulate(prior[:-1]), 1.0)


def task_prior(task, j):
    """prior_reference of dimension j of a world task, from its columns."""
    return prior_reference(task.ks[j], task.lams[j], task.users[j])


def test_prior_point_mass():
    task = build_world(one_dim_config(1.0, 10), seed=7).tasks[0]
    prior = task_prior(task, 0)
    assert prior[task.users[0]] == 1.0
    assert sum(prior) == 1.0


def test_prior_uniform():
    world = build_world(one_dim_config(0.0, 4), seed=7)
    assert task_prior(world.tasks[0], 0) == (0.25, 0.25, 0.25, 0.25)


def test_prior_mixture():
    # seed 2 places the user value at index 0 for this config
    task = build_world(one_dim_config(0.5, 2), seed=2).tasks[0]
    assert task.users[0] == 0
    assert task_prior(task, 0) == (0.75, 0.25)


def test_prior_mixture_any_seed():
    for seed in range(20):
        task = build_world(one_dim_config(0.5, 2), seed=seed).tasks[0]
        prior = task_prior(task, 0)
        assert prior[task.users[0]] == 0.75
        assert abs(math.fsum(prior) - 1.0) < 1e-12


def test_build_world_rejects_bad_config():
    with pytest.raises(SchemaError):
        build_world(one_dim_config(0.0, 1), seed=1)  # K < 2
    with pytest.raises(SchemaError):
        build_world(one_dim_config(1.5, 4), seed=1)  # lambda > 1
    with pytest.raises(SchemaError):
        build_world(one_dim_config(-0.1, 4), seed=1)
    dup = {"tasks": [{"task_id": "t", "dims": [
        {"id": "d", "weight": 0.5, "K": 4, "lambda": 0.0},
        {"id": "d", "weight": 0.5, "K": 4, "lambda": 0.0}]}]}
    with pytest.raises(SchemaError):
        build_world(dup, seed=1)
    with pytest.raises(SchemaError):
        build_world({"tasks": []}, seed=1)
    off = one_dim_config(0.0, 4, weight=0.4)
    with pytest.raises(SchemaError):
        build_world(off, seed=1)  # weights sum far from 1


def test_k_is_bounded_by_the_cell_cap():
    task = build_world(one_dim_config(0.5, CELL_CAP), seed=1).tasks[0]
    assert task.ks == (CELL_CAP,) and 0 <= task.users[0] < CELL_CAP
    assert len(task_prior(task, 0)) == CELL_CAP
    for k in (CELL_CAP + 1, 10 ** 400):
        with pytest.raises(SchemaError, match=r"^\$\.tasks\[0\]\.dims\[0\]\.K: must be an "
                                              r"integer in \[2, 1000000\], got "):
            build_world(one_dim_config(0.5, k), seed=1)


def test_check_pass_rows_are_the_built_world(grid_config):
    # a task is one row of columns: dims holds the lower-cased ids, one per
    # dimension, and every column value is a Python int or float
    # (dumps_canonical rejects numpy scalars), whether the config gave ints
    # or floats; the check pass returns the same columns
    mixed = {"tasks": [{"task_id": "t", "dims": [
        {"id": "Who", "weight": 1, "K": 3, "lambda": 1},
        {"id": "WHAT", "weight": 0, "K": 4, "lambda": 0.5}]}]}
    for config in (grid_config, mixed):
        seed, tag, rows = check_world_config(config, seed=3)
        world = build_world(config, seed=3)
        assert (seed, tag) == (world.seed, world.tag)
        assert rows == tuple(TaskRow(t.task_id, t.index, t.dims, t.weights, t.ks, t.lams)
                             for t in world.tasks)
        assert [row.index for row in rows] == list(range(len(rows)))
        for task, raw in zip(world.tasks, config["tasks"]):
            assert task.dims == tuple(d["id"].lower() for d in raw["dims"])
            columns = (task.weights, task.ks, task.lams, task.users)
            assert {len(c) for c in columns} == {len(task.dims)}
            assert all(type(x) is float for x in task.weights + task.lams)
            assert all(type(n) is int for n in task.ks + task.users + (task.index,))
            dumps_canonical([list(c) for c in columns])
    assert world.tasks[0].dims == ("who", "what")


def test_a_checked_world_has_the_built_worlds_fields():
    # build_world makes WorldTask(*row, users), so a TaskRow is a
    # WorldTask's fields but for users, in order, and a WorldConfig is a
    # SyntheticWorld's
    assert TaskRow._fields + ("users",) == WorldTask._fields
    assert WorldConfig._fields == SyntheticWorld._fields


def test_check_pass_reports_field_faults_before_the_flat_spec_rules():
    # tasks[0] repeats a dimension id and tasks[1] its task id, but the bad
    # K of tasks[2] is the first error, from the check pass and the build
    config = {"seed": 1, "tasks": [
        {"task_id": "t", "dims": [{"id": "a", "weight": 0.5, "K": 4, "lambda": 0.5},
                                  {"id": "A", "weight": 0.5, "K": 4, "lambda": 0.5}]},
        {"task_id": "t", "dims": [{"id": "b", "weight": 1.0, "K": 4, "lambda": 0.5}]},
        {"task_id": "u", "dims": [{"id": "c", "weight": 1.0, "K": 1, "lambda": 0.5}]}]}
    for check in (check_world_config, build_world):
        with pytest.raises(SchemaError, match=r"^\$\.tasks\[2\]\.dims\[0\]\.K: must "
                                              r"be an integer in \[2, 1000000\], got 1$"):
            check(config)
        fixed = {**config, "tasks": config["tasks"][:2]}
        with pytest.raises(SchemaError, match=r"^\$\.tasks\[0\]: duplicate dimension ids$"):
            check(fixed)


def test_build_world_deterministic():
    a = build_world(two_dim_config(0.3, 6), seed=11)
    b = build_world(two_dim_config(0.3, 6), seed=11)
    assert a.tasks == b.tasks
    c = build_world(two_dim_config(0.3, 6), seed=12)
    assert a.tasks[0].users != c.tasks[0].users


def mixed_case_world():
    return build_world({"tasks": [{"task_id": "t", "dims": [
        {"id": "Who", "weight": 0.6, "K": 4, "lambda": 0.5},
        {"id": "what", "weight": 0.4, "K": 3, "lambda": 0.0}]}]}, seed=2)


# each call, given a dimension id, returns comparable bytes or values
MIXED_CASE_CALLS = {
    "classify_privacy": lambda world, d: classify_privacy(world, "t", d),
    "dimension_channel_joint": lambda world, d: dimension_channel_joint(
        world, "t", d).table.tobytes(),
    "simulate_output": lambda world, d: simulate_output(
        world, "t", EncodingMask((d, "what"), (0, 1)), mode="sample", draw=3),
    "expected_f_icmw": lambda world, d: expected_f_icmw(
        world, "t", EncodingMask((d, "What"), (0, 1)), mode="sample"),
    "EncodingMask.bit": lambda world, d: EncodingMask((d, "what"), (1, 0)).bit(d),
}


@pytest.mark.parametrize("call", list(MIXED_CASE_CALLS.values()), ids=list(MIXED_CASE_CALLS))
def test_a_mixed_case_dimension_id_works_on_a_built_world(call):
    # the world stores "who"; every call folds the id where it enters
    world = mixed_case_world()
    assert world.tasks[0].dims == ("who", "what")
    assert call(world, "Who") == call(world, "who") == call(world, "WHO")


def test_mask_faults_name_the_ids():
    world = mixed_case_world()
    with pytest.raises(Inconsistent, match=r"^mask dims \('what', 'who'\) "
                                           r"vs task dims \('who', 'what'\)$"):
        simulate_output(world, "t", EncodingMask(("What", "Who"), (0, 1)))
    with pytest.raises(LengthMismatch, match=r"^mask bits length 1, expected 2$"):
        expected_f_icmw(world, "t", EncodingMask(("Who",), (0,)))
    with pytest.raises(UnknownDimension, match=r"^unknown dimension: 'Where'$"):
        EncodingMask(("Who", "what"), (1, 0)).bit("Where")


def test_to_intent_spec_shape():
    world = build_world(two_dim_config(0.0, 4), seed=3)
    spec = to_intent_spec(world.tasks[0])
    assert validate_spec(spec) == []
    assert [d.id for d in spec.dimensions] == ["a", "b"]
    for d, user in zip(spec.dimensions, world.tasks[0].users):
        assert d.intended_value.value == token(user)
        assert d.privacy_hint is None


def test_simulate_full_mask_copies_user_values():
    world = build_world(two_dim_config(0.0, 8), seed=5)
    task = world.tasks[0]
    out = simulate_output(world, "t", full_mask(task))
    for dim_id, user in zip(task.dims, task.users):
        assert out.realized_values[dim_id].value == token(user)
        assert out.provenance[dim_id] == "copied_from_carrier"
    spec = to_intent_spec(task)
    _, bundle = bundle_for_output(spec, out.realized_values)
    assert bundle.f_icmw == 1.0 and bundle.s_icmw == 1.0
    assert bundle.ga == 5


def test_simulate_point_mass_recovers_when_absent():
    world = build_world(two_dim_config(0.0, 8), seed=5)
    task = world.tasks[0]
    out = simulate_output(world, "t", mask_without(task, {"a"}), mode="argmax")
    # dim "a" has lambda = 1 so the prior argmax is the user value
    assert out.realized_values["a"].value == token(task.users[0])
    assert out.provenance["a"] == "prior_default"


def test_simulate_uniform_argmax_is_token_zero():
    # flat prior: argmax ties resolve to the lowest index
    for seed in (0, 1, 2, 9):
        world = build_world(one_dim_config(0.0, 10), seed=seed)
        task = world.tasks[0]
        out = simulate_output(world, "t",
                              EncodingMask(("d",), (0,)), mode="argmax")
        assert out.realized_values["d"].value == token(0)
        match = out.realized_values["d"].value == token(task.users[0])
        assert match == (task.users[0] == 0)


def test_uniform_argmax_match_rate_over_worlds():
    hits = sum(
        build_world(one_dim_config(0.0, 10), seed=s).tasks[0].users[0] == 0
        for s in range(200))
    assert 0.04 <= hits / 200 <= 0.18  # ~= 1/K


def test_simulate_sample_mode_provenance_and_support():
    world = build_world(one_dim_config(0.0, 4), seed=6)
    out = simulate_output(world, "t", EncodingMask(("d",), (0,)),
                          mode="sample", draw=0)
    assert out.provenance["d"] == "prior_sample"
    assert out.realized_values["d"].value in {token(i) for i in range(4)}


def test_sample_mode_respects_point_mass():
    world = build_world(one_dim_config(1.0, 6), seed=6)
    task = world.tasks[0]
    for draw in range(50):
        out = simulate_output(world, "t", EncodingMask(("d",), (0,)),
                              mode="sample", draw=draw)
        assert out.realized_values["d"].value == token(task.users[0])


def test_sample_mode_frequency_uniform():
    world = build_world(one_dim_config(0.0, 4), seed=8)
    counts = [0, 0, 0, 0]
    n = 2000
    for draw in range(n):
        out = simulate_output(world, "t", EncodingMask(("d",), (0,)),
                              mode="sample", draw=draw)
        counts[int(out.realized_values["d"].value[1:])] += 1
    for c in counts:
        assert abs(c / n - 0.25) < 0.04


def sample_token_index_reference(world_seed, task, dim_ix, draw):
    """The scalar sampling rule: one derive, then bisect_right on the CDF."""
    k = task.ks[dim_ix]
    h = derive(world_seed, SAMPLE_STREAM, task.index, dim_ix, draw)
    j = bisect_right(cdf_reference(task_prior(task, dim_ix)), unit_float(h))
    return j if j < k else k - 1


def test_sample_mode_equals_scalar_reference():
    rng = random.Random(21)
    for trial in range(40):
        dims = [{"id": f"d{i}", "weight": 1.0 / 3,
                 "K": rng.choice([2, 64, rng.randint(2, 64)]),
                 "lambda": rng.choice([0.0, 1.0, rng.random()])}
                for i in range(3)]
        world = build_world({"tasks": [{"task_id": "t", "dims": dims}]},
                            seed=rng.getrandbits(64))
        task = world.tasks[0]
        for draw in (0, 1, rng.randrange(10 ** 6), 2 ** 40 + trial):
            out = simulate_output(world, "t", EncodingMask(task.dims, (0, 0, 0)),
                                  mode="sample", draw=draw)
            for dim_ix, dim_id in enumerate(task.dims):
                want = sample_token_index_reference(world.seed, task, dim_ix, draw)
                assert out.realized_values[dim_id] == ValueRef.token(token(want))


def test_simulate_deterministic_per_draw():
    world = build_world(two_dim_config(0.0, 16), seed=9)
    mask = mask_without(world.tasks[0], {"b"})
    a = simulate_output(world, "t", mask, mode="sample", draw=3)
    b = simulate_output(world, "t", mask, mode="sample", draw=3)
    assert a == b


def test_simulate_errors():
    world = build_world(one_dim_config(0.0, 4), seed=1)
    with pytest.raises(UnknownTask):
        simulate_output(world, "missing", EncodingMask(("d",), (1,)))
    with pytest.raises(LengthMismatch):
        simulate_output(world, "t", EncodingMask(("d", "x"), (1, 1)))
    with pytest.raises(BadConfig):
        simulate_output(world, "t", EncodingMask(("d",), (1,)), mode="weird")


@pytest.mark.parametrize("draw", [-1, 2 ** 64, 1.5, True, "0"])
def test_simulate_rejects_a_draw_outside_uint64(draw):
    # sample mode raised a bare OverflowError on -1 and 2**64, took 1.5 and
    # True as draw 1 and sampled some draw for "0"; argmax mode took any value
    world = build_world(one_dim_config(0.0, 4), seed=1)
    mask = EncodingMask(("d",), (0,))
    rule = "in [0, 2**64)" if type(draw) is int else "an integer"
    for mode in ("argmax", "sample"):
        with pytest.raises(BadConfig) as info:
            simulate_output(world, "t", mask, mode=mode, draw=draw)
        assert str(info.value) == f"draw must be {rule}, got {draw!r}"
    for edge in (0, 2 ** 64 - 1):
        simulate_output(world, "t", mask, mode="sample", draw=edge)


def test_expected_examples():
    world = build_world(one_dim_config(0.0, 5), seed=4)
    assert expected_f_icmw(world, "t", full_mask(world.tasks[0])) == 1.0
    got = expected_f_icmw(world, "t", EncodingMask(("d",), (0,)),
                          mode="sample")
    assert got == 0.2

    world2 = build_world(two_dim_config(0.0, 4), seed=4)
    got2 = expected_f_icmw(world2, "t",
                           EncodingMask(("a", "b"), (1, 0)), mode="sample")
    assert got2 == 0.625  # 0.5 + 0.5 * 0.25


def test_expected_argmax_enumerates_user_values():
    # uniform prior: argmax is token 0 whatever the user drew -> 1/K
    world = build_world(one_dim_config(0.0, 4), seed=4)
    got = expected_f_icmw(world, "t", EncodingMask(("d",), (0,)),
                          mode="argmax")
    assert got == 0.25
    # sharp mixture: the user value always dominates -> certain recovery
    world2 = build_world(one_dim_config(0.6, 4), seed=4)
    got2 = expected_f_icmw(world2, "t", EncodingMask(("d",), (0,)),
                           mode="argmax")
    assert got2 == 1.0


def argmax_match_prob_reference(k, lam):
    """Enumerate the K user values: rebuild the prior around each one and
    check whether argmax (ties to the lowest index) lands on it."""
    base = (1.0 - lam) / k
    hits = 0
    for u in range(k):
        prior = np.full(k, base, dtype=np.float64)
        prior[u] += lam
        if int(np.argmax(prior)) == u:
            hits += 1
    return hits / k


def test_argmax_match_prob_equals_enumeration():
    # lambdas below the float resolution of the base make every entry tie
    lams = (0.0, 5e-324, 1e-300, 1e-17, 5e-17, 1e-16, 1e-12, 1e-3, 0.5, 1.0)
    for k in (2, 3, 4, 7, 10, 33, 64, 100):
        for lam in lams:
            task = build_world(one_dim_config(lam, k), seed=3).tasks[0]
            got = _argmax_match_prob(task.ks[0], task.lams[0])
            assert got == argmax_match_prob_reference(k, lam), (k, lam)


def test_mc_matches_mean_of_simulated_records():
    world = build_world(two_dim_config(0.4, 5), seed=13)
    task = world.tasks[0]
    mask = mask_without(task, {"b"})
    spec = to_intent_spec(task)
    n = 200
    acc = 0.0
    for draw in range(n):
        out = simulate_output(world, "t", mask, mode="sample", draw=draw)
        sc = score_output(spec, out.realized_values)
        acc += weighted_sum(task.weights, sc.f)
    assert mc_mean_f_icmw(world, "t", mask, n=n) == acc / n


def test_mc_sums_run_across_draw_blocks(monkeypatch):
    # 7 draws in blocks of 3: the running sum must carry over block edges
    monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", 3)
    config = {"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 0.1, "K": 3, "lambda": 0.2},
        {"id": "b", "weight": 0.2, "K": 2, "lambda": 0.0},
        {"id": "c", "weight": 0.7, "K": 4, "lambda": 0.5}]}]}
    # at these seeds, summing each block apart and then adding the block
    # sums rounds differently from one running sum, for one mask or the other
    for seed in (8, 17):
        world = build_world(config, seed=seed)
        task = world.tasks[0]
        spec = to_intent_spec(task)
        for mask in (mask_without(task, {"b"}), mask_without(task, {"a", "b", "c"})):
            acc = 0.0
            for draw in range(7):
                out = simulate_output(world, "t", mask, mode="sample", draw=draw)
                acc += weighted_sum(task.weights, score_output(spec, out.realized_values).f)
            assert mc_mean_f_icmw(world, "t", mask, n=7) == acc / 7, seed


@pytest.mark.parametrize("n", [0, -1, 2.5, True])
def test_mc_rejects_bad_draw_counts(demo_world_config, n):
    # n=0 divided by zero and n=-1 returned -0.0
    world = build_world(demo_world_config)
    task = world.tasks[0]
    with pytest.raises(BadConfig, match="n must be a positive integer"):
        mc_mean_f_icmw(world, task.task_id, mask_without(task, {task.dims[0]}), n=n)


def build_dim_reference(k, lam, user_index):
    """The numpy build: flat base plus lam at the user, cumsum, top set to 1."""
    prior = np.full(k, (1.0 - lam) / k, dtype=np.float64)
    prior[user_index] += lam
    cdf = np.cumsum(prior)
    cdf[-1] = 1.0
    return prior.tolist(), cdf.tolist(), int(np.argmax(prior))


def engine_dims(world):
    """(argmax, cdf) per task of world, as the engine builds them: the
    prior default of each dimension in _block_grids' argmax grid, and
    each dimension's row, cut to its K, of the CDF table _sample_grid
    hands _kernels.sample_block."""
    tables = []
    sample_block = _kernels.sample_block

    def spy(master, task_ixs, dim_ixs, draws, cdf, ks):
        tables.append(cdf.copy())
        return sample_block(master, task_ixs, dim_ixs, draws, cdf, ks)

    out = []
    with mock.patch.object(_kernels, "sample_block", spy):
        for task in world.tasks:
            (_, grid), = _block_grids(world, [task], [1], "argmax")
            _sample_grid(world.seed, [task], np.zeros(1, dtype=np.uint64))
            cdf = [row[:k].tolist() for row, k in zip(tables.pop()[0], task.ks)]
            out.append((grid[0, :, 0].tolist(), cdf))
    return out


def assert_dim_matches_reference(task, j, engine_argmax, engine_cdf):
    k, lam = task.ks[j], task.lams[j]
    prior, cdf, argmax = build_dim_reference(k, lam, task.users[j])
    scalar_prior = task_prior(task, j)
    # bit for bit: compare the IEEE-754 encodings, not values within a tolerance
    assert [x.hex() for x in scalar_prior] == [x.hex() for x in prior], (k, lam)
    assert [x.hex() for x in cdf_reference(scalar_prior)] == [x.hex() for x in cdf], (k, lam)
    assert [x.hex() for x in engine_cdf] == [x.hex() for x in cdf], (k, lam)
    assert engine_argmax == argmax, (k, lam)
    assert all(type(x) is float for x in scalar_prior + tuple(engine_cdf))
    assert type(engine_argmax) is int


def assert_world_matches_reference(world):
    for task, (argmax, cdf) in zip(world.tasks, engine_dims(world)):
        for j in range(len(task.dims)):
            assert_dim_matches_reference(task, j, argmax[j], cdf[j])


def test_build_dim_equals_numpy_reference_on_the_tie_grid():
    lams = (0.0, 5e-324, 1e-300, 1e-17, 5e-17, 1e-16, 1e-12, 1e-3, 0.5, 1.0)
    for k in (2, 3, 4, 7, 10, 33, 64, 100):
        for lam in lams:
            for seed in range(4):
                assert_world_matches_reference(build_world(one_dim_config(lam, k), seed=seed))


def test_build_dim_equals_numpy_reference_on_random_dims():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(2, 200)
        lam = rng.choice([0.0, 5e-324, 1e-17, 1.0, rng.random()])
        assert_world_matches_reference(
            build_world(one_dim_config(lam, k), seed=rng.getrandbits(64)))


def test_every_dim_of_a_built_world_equals_the_scalar_build():
    # the one array derive of the build against one scalar derive and
    # uniform_index per (task, dim), and every prior, CDF row and prior
    # default against numpy
    rng = random.Random(9)
    tasks = []
    for t in range(40):
        n = rng.randint(1, 9)
        tasks.append({"task_id": f"t{t}", "dims": [
            {"id": f"d{i}", "weight": 1.0 / n,
             "K": rng.choice([2, 3, 64, 1000, rng.randint(2, 300)]),
             "lambda": rng.choice([0.0, 5e-324, 1e-17, 1.0, rng.random()])}
            for i in range(n)]})
    for seed in (0, 77, 2 ** 63 + 3, 2 ** 64 - 1):
        world = build_world({"tasks": tasks}, seed=seed)
        assert [len(t.dims) for t in world.tasks] == [len(t["dims"]) for t in tasks]
        for task_ix, (task, (argmax, cdf)) in enumerate(zip(world.tasks, engine_dims(world))):
            assert task.index == task_ix
            for dim_ix, (k, user) in enumerate(zip(task.ks, task.users)):
                want = uniform_index(derive(seed, USER_VALUE_STREAM, task_ix, dim_ix), k)
                assert type(user) is int and user == want
                assert_dim_matches_reference(task, dim_ix, argmax[dim_ix], cdf[dim_ix])


def test_a_world_holds_no_table_per_dim(tmp_path):
    # a world holds only its columns: 50 dims at K = 10**6 load under an
    # address-space limit that two 10**6-float tuples per dim (about 40 MB
    # each dim) would exceed
    dims = [{"id": f"d{i}", "weight": 0.02, "K": CELL_CAP, "lambda": 0.5}
            for i in range(50)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"seed": 1, "tasks": [{"task_id": "t", "dims": dims}]}))
    resource = pytest.importorskip("resource")
    code = ("import sys; from ist.worlds import load_world; "
            "w = load_world(sys.argv[1]); print(len(w.tasks[0].dims))")

    def cap():  # 1 GiB of address space, in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, preexec_fn=cap, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "50\n"), proc.stderr[-2000:]


def test_mc_agrees_with_expectation():
    world = build_world(two_dim_config(0.4, 5), seed=13)
    mask = mask_without(world.tasks[0], {"b"})
    want = expected_f_icmw(world, "t", mask, mode="sample")
    got = mc_mean_f_icmw(world, "t", mask, n=4000)
    assert abs(got - want) <= 3 * math.sqrt(0.25 / 4000)


def test_monotone_mask_loop():
    rng = random.Random(21)
    for trial in range(40):
        n = rng.randint(2, 5)
        dims = [{"id": f"d{i}", "weight": 1.0 / n,
                 "K": rng.randint(2, 8),
                 "lambda": rng.choice([0.0, 0.25, 0.5, 1.0])}
                for i in range(n)]
        world = build_world(
            {"tasks": [{"task_id": "t", "dims": dims}]}, seed=trial)
        task = world.tasks[0]
        bits = [rng.randint(0, 1) for _ in range(n)]
        zeros = [i for i, b in enumerate(bits) if b == 0]
        if not zeros:
            continue
        i = rng.choice(zeros)
        up = list(bits)
        up[i] = 1
        for mode in ("sample", "argmax"):
            lo = expected_f_icmw(world, "t",
                                 EncodingMask(task.dims, tuple(bits)), mode=mode)
            hi = expected_f_icmw(world, "t",
                                 EncodingMask(task.dims, tuple(up)), mode=mode)
            assert hi >= lo - 1e-12


def test_load_world_rejects_junk(tmp_path):
    # a world file is read as a document, like a spec: not JSON raises
    # SpecSyntaxError with its line and column, a non-object SchemaError at $
    path = tmp_path / "world.json"
    path.write_bytes(b"{not json")
    with pytest.raises(SpecSyntaxError):
        load_world(path)
    path.write_bytes(b"[1, 2]")
    with pytest.raises(SchemaError) as info:
        load_world(path)
    assert str(info.value) == "$: expected object, got list"


if HAVE_HYPOTHESIS:

    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=2, max_value=12),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_prior_is_distribution(seed, k, lam):
        task = build_world(one_dim_config(lam, k), seed=seed).tasks[0]
        prior = task_prior(task, 0)
        assert abs(math.fsum(prior) - 1.0) < 1e-12
        assert all(p >= 0 for p in prior)
        assert prior[task.users[0]] == max(prior)
