import io
import json
import math
import random
import re
import tracemalloc
from functools import cache
from itertools import groupby, product
from operator import attrgetter

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from ist import _kernels
from ist.cli import main
from ist.errors import (
    BadBudget,
    BadConfig,
    BadPerturbation,
    Inconsistent,
    IstError,
    MissingCondition,
    SchemaError,
    ZeroSignal,
)
from ist.experiments import (
    ABLATION_PREFIX,
    FULL_CONDITION,
    CellSummary,
    PerturbationReport,
    PerturbationSpec,
    _weights_from_means,
    check_experiment_fits,
    default_budget,
    default_perturbations,
    default_replicates,
    encode_rows,
    encode_with_budget,
    estimate_weights_by_ablation,
    parse_experiment_config,
    perturb_weight_rows,
    perturb_weights,
    report_to_json,
    run_weight_perturbation,
    write_ablation,
)
from ist.jsonio import dumps_canonical, normalize_weights
from ist.metrics import score_output, synthesize_ga, weighted_sum
from ist.model import EncodingMask
from ist.rng import PERTURB_STREAM, derive, unit_float
from ist.spec_io import (
    OutputRecord,
    read_records,
    record_to_line,
    record_to_obj,
)
from ist.worlds import (
    SyntheticWorld,
    WorldTask,
    _block_grids,
    _blocks,
    _f_icmw,
    _mean_f_icmw,
    build_world,
    expected_f_icmw,
    full_mask,
    mask_without,
    simulate_output,
)
from ist.tiil import tiil_check

from conftest import DATA, TESTS_DATA, ablation_records, ablation_text
from reference import report_to_obj, to_intent_spec
from test_worlds import sample_token_index_reference


def world_from(dims, seed=1, task_id="t"):
    return build_world({"tasks": [{"task_id": task_id, "dims": dims}]},
                       seed=seed)


def private_dims(weights, k=1000):
    return [{"id": f"d{i}", "weight": w, "K": k, "lambda": 0.0}
            for i, w in enumerate(weights)]


def public_dims(weights, k=10):
    return [{"id": f"d{i}", "weight": w, "K": k, "lambda": 1.0}
            for i, w in enumerate(weights)]


# -- budgeted encoding -------------------------------------------------------

def test_encode_with_budget_examples():
    ids = ("a", "b", "c")
    w = [0.5, 0.3, 0.2]
    assert encode_with_budget(ids, w, 2).bits == (1, 1, 0)
    assert encode_with_budget(ids, w, 3).bits == (1, 1, 1)
    assert encode_with_budget(ids, w, 0).bits == (0, 0, 0)


def test_encode_with_budget_ties_prefer_declaration_order():
    mask = encode_with_budget(("a", "b", "c"), [0.4, 0.3, 0.3], 2)
    assert mask.bits == (1, 1, 0)


def test_encode_with_budget_errors():
    with pytest.raises(BadBudget):
        encode_with_budget(("a",), [1.0], 2)
    with pytest.raises(BadBudget):
        encode_with_budget(("a",), [1.0], -1)
    with pytest.raises(BadBudget):
        encode_with_budget(("a", "b"), [1.0], 1)


def test_default_budget():
    assert default_budget(1) == 1
    assert default_budget(6) == 3
    assert default_budget(7) == 4


# -- perturbations -----------------------------------------------------------

def test_perturb_identity():
    assert perturb_weights([0.5, 0.3, 0.2], PerturbationSpec("identity")) \
        == [0.5, 0.3, 0.2]


def test_perturb_full_inversion():
    got = perturb_weights([0.5, 0.3, 0.2], PerturbationSpec("full_inversion"))
    assert got == [0.2, 0.3, 0.5]
    # multiset of values is preserved even with the vector unsorted
    got2 = perturb_weights([0.3, 0.5, 0.2],
                           PerturbationSpec("full_inversion"))
    assert sorted(got2) == [0.2, 0.3, 0.5]
    assert got2 == [0.3, 0.2, 0.5]


def test_perturb_adjacent_swap():
    got = perturb_weights([0.5, 0.3, 0.2],
                          PerturbationSpec("adjacent_swap", count=1))
    assert got == [0.3, 0.5, 0.2]


def test_jitter_preserves_separated_ranking():
    w = [0.5, 0.3, 0.2]
    spec = PerturbationSpec("jitter", epsilon=0.05)
    for seed in range(1000):
        got = perturb_weights(w, spec, seed=seed)
        assert sorted(range(3), key=lambda i: -got[i]) == [0, 1, 2]
        assert abs(math.fsum(got) - 1.0) < 1e-9
        assert all(x > 0 for x in got)


def test_jitter_actually_moves_weights():
    got = perturb_weights([0.5, 0.3, 0.2],
                          PerturbationSpec("jitter", epsilon=0.05), seed=1)
    assert got != [0.5, 0.3, 0.2]


def test_perturbations_always_yield_valid_weights():
    rng = random.Random(31)
    specs = default_perturbations() + [
        PerturbationSpec("adjacent_swap", count=3),
        PerturbationSpec("jitter", epsilon=0.19),
    ]
    for trial in range(50):
        n = rng.randint(2, 9)
        raw = [rng.uniform(0.01, 1.0) for _ in range(n)]
        total = math.fsum(raw)
        w = [x / total for x in raw]
        for spec in specs:
            if spec.kind == "adjacent_swap" and spec.count > n // 2:
                with pytest.raises(BadPerturbation):
                    perturb_weights(w, spec, seed=trial)
                continue
            got = perturb_weights(w, spec, seed=trial)
            assert abs(math.fsum(got) - 1.0) < 1e-9
            assert all(x >= 0 for x in got)
            if spec.kind in ("adjacent_swap", "full_inversion"):
                assert sorted(got) == sorted(w)


def test_bad_perturbations():
    with pytest.raises(BadPerturbation):
        PerturbationSpec("nope")
    with pytest.raises(BadPerturbation):
        PerturbationSpec("jitter", epsilon=0.0)
    with pytest.raises(BadPerturbation):
        PerturbationSpec("jitter", epsilon=1.0)
    with pytest.raises(BadPerturbation):
        PerturbationSpec("adjacent_swap", count=0)


def test_perturbation_names():
    assert PerturbationSpec("jitter", epsilon=0.05).name == "jitter(0.05)"
    assert PerturbationSpec("adjacent_swap", count=2).name == "adjacent_swap(2)"
    assert PerturbationSpec("identity").name == "identity"


# -- row functions against the plain per-row bodies --------------------------

def encode_with_budget_reference(dim_ids, assumed_weights, budget):
    """Top-`budget` mask of one weight vector: one stable argsort, a set."""
    n = len(dim_ids)
    if len(assumed_weights) != n:
        raise BadBudget(f"{n} ids vs {len(assumed_weights)} weights")
    if not isinstance(budget, int) or isinstance(budget, bool) or not 0 <= budget <= n:
        raise BadBudget(f"budget must be an integer in [0, {n}], got {budget!r}")
    order = np.argsort(-np.asarray(assumed_weights, dtype=np.float64),
                       kind="stable")
    chosen = set(int(i) for i in order[:budget])
    return EncodingMask(tuple(dim_ids),
                        tuple(1 if i in chosen else 0 for i in range(n)))


def perturb_weights_reference(weights, spec, seed=0):
    """One perturbation of one weight vector, with a scalar derive per
    jitter factor."""
    w = [float(x) for x in weights]
    n = len(w)
    if n == 0:
        raise BadPerturbation("empty weight vector")
    if spec.kind == "identity":
        return w
    if spec.kind == "jitter":
        eps = spec.epsilon
        factors = [1.0 - eps + 2.0 * eps * unit_float(derive(seed, PERTURB_STREAM, i))
                   for i in range(n)]
        return normalize_weights([wi * fi for wi, fi in zip(w, factors)])
    order = np.argsort(-np.asarray(w), kind="stable")
    out = list(w)
    if spec.kind == "adjacent_swap":
        if spec.count > n // 2:
            raise BadPerturbation(
                f"adjacent_swap({spec.count}) needs {2 * spec.count} dims, have {n}")
        for j in range(spec.count):
            a, b = int(order[2 * j]), int(order[2 * j + 1])
            out[a], out[b] = w[b], w[a]
        return out
    # full_inversion
    for rank, ix in enumerate(order):
        out[int(ix)] = w[int(order[n - 1 - rank])]
    return out


def outcome(fn, *args):
    """fn's result, or the IstError it raises."""
    try:
        return fn(*args)
    except IstError as e:
        return e


def assert_same_outcome(got_fn, want):
    """got_fn() returns what want holds, bit for bit, or raises the same
    exception type with the same message."""
    if isinstance(want, IstError):
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            got_fn()
    else:
        assert np.asarray(got_fn(), dtype=np.float64).tobytes() == \
            np.asarray(want, dtype=np.float64).tobytes()


def test_perturb_weights_keeps_every_uint64_seed():
    spec = PerturbationSpec("jitter", epsilon=0.2)
    w = [0.5, 0.3, 0.2]
    for seed in (0, 1, 2**63 + 5, 2**64 - 1):
        assert perturb_weights(w, spec, seed) == perturb_weights_reference(w, spec, seed)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
def test_perturb_weights_rejects_a_seed_outside_uint64(seed):
    # the seed was wrapped mod 2**64: -1 gave the weights of 2**64 - 1,
    # True those of 1, and 1.5 raised a bare TypeError
    rule = "in [0, 2**64)" if type(seed) is int else "an integer"
    with pytest.raises(BadConfig) as info:
        perturb_weights([0.5, 0.3, 0.2], PerturbationSpec("jitter", epsilon=0.2), seed)
    assert str(info.value) == f"seed must be {rule}, got {seed!r}"


if HAVE_HYPOTHESIS:
    # ties, zeros and subnormals among plain floats in [0, 1]
    WEIGHTS = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1,
                         0.25, 1 / 3, 0.5, 1.0]),
        st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True))
    SPECS = st.one_of(
        st.sampled_from([PerturbationSpec("identity"),
                         PerturbationSpec("full_inversion")]),
        st.builds(lambda eps: PerturbationSpec("jitter", epsilon=eps),
                  st.one_of(st.sampled_from([1e-9, 0.05, 0.2, 0.5, 0.999]),
                            st.floats(min_value=0.0, max_value=1.0,
                                      exclude_min=True, exclude_max=True))),
        st.builds(lambda c: PerturbationSpec("adjacent_swap", count=c),
                  st.integers(min_value=1, max_value=5)))

    @st.composite
    def weight_rows(draw):
        n = draw(st.integers(min_value=1, max_value=9))
        return draw(st.lists(st.lists(WEIGHTS, min_size=n, max_size=n),
                             min_size=1, max_size=6))

    @given(weight_rows(), SPECS,
           st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=6, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_row_functions_equal_per_row_reference(rows, spec, seeds):
        seeds = seeds[:len(rows)]
        weights = np.array(rows, dtype=np.float64)
        want = [outcome(perturb_weights_reference, row, spec, seed)
                for row, seed in zip(rows, seeds)]
        errors = [e for e in want if isinstance(e, IstError)]
        assert_same_outcome(
            lambda: perturb_weight_rows(weights, spec, np.array(seeds, dtype=np.uint64)),
            errors[0] if errors else want)
        for row, seed, w in zip(rows, seeds, want):
            assert_same_outcome(lambda: perturb_weights(row, spec, seed), w)
        n = weights.shape[1]
        ids = tuple(f"d{i}" for i in range(n))
        for budget in range(n + 2):
            want = [outcome(encode_with_budget_reference, ids, row, budget)
                    for row in rows]
            if isinstance(want[0], IstError):
                assert_same_outcome(lambda: encode_rows(weights, budget), want[0])
                assert_same_outcome(lambda: encode_with_budget(ids, rows[0], budget),
                                    want[0])
                continue
            bits = [m.bits for m in want]
            assert encode_rows(weights, budget).astype(int).tolist() == \
                [list(b) for b in bits]
            assert encode_rows(weights[None], budget)[0].astype(int).tolist() == \
                [list(b) for b in bits]
            assert [encode_with_budget(ids, row, budget) for row in rows] == want


# -- ablation ----------------------------------------------------------------

def test_ablation_record_count_and_conditions():
    world = world_from(private_dims([0.5, 0.3, 0.2]), seed=2)
    records = ablation_records(world, mode="sample", replicates=4)
    assert len(records) == (1 + 3) * 4
    conditions = {r.condition for r in records}
    assert conditions == {"FULL", "ABL_d0", "ABL_d1", "ABL_d2"}
    for r in records:
        assert r.s_icmw == 1.0 and r.ga == 5
        if r.condition == "FULL":
            assert r.f_icmw == 1.0


def test_ablating_public_dimension_costs_nothing():
    world = world_from(public_dims([0.6, 0.4]), seed=3)
    records = ablation_records(world, mode="argmax")
    assert all(r.f_icmw == 1.0 for r in records)


def test_ablating_private_dimension_drops_by_weight():
    # user values off the argmax for every dim at this seed
    world = world_from(private_dims([0.5, 0.3, 0.2], k=1000), seed=1)
    task = world.tasks[0]
    assert all(u != 0 for u in task.users)
    records = {r.condition: r for r in ablation_records(world, mode="argmax")}
    for i, w in enumerate([0.5, 0.3, 0.2]):
        got = records[f"ABL_d{i}"].f_icmw
        oracle = expected_f_icmw(world, "t",
                                 mask_without(task, {f"d{i}"}), mode="argmax")
        assert got == 1.0 - w
        assert abs(oracle - (1.0 - w * (1 - 1 / 1000))) < 1e-12


def test_write_ablation_checks_its_arguments_when_called():
    world = world_from(private_dims([1.0]), seed=1)
    with pytest.raises(BadConfig):
        write_ablation(io.StringIO(), world, mode="nope")
    with pytest.raises(BadConfig):
        write_ablation(io.StringIO(), world, mode="sample", replicates=0)
    assert default_replicates("sample") == 50
    assert default_replicates("argmax") == 1


# -- weight recovery ---------------------------------------------------------

def test_estimate_weights_analytic():
    world = world_from(private_dims([0.5, 0.3, 0.2], k=1000), seed=1)
    records = ablation_records(world, mode="argmax")
    got = estimate_weights_by_ablation(records)
    l1 = sum(abs(got[f"d{i}"] - w) for i, w in enumerate([0.5, 0.3, 0.2]))
    assert l1 <= 1e-9


def test_estimate_weights_sampling():
    world = world_from(private_dims([0.5, 0.3, 0.2], k=50), seed=2)
    got = estimate_weights_by_ablation(
        ablation_records(world, mode="sample", replicates=600))
    l1 = sum(abs(got[f"d{i}"] - w) for i, w in enumerate([0.5, 0.3, 0.2]))
    assert l1 <= 0.08


def test_estimate_weights_mixed_world_oracle():
    dims = [{"id": "a", "weight": 0.6, "K": 4, "lambda": 0.5},
            {"id": "b", "weight": 0.4, "K": 8, "lambda": 0.0}]
    world = world_from(dims, seed=3)
    records = ablation_records(world, mode="sample", replicates=4000)
    got = estimate_weights_by_ablation(records)
    # drops converge to w_i * (1 - prior_i(user)) normalized
    raw = [0.6 * (1 - (0.5 + 0.5 / 4)), 0.4 * (1 - 1 / 8)]
    want = [x / math.fsum(raw) for x in raw]
    l1 = abs(got["a"] - want[0]) + abs(got["b"] - want[1])
    assert l1 <= 0.05


def test_estimate_weights_zero_signal():
    world = world_from(public_dims([0.5, 0.5]), seed=1)
    records = ablation_records(world, mode="argmax")
    with pytest.raises(ZeroSignal):
        estimate_weights_by_ablation(records)


def test_estimate_weights_floors_a_negative_drop_at_zero():
    # records from elsewhere (a real model's outputs) can score better under
    # an ablation: that dimension weighs 0, and if every ablation scores
    # better there is no signal
    records = ablation_records(world_from(private_dims([0.5, 0.5])))
    f = {"FULL": 0.5, "ABL_d0": 0.75, "ABL_d1": 0.25}
    records = [r._replace(f_icmw=f[r.condition]) for r in records]
    assert estimate_weights_by_ablation(records) == {"d0": 0.0, "d1": 1.0}
    with pytest.raises(ZeroSignal):
        estimate_weights_by_ablation(
            [r._replace(f_icmw=0.5 if r.condition == "FULL" else 0.75) for r in records])


def test_estimate_weights_reads_a_hand_written_mixed_case_file(tmp_path):
    # a record file written by hand may name a dimension "Who" in its masks
    # and its ABL_ conditions; the mask reads back as "who", and so does
    # the condition's id
    world = world_from(private_dims([0.6, 0.4], k=50))
    records = ablation_records(world, mode="argmax")
    path = tmp_path / "records.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            obj = record_to_obj(rec)
            obj["condition"] = obj["condition"].replace("ABL_d0", "ABL_D0")
            for bit in obj["mask"]:
                bit["dimension"] = bit["dimension"].replace("d0", "D0")
            f.write(dumps_canonical(obj) + "\n")
    back = list(read_records(path))
    assert {r.condition for r in back} == {"FULL", "ABL_D0", "ABL_d1"}
    assert {r.mask.dims for r in back} == {("d0", "d1")}
    assert estimate_weights_by_ablation(back) == estimate_weights_by_ablation(records)
    assert list(estimate_weights_by_ablation(back)) == ["d0", "d1"]


def test_estimate_weights_missing_condition():
    world = world_from(private_dims([0.5, 0.5], k=30), seed=1)
    records = [r for r in ablation_records(world, "argmax")
               if r.condition != "ABL_d1"]
    with pytest.raises(MissingCondition):
        estimate_weights_by_ablation(records)
    with pytest.raises(MissingCondition):
        estimate_weights_by_ablation([])


def test_estimate_weights_rejects_mixed_tasks():
    w1 = world_from(private_dims([0.5, 0.5], k=30), seed=1, task_id="t1")
    w2 = world_from(private_dims([0.5, 0.5], k=30), seed=1, task_id="t2")
    records = ablation_records(w1, "argmax") + ablation_records(w2, "argmax")
    with pytest.raises(Inconsistent):
        estimate_weights_by_ablation(records)


@pytest.mark.parametrize("case", ["unknown-condition", "wider-mask"])
def test_estimate_weights_rejects_records_outside_the_ablation(case):
    # a record whose condition is not FULL or an ABL_ of the task's ids, or
    # whose mask lists other ids, is not part of the task's ablation
    world = world_from(private_dims([0.5, 0.5], k=30))
    records = ablation_records(world, "argmax")
    assert estimate_weights_by_ablation(records) == {"d0": 0.5, "d1": 0.5}
    if case == "unknown-condition":
        records.append(records[0]._replace(condition="ABL_zzz"))
        message = "condition 'ABL_zzz' is not in the ablation of ('d0', 'd1')"
    else:
        records.insert(1, records[1]._replace(mask=EncodingMask(("d0", "d1", "d2"), (0, 1, 1))))
        message = "records mix dimension ids ('d0', 'd1') and ('d0', 'd1', 'd2')"
    with pytest.raises(Inconsistent, match=f"^{re.escape(message)}$"):
        estimate_weights_by_ablation(records)


@pytest.mark.parametrize("condition", ["FULL", "ABL_d0", "ABL_d1"])
def test_estimate_weights_rejects_mask_bits_other_than_the_conditions(condition):
    # FULL encodes every dimension and ABL_i all but i; a record whose mask
    # says otherwise is not part of the ablation, whatever its condition
    records = ablation_records(world_from(private_dims([0.5, 0.5], k=30)), "argmax")
    wrong = {"FULL": (1, 0), "ABL_d0": (1, 1), "ABL_d1": (0, 1)}[condition]
    records = [r._replace(mask=EncodingMask(r.mask.dims, wrong))
               if r.condition == condition else r for r in records]
    with pytest.raises(Inconsistent, match=f"^condition '{condition}' has mask bits "
                                           rf"{re.escape(repr(wrong))}$"):
        estimate_weights_by_ablation(records)


# -- perturbation harness ----------------------------------------------------

def test_perturbation_grid_plateau_and_cliff(grid_config):
    world = build_world(grid_config)
    report = run_weight_perturbation(world)
    assert report.plateau_rate == 1.0
    assert report.cliff_rate == 1.0
    assert report.mean_inversion_drop >= 0.1
    for cell in report.cells:
        if cell.perturbation == "identity":
            assert cell.delta_vs_baseline == 0.0
        if not cell.mask_changed:
            assert cell.delta_vs_baseline == 0.0
        if cell.perturbation == "full_inversion":
            assert cell.mask_changed
            assert cell.delta_vs_baseline < 0.0
        assert 0.0 <= cell.was <= 1.0


def test_full_budget_is_degenerate():
    world = world_from(private_dims([0.5, 0.3, 0.2], k=20), seed=4)
    report = run_weight_perturbation(world, budget=3)
    assert all(cell.was == 1.0 for cell in report.cells)
    assert report.cliff_rate == 0.0


def test_perturbation_sample_mode_runs():
    world = world_from(private_dims([0.5, 0.3, 0.2], k=20), seed=4)
    report = run_weight_perturbation(world, mode="sample", replicates=10)
    assert report.cells
    with pytest.raises(BadConfig):
        run_weight_perturbation(world, mode="nope")


# -- experiment config -------------------------------------------------------

def test_parse_experiment_config_minimal():
    cfg = parse_experiment_config(
        b'{"world_config": {"tasks": [{"task_id": "t", "dims": '
        b'[{"id": "a", "weight": 1.0, "K": 4, "lambda": 0.0}]}]}, "seed": 9}')
    assert cfg.world.seed == 9
    assert cfg.world.tasks[0].task_id == "t"
    assert cfg.mode == "argmax" and cfg.budget is None


def test_parse_experiment_config_perturbation_forms():
    base = (b'{"seed": 3, "world_config": {"tasks": [{"task_id": "t", "dims": '
            b'[{"id": "a", "weight": 1.0, "K": 4, "lambda": 0.0}]}]}, ')
    cfg = parse_experiment_config(
        base + b'"perturbations": ["identity", '
        b'{"kind": "jitter", "epsilon": 0.1}, '
        b'{"kind": "adjacent_swap", "count": 2}]}')
    names = [p.name for p in cfg.perturbations]
    assert names == ["identity", "jitter(0.1)", "adjacent_swap(2)"]


def test_parse_experiment_config_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        parse_experiment_config(b'{"seed": 1}')  # no world at all
    with pytest.raises(SchemaError):
        parse_experiment_config(
            b'{"world_config": {"tasks": []}, "world_path": "x.json"}')
    with pytest.raises(SchemaError):
        parse_experiment_config(
            b'{"world_config": {"tasks": []}, "mystery": true}')


# -- the record engine against the per-record reference -----------------------

def score_simulated_reference(world, task, condition, mask, mode, draw):
    """One record the plain way: simulate, score, aggregate."""
    out = simulate_output(world, task.task_id, mask, mode, draw)
    scores = score_output(to_intent_spec(task), out.realized_values)
    s = weighted_sum(task.weights, scores.r)
    return OutputRecord(
        task_id=task.task_id,
        condition=condition,
        model_tag=world.tag,
        mask=mask,
        realized_values=out.realized_values,
        ga=synthesize_ga(s),
        s_icmw=s,
        f_icmw=weighted_sum(task.weights, scores.f),
    )


def run_ablation_reference(world, mode, replicates):
    for task in world.tasks:
        conds = [(FULL_CONDITION, full_mask(task))] + [
            (ABLATION_PREFIX + d, mask_without(task, {d})) for d in task.dims]
        for cond_ix, (condition, mask) in enumerate(conds):
            for rep in range(replicates):
                yield score_simulated_reference(
                    world, task, condition, mask, mode, cond_ix * replicates + rep)


def was_for_mask_reference(world, task, mask, mode, replicates):
    """Mean f_icmw over replicates, one simulated record at a time."""
    total = 0.0
    for rep in range(replicates):
        out = simulate_output(world, task.task_id, mask, mode, draw=rep)
        scores = score_output(to_intent_spec(task), out.realized_values)
        total += weighted_sum(task.weights, scores.f)
    return total / replicates


def run_weight_perturbation_reference(world, perturbations, mode, replicates,
                                      budget=None):
    """Task by task, each mask from the per-row reference bodies."""
    if not any(p.kind == "identity" for p in perturbations):
        perturbations = [PerturbationSpec("identity"), *perturbations]
    cells = []
    for task in world.tasks:
        b = default_budget(len(task.dims)) if budget is None else budget
        w_true = list(task.weights)
        base_mask = encode_with_budget_reference(task.dims, w_true, b)
        baseline = was_for_mask_reference(world, task, base_mask, mode, replicates)
        for p_ix, p in enumerate(perturbations):
            w_p = perturb_weights_reference(w_true, p, seed=derive(
                world.seed, PERTURB_STREAM, task.index, p_ix))
            mask_p = encode_with_budget_reference(task.dims, w_p, b)
            was = was_for_mask_reference(world, task, mask_p, mode, replicates)
            cells.append(CellSummary(task.task_id, world.tag, p.name, was,
                                     was - baseline, mask_p.bits != base_mask.bits))
    preserving = [c for c in cells
                  if c.perturbation != "identity" and not c.mask_changed]
    inversions = [c for c in cells if c.perturbation == "full_inversion"]
    return PerturbationReport(
        cells=tuple(cells),
        plateau_rate=(sum(c.delta_vs_baseline == 0.0 for c in preserving)
                      / len(preserving)) if preserving else None,
        cliff_rate=(sum(c.delta_vs_baseline < 0.0 for c in inversions)
                    / len(inversions)) if inversions else None,
        mean_inversion_drop=float(np.mean([-c.delta_vs_baseline for c in inversions]))
                            if inversions else None,
    )


def random_world(seed, n_dims, n_tasks=3):
    """K from 2 to 64, lambda at 0, 1 or in between, a 64-bit master seed;
    n_dims dims per task, or one task per entry of a list of dim counts."""
    rng = random.Random(seed)
    tasks = []
    for t, n_dims in enumerate([n_dims] * n_tasks if isinstance(n_dims, int) else n_dims):
        raw = [rng.uniform(0.01, 1.0) for _ in range(n_dims)]
        total = math.fsum(raw)
        tasks.append({"task_id": f"r{t}", "dims": [
            {"id": f"d{i}", "weight": x / total,
             "K": rng.choice([2, 64, rng.randint(2, 64)]),
             "lambda": rng.choice([0.0, 1.0, rng.random()])}
            for i, x in enumerate(raw)]})
    return build_world({"tag": "rand", "tasks": tasks}, seed=rng.getrandbits(64))


def scaled_world(world, factor):
    """The same world with every weight scaled, so weights sum to about
    factor: s_icmw must come from the weights, not a constant 1."""
    tasks = tuple(t._replace(weights=tuple(w * factor for w in t.weights))
                  for t in world.tasks)
    return SyntheticWorld(seed=world.seed, tag=world.tag, tasks=tasks)


ENGINE_WORLDS = {
    "demo": lambda: build_world(json.loads((DATA / "demo_world.json").read_text())),
    "grid": lambda: build_world(json.loads((DATA / "perturb_grid.json").read_text())),
    **{f"random-d{d}": (lambda d=d: random_world(100 + d, d)) for d in (1, 8, 9, 20, 40)},
    # inside the 1e-6 tolerance that spec validation allows
    "scaled": lambda: scaled_world(random_world(7, 5), 1.0 - 5e-7),
    # 1-9 dims per task and K from 2 to 200: CDFs padded within and across tasks
    "mixed": lambda: parse_experiment_config(
        (TESTS_DATA / "mixed_experiment.json").read_bytes()).world,
    # dim counts in mixed order, so tasks are planned in interleaved groups
    "hetero": lambda: random_world(23, [5, 2, 9, 5, 3, 9, 2, 3, 5, 4]),
    "ladder": lambda: LADDER_CONFIG.world,
}

# 4-9 dims per task, tied and zero weights, budget 2, adjacent_swap(2)
LADDER_CONFIG = parse_experiment_config(
    (TESTS_DATA / "ladder_experiment.json").read_bytes())

# (budget, ladder) of the worlds that do not run the default ladder; neither
# ladder lists identity, so the inserted baseline is reported
CUSTOM_LADDERS = {
    "hetero": (None, [PerturbationSpec("full_inversion"),
                      PerturbationSpec("jitter", epsilon=0.5),
                      PerturbationSpec("adjacent_swap", count=1),
                      PerturbationSpec("jitter", epsilon=0.01)]),
    "ladder": (LADDER_CONFIG.budget, list(LADDER_CONFIG.perturbations)),
}


def ladder_for(name, world):
    """The budget and perturbation ladder a world is run with."""
    if name in CUSTOM_LADDERS:
        return CUSTOM_LADDERS[name]
    specs = default_perturbations()
    if min(len(t.dims) for t in world.tasks) < 2:
        specs = [p for p in specs if p.kind != "adjacent_swap"]
    return None, specs


def test_ladder_world_has_ties_and_zeros():
    weights = [t.weights for t in LADDER_CONFIG.world.tasks]
    assert any(len(set(w)) < len(w) for w in weights)
    assert any(0.0 in w for w in weights)
    assert LADDER_CONFIG.budget == 2


def test_engine_worlds_cover_inexact_weight_sums():
    for task in ENGINE_WORLDS["scaled"]().tasks:
        assert abs(math.fsum(task.weights) - (1.0 - 5e-7)) < 1e-12


@pytest.mark.parametrize("replicates", [1, 7])
@pytest.mark.parametrize("mode", ["argmax", "sample"])
@pytest.mark.parametrize("name", list(ENGINE_WORLDS))
def test_run_ablation_equals_reference(name, mode, replicates):
    world = ENGINE_WORLDS[name]()
    want = "".join(record_to_line(r) + "\n"
                   for r in run_ablation_reference(world, mode, replicates))
    assert ablation_text(world, mode, replicates) == want


@pytest.mark.parametrize("replicates", [1, 7])
@pytest.mark.parametrize("mode", ["argmax", "sample"])
@pytest.mark.parametrize("name", list(ENGINE_WORLDS))
def test_run_weight_perturbation_equals_reference(name, mode, replicates):
    world = ENGINE_WORLDS[name]()
    budget, specs = ladder_for(name, world)
    got = run_weight_perturbation(world, budget=budget, perturbations=specs,
                                  mode=mode, replicates=replicates)
    want = run_weight_perturbation_reference(world, specs, mode, replicates, budget)
    assert dumps_canonical(report_to_obj(got)) == dumps_canonical(report_to_obj(want))


@pytest.mark.parametrize("name", ["grid", "random-d9", "mixed", "ladder"])
def test_perturbation_draw_blocks_equal_reference(monkeypatch, name):
    # blocks of 3 or 7 compare cells hold at most a few draws: 7 replicates
    # split inside each task, and sums must run on across block edges
    world = ENGINE_WORLDS[name]()
    mask_budget, specs = ladder_for(name, world)
    want = run_weight_perturbation_reference(world, specs, "sample", 7, mask_budget)
    for budget in (3, 7):
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
        got = run_weight_perturbation(world, budget=mask_budget, perturbations=specs,
                                      mode="sample", replicates=7)
        assert dumps_canonical(report_to_obj(got)) == dumps_canonical(report_to_obj(want))


@pytest.mark.parametrize("name", ["random-d9", "mixed"])
def test_ablation_draw_blocks_equal_reference(monkeypatch, name):
    world = ENGINE_WORLDS[name]()
    want = "".join(record_to_line(r) + "\n" for r in run_ablation_reference(world, "sample", 7))
    for budget in (3, 7):
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
        assert ablation_text(world, "sample", 7) == want, budget


def ablate_reference(world, mode, replicates):
    """What `ist ablate` writes, the plain way: (records, not-estimable
    lines, summary line). Each record of run_ablation_reference is
    dumps_canonical(record_to_obj(r)), and each task's weights come from
    estimate_weights_by_ablation over its records."""
    lines, errors, summaries = [], [], {}
    for task_id, records in groupby(run_ablation_reference(world, mode, replicates),
                                    attrgetter("task_id")):
        records = list(records)
        lines += [dumps_canonical(record_to_obj(r)) + "\n" for r in records]
        try:
            summaries[task_id] = estimate_weights_by_ablation(records)
        except IstError as e:
            summaries[task_id] = None
            errors.append(f"{task_id}: weights not estimable ({e})\n")
    return ("".join(lines), "".join(errors),
            dumps_canonical({"estimated_weights": summaries}) + "\n")


# a quote, a backslash and a control character need JSON escapes; U+2028
# and text past ASCII and the BMP pass through unescaped
ESCAPED = ['"', "\\", "\u2028", "é", "中", "\U0001F600", "\x01"]


def escaped_experiment(seed):
    """An experiment config of 1-9 dims per task, K from 2 to 200, whose
    task ids, dimension ids and tag need JSON escapes; its last task is
    all-public, so its weights are not estimable."""
    rng = random.Random(seed)
    tasks = []
    for t in range(7):
        n = rng.randint(1, 9) if t < 6 else 3
        raw = [rng.choice([1.0, 2.0, rng.uniform(0.01, 1.0)]) for _ in range(n)]
        total = math.fsum(raw)
        tasks.append({
            "task_id": f"{rng.choice(ESCAPED)}t{t}{rng.choice(ESCAPED)}",
            "dims": [{"id": f"{ESCAPED[(t + i) % len(ESCAPED)]}d{i}", "weight": x / total,
                      "K": rng.choice([2, 3, 10, 200, rng.randint(2, 200)]),
                      "lambda": 1.0 if t == 6 else rng.choice([0.0, 1.0, 1e-17,
                                                               rng.random()])}
                     for i, x in enumerate(raw)]})
    return {"seed": rng.getrandbits(64),
            "world_config": {"tag": 'tag"\\\u2028é', "tasks": tasks}}


ABLATE_EXPERIMENTS = {
    # ablate rejects a perturbation ladder; the world and seed are the same
    "mixed": lambda: {k: v for k, v in json.loads(
        (TESTS_DATA / "mixed_experiment.json").read_text()).items() if k != "perturbations"},
    "escaped": lambda: escaped_experiment(3),
}


@cache
def cached_ablate_reference(name, mode, replicates):
    config = ABLATE_EXPERIMENTS[name]()
    world = build_world(config["world_config"], config["seed"])
    return ablate_reference(world, mode, replicates)


@pytest.mark.parametrize("replicates,budget", [(1, None), (3, None), (7, None), (50, None),
                                                (1, 7), (7, 7)])
@pytest.mark.parametrize("mode", ["argmax", "sample"])
@pytest.mark.parametrize("name", list(ABLATE_EXPERIMENTS))
def test_ablate_cli_equals_the_record_reference(capsys, monkeypatch, tmp_path, name,
                                                mode, replicates, budget):
    # a block of 7 hash cells holds less than one draw of a wide task, so
    # each task's draws span blocks
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
    records, errors, summary = cached_ablate_reference(name, mode, replicates)
    if name == "escaped":
        assert "t6" in errors  # the all-public task
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(ABLATE_EXPERIMENTS[name]()), encoding="utf-8")
    args = ["ablate", "--config", str(path), "--mode", mode,
            "--replicates", str(replicates)]
    assert main(args) == 0
    assert capsys.readouterr() == (records, errors + summary)
    out = tmp_path / "records.jsonl"
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr() == (summary, errors)
    assert out.read_bytes() == records.encode("utf-8")


@cache
def draw_order_means_reference(replicates):
    """(task id, dims, records, means) per task of the hetero world in
    sample mode, from run_ablation_reference: each condition's mean is its
    records' f_icmw added in draw order from 0.0, divided by the count,
    FULL's first."""
    world = ENGINE_WORLDS["hetero"]()
    all_records = list(run_ablation_reference(world, "sample", replicates))
    out = []
    for task in world.tasks:
        records = [r for r in all_records if r.task_id == task.task_id]
        totals, counts = {}, {}
        for r in records:
            totals[r.condition] = totals.get(r.condition, 0.0) + r.f_icmw
            counts[r.condition] = counts.get(r.condition, 0) + 1
        out.append((task.task_id, task.dims, records,
                    [totals[c] / counts[c] for c in totals]))
    return out


@pytest.mark.parametrize("replicates", [9, 50, 129])
def test_ablation_means_are_draw_order_sums(monkeypatch, replicates):
    # write_ablation's means and estimate_weights_by_ablation both add each
    # condition's f_icmw in draw order; at these counts numpy's pairwise
    # np.mean differs in the last ulps for some condition. A budget of 100
    # hash cells cuts every task's draws into several blocks
    want = draw_order_means_reference(replicates)
    world = ENGINE_WORLDS["hetero"]()
    for budget in (_kernels._CHUNK_DRAWS, 100):
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
        got = list(write_ablation(io.StringIO(), world, "sample", replicates))
        assert [task.task_id for task, _ in got] == [task_id for task_id, *_ in want]
        for (_, means), (_, _, _, want_means) in zip(got, want):
            assert_same_floats(means, want_means)
    for task_id, dims, records, want_means in want:
        assert_same_outcome(lambda: list(estimate_weights_by_ablation(records).values()),
                            outcome(lambda: list(_weights_from_means(
                                task_id, dims, want_means).values())))
    assert any(float(np.mean([r.f_icmw for r in records if r.condition == c])) != mean
               for _, _, records, means in want
               for c, mean in zip(dict.fromkeys(r.condition for r in records), means))


class _Discard:
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


def test_write_ablation_memory_does_not_grow_with_replicates(monkeypatch):
    # each condition's mean is a running total, so a one-dimension task at
    # 20,000 replicates peaks no higher than at 2,000 (a column of f_icmw
    # floats peaked at 350 KB against 73 KB)
    monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", 64)
    world = world_from([{"id": "a", "weight": 1.0, "K": 10, "lambda": 0.0}])
    peaks = []
    for replicates in (2_000, 20_000):
        tracemalloc.start()
        try:
            list(write_ablation(_Discard(), world, "sample", replicates))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


def all_rows(n):
    return np.array(list(product([False, True], repeat=n)))


def assert_same_floats(got, want):
    # float.hex tells every bit apart, -0.0 from 0.0 included
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("name", ["mixed", "ladder"])
def test_block_scorer_f_icmw_is_weighted_sum_bit_for_bit(name):
    # every 0/1 row of every task, alone and with every task in one block
    tasks = ENGINE_WORLDS[name]().tasks
    width = max(len(t.dims) for t in tasks)
    keys, hits, want = [], [], []
    for k, task in enumerate(tasks):
        rows = all_rows(len(task.dims))
        got = _f_icmw([task], np.zeros(len(rows), dtype=np.int64), rows).tolist()
        task_want = [weighted_sum(task.weights, row) for row in rows.tolist()]
        assert_same_floats(got, task_want)
        keys += [k] * len(rows)
        hits += [row + [True] * (width - len(row)) for row in rows.tolist()]
        want += task_want
    got = _f_icmw(tasks, np.array(keys), np.array(hits)).tolist()
    assert_same_floats(got, want)


def spy_on_sample_block(monkeypatch) -> list[tuple]:
    """Record (task indices, draws, cdf_pad shape) of each sample_block call."""
    calls = []
    sample_block = _kernels.sample_block

    def spy(master, task_ixs, dim_ixs, draws, cdf_pad, ks):
        calls.append((task_ixs.tolist(), draws.tolist(), cdf_pad.shape))
        return sample_block(master, task_ixs, dim_ixs, draws, cdf_pad, ks)

    monkeypatch.setattr(_kernels, "sample_block", spy)
    return calls


BLOCK_CASES = [(budget, counts) for budget in (3, 7, 20, None)
               for counts in ("ablation", "random", "tails") if budget or counts != "tails"]


@pytest.mark.parametrize("budget,counts", BLOCK_CASES)
def test_block_tokens_equal_scalar_reference(monkeypatch, budget, counts):
    # every sampled token of every piece, against the scalar rule. "tails"
    # ends every other task's draws in a one-draw range, followed by a
    # one-draw task: both would fit one grid, but not at one shared start.
    # None keeps the default budget, where each run of tasks with one
    # dimension count is one block
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
    world = ENGINE_WORLDS["mixed"]()
    tasks = world.tasks
    rng = random.Random(budget)
    counts = [{"ablation": (1 + len(t.dims)) * 7,
               "random": rng.randint(1, 12),
               "tails": 1 if pos % 2 else 2 * ((budget or 1) // len(t.dims)) + 1}[counts]
              for pos, t in enumerate(tasks)]
    pieces = []
    for (positions, start, stop), grid in _block_grids(world, tasks, counts, "sample"):
        assert grid.shape == (len(positions), len(tasks[positions[0]].dims), stop - start)
        for t, pos in enumerate(positions):
            task = tasks[pos]
            tokens = grid[t].T
            want = [[sample_token_index_reference(world.seed, task, j, draw)
                     for j in range(len(task.dims))]
                    for draw in range(start, stop)]
            assert tokens.tolist() == want, (pos, start)
            pieces.append((pos, start, stop))
    # task then draw order, each draw once
    assert [(pos, draw) for pos, start, stop in pieces for draw in range(start, stop)] \
        == [(pos, draw) for pos, n in enumerate(counts) for draw in range(n)]


@pytest.mark.parametrize("budget", [7, None])
def test_blocks_span_tasks_and_split_tasks(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
    calls = spy_on_sample_block(monkeypatch)
    world = ENGINE_WORLDS["mixed"]()
    list(_block_grids(world, world.tasks, [1] * len(world.tasks), "sample"))
    assert max(len(task_ixs) for task_ixs, _, _ in calls) > 1
    calls.clear()
    # 9 dims: the hashes of one draw more than a block holds
    wide = world.tasks[5]
    list(_block_grids(world, [wide], [_kernels._CHUNK_DRAWS // 9 + 2], "sample"))
    assert len(calls) == 2 and calls[1][1][0] > 0


def test_mixed_ablation_hashes_only_the_cells_it_reads(monkeypatch):
    # a block's tasks share one dimension count and one run of draws, so
    # the ablation hashes each (task, dim, draw) cell a record reads once
    # and nothing else: a plan that padded every task to its block's
    # widest task hashed 63,000 cells here
    calls = spy_on_sample_block(monkeypatch)
    world = ENGINE_WORLDS["mixed"]()
    counts = [(1 + len(t.dims)) * 50 for t in world.tasks]
    blocks = list(_blocks(world.tasks, counts))
    for positions, start, stop in blocks:
        assert len({len(world.tasks[pos].dims) for pos in positions}) == 1
        assert len({counts[pos] for pos in positions}) == 1
        assert 0 <= start < stop <= counts[positions[0]]
    records = ablation_records(world, "sample", 50)
    assert [(task_ixs, draws) for task_ixs, draws, _ in calls] == [
        ([world.tasks[pos].index for pos in positions], list(range(start, stop)))
        for positions, start, stop in blocks]
    hashed = sum(len(task_ixs) * n_dims * len(draws)
                 for task_ixs, draws, (_, n_dims, _) in calls)
    read = sum(len(r.realized_values) for r in records)
    assert hashed == read == 17_200


def test_sampled_blocks_stay_within_the_cell_budget(monkeypatch):
    # a block's hash grid and its CDF table, padded to its largest K, each
    # stay within the budget; sizing blocks by hashes alone would put all
    # 60 tasks of the perturbation in one block, whose CDF table, padded
    # to K=2,000, holds 7 times the budget
    calls = spy_on_sample_block(monkeypatch)
    dims = [{"id": "small", "weight": 0.25, "K": 2, "lambda": 0.5},
            {"id": "wide", "weight": 0.25, "K": 2000, "lambda": 0.0},
            {"id": "wide2", "weight": 0.25, "K": 2000, "lambda": 0.5},
            {"id": "tiny", "weight": 0.25, "K": 2, "lambda": 0.0}]
    world = build_world({"tasks": [
        {"task_id": f"t{i}", "dims": dims if i % 2 else [
            {**d, "K": 2} for d in dims]} for i in range(60)]}, seed=5)
    run_weight_perturbation(world, mode="sample", replicates=40)
    list(write_ablation(_Discard(), world, "sample", 60))
    budget = _kernels._CHUNK_DRAWS
    hashes = [n_tasks * n_dims * len(draws) for _, draws, (n_tasks, n_dims, _) in calls]
    cdf_cells = [math.prod(shape) for _, _, shape in calls]
    assert max(hashes) <= budget and max(cdf_cells) <= budget
    assert any(shape[2] == 2000 for _, _, shape in calls)
    assert max(cdf_cells) > budget // 2  # blocks do fill up


def means_reference(world, bits, n, mode):
    """Mean f_icmw per (task, mask) row of bits, one simulated and scored
    record at a time, summed in draw order."""
    means = []
    for task, task_bits in zip(world.tasks, bits):
        spec = to_intent_spec(task)
        row_means = []
        for row in task_bits.tolist():
            mask = EncodingMask(task.dims, tuple(int(b) for b in row))
            total = 0.0
            for draw in range(n):
                out = simulate_output(world, task.task_id, mask, mode, draw)
                total += weighted_sum(task.weights, score_output(spec, out.realized_values).f)
            row_means.append(total / n)
        means.append(row_means)
    return means


@pytest.mark.parametrize("mode", ["argmax", "sample"])
@pytest.mark.parametrize("budget,n", [(7, 20), (40, 33), (None, 3)])
def test_block_means_equal_a_per_record_loop(monkeypatch, mode, budget, n):
    # tasks of 2-9 dims under four random masks each, one _mean_f_icmw
    # call per run of tasks with one dimension count: with a small budget
    # every task's draws span several blocks
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_DRAWS", budget)
    calls = spy_on_sample_block(monkeypatch)
    world = ENGINE_WORLDS["hetero"]()
    rng = random.Random(n)
    bits = [np.array([[rng.random() < 0.5 for _ in task.dims] for _ in range(4)])
            for task in world.tasks]
    got = []
    for _, run in groupby(range(len(world.tasks)), lambda pos: len(world.tasks[pos].dims)):
        run = list(run)
        got += _mean_f_icmw(world, world.tasks[run[0]:run[-1] + 1],
                            np.array([bits[pos] for pos in run]), n, mode)
    if mode == "sample":
        assert (len(calls) > len(world.tasks)) == (budget is not None)
    assert got == means_reference(world, bits, n, mode)


@pytest.mark.parametrize("replicates", [0, -2, 1.5, True])
def test_run_weight_perturbation_rejects_bad_replicates(demo_world_config, replicates):
    # 0 divided by zero and -2 gave plateau_rate 1.0 with every WAS -0.0
    world = build_world(demo_world_config)
    for mode in ("argmax", "sample"):
        with pytest.raises(BadConfig, match="replicates must be a positive integer"):
            run_weight_perturbation(world, mode=mode, replicates=replicates)
    with pytest.raises(BadConfig, match="replicates must be a positive integer"):
        write_ablation(io.StringIO(), world, "sample", replicates)


# -- a world is valid once built ----------------------------------------------

def _break_task(task, case):
    """task with one rule broken; "duplicate-task-id" takes tasks[0]'s id."""
    dims, weights = task.dims, task.weights
    if case == "weight-sum":
        weights = tuple(w * 0.6 for w in weights)
    elif case == "negative-weight":
        weights = (-0.1, *weights[1:])
    elif case == "nan-weight":
        weights = (math.nan, *weights[1:])
    elif case == "empty-id":
        dims = ("", *dims[1:])
    elif case == "case-folded-ids":
        dims = (dims[0], dims[0].upper(), *dims[2:])
    elif case == "duplicate-task-id":
        return task._replace(task_id="r0")
    return task._replace(dims=dims, weights=weights)


INVALID_WORLD_CASES = {
    "weight-sum": r"\$\.tasks\[1\]: weights sum to 0\.6\d*, expected 1",
    "negative-weight": r"\$\.tasks\[1\]\.dims\[0\]\.weight: must be in \[0, 1\], got -0\.1",
    "nan-weight": r"\$\.tasks\[1\]\.dims\[0\]\.weight: must be in \[0, 1\], got nan",
    "empty-id": r"\$\.tasks\[1\]\.dims\[0\]\.id: must be non-empty",
    "case-folded-ids": r"\$\.tasks\[1\]: duplicate dimension ids",
    "duplicate-task-id": r"\$\.tasks\[1\]: duplicate task_id 'r0'",
}


@pytest.mark.parametrize("case", list(INVALID_WORLD_CASES))
def test_hand_built_invalid_world_fails_at_construction(case):
    # each rule fails at construction and names its task, so the engine
    # and the planner never meet a broken task
    world = random_world(11, 4)
    tasks = (world.tasks[0], _break_task(world.tasks[1], case), world.tasks[2])
    with pytest.raises(SchemaError, match=f"^{INVALID_WORLD_CASES[case]}$") as err:
        SyntheticWorld(seed=world.seed, tag=world.tag, tasks=tasks)
    assert err.value.path.startswith("$")


def test_scaled_weights_fail_when_the_world_is_built():
    world = random_world(11, 4)
    SyntheticWorld(seed=world.seed, tag=world.tag, tasks=world.tasks)
    with pytest.raises(SchemaError, match=r"^\$\.tasks\[0\]: weights sum to 0\.6\d*, expected 1$"):
        scaled_world(world, 0.6)


if HAVE_HYPOTHESIS:
    # quotes, backslashes, controls and text past ASCII and the BMP
    REPORT_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é中\U0001F600'),
                                    st.characters(codec="utf-8")), max_size=5)
    EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                   1.0 - 2.0 ** -53, 1.0, -1.0, 0.1, 1.7976931348623157e308]
    REPORT_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                              st.floats(allow_nan=False, allow_infinity=False))

    @st.composite
    def reports(draw):
        ids = draw(st.lists(REPORT_TEXT, min_size=1, max_size=3))
        labels = draw(st.lists(REPORT_TEXT, min_size=1, max_size=3))
        tag = draw(REPORT_TEXT)
        cells = tuple(CellSummary(draw(st.sampled_from(ids)), tag,
                                  draw(st.sampled_from(labels)), draw(REPORT_FLOATS),
                                  draw(REPORT_FLOATS), draw(st.booleans()))
                      for _ in range(draw(st.integers(0, 8))))
        rates = [draw(st.none() | REPORT_FLOATS) for _ in range(3)]
        return PerturbationReport(cells, *rates)

    @given(reports())
    @settings(max_examples=200, deadline=None)
    def test_report_writer_equals_the_canonical_dump(rep):
        assert report_to_json(rep) == dumps_canonical(report_to_obj(rep))

    # tied and zero weights, -0.0 among them; 40 dims spans two 32-column codes
    TIED_WEIGHTS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.25, 0.5]),
                                      st.floats(0.0, 1.0)), min_size=1, max_size=40)

    @st.composite
    def scored_blocks(draw):
        tasks = []
        for k in range(draw(st.integers(1, 3))):
            raw = draw(TIED_WEIGHTS)
            total = math.fsum(raw)
            weights = [w / total for w in raw] if total > 0 else raw
            n = len(weights)
            tasks.append(WorldTask(f"t{k}", k, tuple(f"d{i}" for i in range(n)),
                                   tuple(weights), (2,) * n, (0.0,) * n, (0,) * n))
        width = max(len(t.dims) for t in tasks)
        keys = draw(st.lists(st.integers(0, len(tasks) - 1), min_size=1, max_size=30))
        # cells past a task's dims hold bits nobody may read
        hits = [draw(st.lists(st.booleans(), min_size=width, max_size=width))
                for _ in keys]
        return tasks, keys, hits

    @given(scored_blocks())
    @settings(max_examples=200, deadline=None)
    def test_block_scorer_f_icmw_is_weighted_sum_on_any_rows(block):
        tasks, keys, hits = block
        got = _f_icmw(tasks, np.array(keys), np.array(hits)).tolist()
        want = [weighted_sum(tasks[k].weights, row[:len(tasks[k].dims)])
                for k, row in zip(keys, hits)]
        assert_same_floats(got, want)

    JUNK = [None, True, "x", [], {}, -1, 0, 1, 2, 2.5, -0.5, 1.5, 1e-17,
            math.inf, -math.inf, math.nan]
    # K stays small (an unbounded K is its own open item); other numbers
    # may also be too large for a float
    FIELD_JUNK = {"K": JUNK, "weight": JUNK + [10 ** 400, -(10 ** 400)],
                  "lambda": JUNK + [10 ** 400], "seed": JUNK + [10 ** 400]}

    @st.composite
    def mutated_world_configs(draw):
        """A small valid world config with a few fields mutated: junk
        values, unknown or dropped fields, duplicated or case-folded ids,
        weights scaled within or beyond the sum tolerance."""
        config = {"seed": draw(st.integers(0, 2 ** 64)), "tag": "fuzz", "tasks": []}
        dims = []  # (task, dim) pairs
        for t in range(draw(st.integers(1, 3))):
            n = draw(st.integers(2, 4))
            weights = normalize_weights(draw(st.lists(
                st.floats(0.05, 1.0), min_size=n, max_size=n)))
            task = {"task_id": f"t{t}", "dims": [
                {"id": f"d{i}", "weight": w, "K": draw(st.integers(2, 6)),
                 "lambda": draw(st.sampled_from([0.0, 1e-17, 0.5, 1.0]))}
                for i, w in enumerate(weights)]}
            config["tasks"].append(task)
            dims += [(task, d) for d in task["dims"]]
        for _ in range(draw(st.integers(0, 3))):
            task, dim = draw(st.sampled_from(dims))
            target = draw(st.sampled_from([config, task, dim]))
            key = draw(st.sampled_from(sorted(target) or ["extra"]))
            kind = draw(st.sampled_from(["junk", "unknown", "drop", "id", "scale"]))
            if kind == "junk":
                target[key] = draw(st.sampled_from(FIELD_JUNK.get(key, JUNK)))
            elif kind == "unknown":
                target[draw(st.sampled_from(["lamda", "Weight", "extra"]))] = 1
            elif kind == "drop":
                target.pop(key, None)
            elif kind == "id":
                dim["id"] = draw(st.sampled_from(["", "D0", "t0", "d1"]))
                task["task_id"] = draw(st.sampled_from([task.get("task_id"), "t0"]))
            elif isinstance(dim.get("weight"), float):
                dim["weight"] *= draw(st.sampled_from([1.0 - 1e-7, 0.0, 1.5]))
        return config

    @given(mutated_world_configs())
    @settings(max_examples=150, deadline=None)
    def test_a_built_world_runs_every_experiment(config):
        # build_world either refuses the config with an input error or
        # returns a world that every experiment and the oracle accept
        try:
            world = build_world(config)
        except IstError:
            return
        for mode in ("argmax", "sample"):
            list(write_ablation(_Discard(), world, mode, 2))
            run_weight_perturbation(world, mode=mode, replicates=2)
        tiil_check(world)


# -- errors surface where planning task by task raises them -------------------

def dims_config(prefix, n, empty_id_at=None):
    return [{"id": "" if i == empty_id_at else f"{prefix}{i}", "weight": 1 / n,
             "K": 10, "lambda": 0.0} for i in range(n)]


# (budget, ladder, dims of the narrow task, the document's refusal): too
# narrow for the budget, or for adjacent_swap(2)
NARROW_CASES = {
    "budget": (3, ["identity", {"kind": "jitter", "epsilon": 0.1}], 2,
               "$.budget: must be an integer in [0, 2], got 3"),
    "swap": (None, [{"kind": "jitter", "epsilon": 0.1},
                    {"kind": "adjacent_swap", "count": 2}, "full_inversion"], 3,
             "$.perturbations[1].count: must be an integer in [1, 1], got 2"),
}


def test_a_budget_too_wide_is_named_before_a_perturbation_too_wide(capsys, tmp_path):
    # both the budget and adjacent_swap(2) need more than two dims; the
    # budget is checked before any perturbation, so its error comes first
    config = {"seed": 1, "budget": 5, "perturbations": [{"kind": "adjacent_swap", "count": 2}],
              "world_config": {"tasks": [{"task_id": "t", "dims": dims_config("d", 2)}]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["perturb", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: $.budget: must be an integer in [0, 2], got 5\n"


# fields of a document too wide for its world's two-dimension task, and
# perturb's refusal: the field's path, the range that fits every task, and
# no value of more than 20 digits
FIT_REFUSALS = {
    "budget": ({"budget": 5}, "$.budget: must be an integer in [0, 2], got 5"),
    "negative-budget": ({"budget": -1}, "$.budget: must be an integer in [0, 2], got -1"),
    "huge-budget": ({"budget": 10 ** 40}, "$.budget: must be an integer in [0, 2], "
                                          "got an integer of more than 20 digits"),
    "count": ({"perturbations": ["identity", {"kind": "adjacent_swap", "count": 3}]},
              "$.perturbations[1].count: must be an integer in [1, 1], got 3"),
    "huge-count": ({"perturbations": [{"kind": "adjacent_swap", "count": 10 ** 40}]},
                   "$.perturbations[0].count: must be an integer in [1, 1], "
                   "got an integer of more than 20 digits"),
}


def two_width_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, **fields, "world_config": {"tasks": [
        {"task_id": "wide", "dims": dims_config("w", 4)},
        {"task_id": "narrow", "dims": dims_config("n", 2)}]}}))
    return path


@pytest.mark.parametrize("case", list(FIT_REFUSALS))
def test_a_document_too_wide_for_a_task_is_refused_at_its_path(capsys, tmp_path, case):
    fields, message = FIT_REFUSALS[case]
    path = two_width_config(tmp_path, **fields)
    assert main(["perturb", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # a direct call keeps the library's text, of the first task it fails
    cfg = parse_experiment_config(path.read_bytes())
    with pytest.raises((BadBudget, BadPerturbation)):
        run_weight_perturbation(cfg.world, budget=cfg.budget, perturbations=cfg.perturbations)


def test_a_document_that_fits_its_narrowest_task_runs(capsys, tmp_path):
    path = two_width_config(tmp_path, budget=2, perturbations=[
        {"kind": "adjacent_swap", "count": 1}])
    check_experiment_fits(parse_experiment_config(path.read_bytes()))
    assert main(["perturb", "--config", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["cells"]) == 4


@pytest.mark.parametrize("with_invalid_task", [True, False])
@pytest.mark.parametrize("case", list(NARROW_CASES))
def test_group_errors_match_the_task_by_task_reference(capsys, tmp_path, case,
                                                       with_invalid_task):
    # a 6-dim task with an empty dimension id, then a narrower task whose
    # group cannot be planned: the empty id fails the world's build, and
    # without it the narrow task's BadBudget or BadPerturbation comes first,
    # which perturb names at the document's path
    budget, ladder, narrow, refusal = NARROW_CASES[case]
    tasks = [{"task_id": "narrow", "dims": dims_config("n", narrow)}]
    if with_invalid_task:
        tasks.insert(0, {"task_id": "bad-id", "dims": dims_config("b", 6, empty_id_at=2)})
    config = {"seed": 5, "world_config": {"tasks": tasks}, "perturbations": ladder}
    if budget is not None:
        config["budget"] = budget
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if with_invalid_task:
        with pytest.raises(SchemaError) as built:
            parse_experiment_config(path.read_bytes())
        want = built.value
        assert str(want) == "$.world_config.tasks[0].dims[2].id: must be non-empty"
    else:
        cfg = parse_experiment_config(path.read_bytes())
        specs = list(cfg.perturbations)
        want = outcome(run_weight_perturbation_reference, cfg.world, specs, "sample", 2,
                       cfg.budget)
        assert type(want) is {"budget": BadBudget, "swap": BadPerturbation}[case]
        assert_same_outcome(lambda: run_weight_perturbation(
            cfg.world, budget=cfg.budget, perturbations=specs, mode="sample",
            replicates=2), want)
        with pytest.raises(SchemaError, match=re.escape(refusal)):
            check_experiment_fits(cfg)
        want = refusal
    assert main(["perturb", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
